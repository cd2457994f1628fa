#include "admm/params.hpp"

#include "common/error.hpp"

namespace gridadmm::admm {

AdmmParams params_for_case(const std::string& case_name, int num_buses) {
  AdmmParams params;
  // Table I of the paper.
  if (case_name == "1354pegase" || case_name == "2869pegase") {
    params.rho_pq = 1e1;
    params.rho_va = 1e3;
  } else if (case_name == "9241pegase" || case_name == "13659pegase") {
    params.rho_pq = 5e1;
    params.rho_va = 5e3;
  } else if (case_name == "ACTIVSg25k") {
    params.rho_pq = 3e3;
    params.rho_va = 3e4;
  } else if (case_name == "ACTIVSg70k") {
    params.rho_pq = 3e4;
    params.rho_va = 3e5;
    // "we scaled the objective value for the 70k case by multiplying it by 2"
    params.objective_scale *= 2.0;
  } else if (num_buses > 0 && num_buses <= 300) {
    // Small canonical cases use the small-pegase penalty level.
    params.rho_pq = 1e1;
    params.rho_va = 1e3;
  }
  return params;
}

void require_positive_budgets(const AdmmParams& params, const char* where) {
  require_valid(params.max_inner_iterations > 0 && params.max_outer_iterations > 0,
                std::string(where) + ": iteration budgets must be positive");
}

}  // namespace gridadmm::admm
