#include "admm/warm_start.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"

namespace gridadmm::admm {

bool WarmStartIterate::matches(const ComponentModel& model) const {
  const auto np = static_cast<std::size_t>(model.num_pairs);
  const auto nb = static_cast<std::size_t>(model.num_buses);
  const auto ng = static_cast<std::size_t>(model.num_gens);
  const auto nl = static_cast<std::size_t>(model.num_branches);
  return u.size() == np && v.size() == np && z.size() == np && y.size() == np &&
         lz.size() == np && bus_w.size() == nb && bus_theta.size() == nb &&
         gen_pg.size() == ng && gen_qg.size() == ng && branch_x.size() == 4 * nl &&
         branch_s.size() == 2 * nl && branch_lambda.size() == 2 * nl;
}

void require_matches(const WarmStartIterate& it, const ComponentModel& model,
                     const char* where) {
  if (!it.matches(model)) {
    throw ValidationError(std::string(where) +
                          ": warm-start iterate dimensions do not match the model");
  }
}

grid::OpfSolution to_solution(const WarmStartIterate& it, const grid::Network& net) {
  require_valid(it.bus_w.size() == static_cast<std::size_t>(net.num_buses()) &&
                    it.bus_theta.size() == static_cast<std::size_t>(net.num_buses()) &&
                    it.gen_pg.size() == static_cast<std::size_t>(net.num_generators()) &&
                    it.gen_qg.size() == static_cast<std::size_t>(net.num_generators()),
                "to_solution: iterate dimensions do not match the network");
  grid::OpfSolution sol = grid::OpfSolution::zeros(net);
  const double ref_angle = it.bus_theta[static_cast<std::size_t>(net.ref_bus)];
  for (int i = 0; i < net.num_buses(); ++i) {
    sol.vm[i] = std::sqrt(std::max(it.bus_w[i], 1e-12));
    sol.va[i] = it.bus_theta[i] - ref_angle;
  }
  sol.pg = it.gen_pg;
  sol.qg = it.gen_qg;
  return sol;
}

}  // namespace gridadmm::admm
