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

grid::OpfSolution to_solution(const grid::Network& net, std::span<const double> w,
                              std::span<const double> theta, std::span<const double> pg,
                              std::span<const double> qg) {
  require_valid(w.size() == static_cast<std::size_t>(net.num_buses()) &&
                    theta.size() == static_cast<std::size_t>(net.num_buses()) &&
                    pg.size() == static_cast<std::size_t>(net.num_generators()) &&
                    qg.size() == static_cast<std::size_t>(net.num_generators()),
                "to_solution: iterate dimensions do not match the network");
  grid::OpfSolution sol = grid::OpfSolution::zeros(net);
  const double ref_angle = theta[static_cast<std::size_t>(net.ref_bus)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    sol.vm[i] = std::sqrt(std::max(w[i], 1e-12));
    sol.va[i] = theta[i] - ref_angle;
  }
  sol.pg.assign(pg.begin(), pg.end());
  sol.qg.assign(qg.begin(), qg.end());
  return sol;
}

}  // namespace gridadmm::admm
