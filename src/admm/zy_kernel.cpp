#include "admm/zy_kernel.hpp"

#include <algorithm>

#include "admm/kernels_core.hpp"

namespace gridadmm::admm {

void update_zy_fused(device::Device& dev, const ComponentModel& model, AdmmState& state,
                     bool two_level, std::span<double> partial_primal,
                     std::span<double> partial_z) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);
  std::fill(partial_primal.begin(), partial_primal.end(), 0.0);
  std::fill(partial_z.begin(), partial_z.end(), 0.0);
  dev.launch_with_lane(model.num_pairs, [=](int k, int lane) {
    double* slot_p = &partial_primal[static_cast<std::size_t>(lane) * kReduceStride];
    double* slot_z = &partial_z[static_cast<std::size_t>(lane) * kReduceStride];
    zy_update_one(m, s, k, two_level, slot_p, slot_z);
  });
}

void update_outer_multiplier(device::Device& dev, const ComponentModel& model, AdmmState& state,
                             double lambda_bound) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);
  dev.launch(model.num_pairs, [=](int k) { outer_multiplier_update_one(m, s, k, lambda_bound); });
}

}  // namespace gridadmm::admm
