// Scenario-engine kernels that move state between scenarios: the
// warm-start chain copy and the ramp-bound update of tracking sequences.
// The ADMM step itself runs the launchers of admm/step_kernels.hpp over
// the active slots.
#pragma once

#include <span>

#include "admm/batch_state.hpp"
#include "admm/component_model.hpp"
#include "device/device.hpp"

namespace gridadmm::scenario {

/// Warm-start chaining: dst's iterate (u, v, z, y, lz, bus, gen, branch
/// arrays) is copied from src, entirely on device. `src` is a slot of
/// `src_state` (the previous wave's buffer) and `dst` a slot of `dst_state`
/// (the current wave's).
struct ChainLink {
  int dst = -1;
  int src = -1;
};
void batch_chain_state(device::Device& dev, const admm::ComponentModel& model,
                       const admm::BatchAdmmState& src_state, admm::BatchAdmmState& dst_state,
                       std::span<const ChainLink> links);

/// Ramp limits: dst's pg bounds become the base bounds tightened around
/// src's current dispatch, |pg - pg_src| <= ramp_fraction * Pmax_base.
/// Slot/state semantics match batch_chain_state.
struct RampLink {
  int dst = -1;
  int src = -1;
  double ramp_fraction = 0.0;
};
void batch_apply_ramp(device::Device& dev, const admm::ComponentModel& model,
                      const admm::BatchAdmmState& src_state, admm::BatchAdmmState& dst_state,
                      std::span<const RampLink> links);

}  // namespace gridadmm::scenario
