// Fused multi-scenario ADMM kernels. Each kernel launches one grid over
// |slots| x components blocks: block b serves component b % ncomp of
// scenario slots[b / ncomp], reusing the per-component update math from
// admm/kernels_core.hpp. All S scenarios' generator (resp. bus, pair)
// updates share a single launch, which is where the batch engine's speedup
// over S sequential solver loops comes from: launch count per fused step is
// constant in S. The TRON-based branch kernel groups scenarios its own
// way: one block per (branch, group of admm::kBranchLanes consecutive
// active slots), the group solved by lockstep TRON.
//
// Residual reductions are per (worker lane, slot): `partial` arrays hold
// `lanes` rows of `row_stride` doubles (row_stride >= |slots|, rounded up
// so rows do not share cache lines); callers take the per-slot max over
// lanes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "admm/batch_state.hpp"
#include "admm/branch_kernel.hpp"
#include "admm/kernels_core.hpp"
#include "admm/params.hpp"
#include "device/device.hpp"

namespace gridadmm::scenario {

/// Row stride (in doubles) for per-(lane, slot) partial reductions.
inline int reduce_row_stride(int num_slots) { return (num_slots + 7) / 8 * 8; }

void batch_update_generators(device::Device& dev, const admm::ModelView& m,
                             std::span<const admm::ScenarioView> views,
                             std::span<const int> slots);

/// `lanes` provides one reusable TRON workspace per device worker (resized
/// and options-bound on first use); hoisting it out of the fused inner loop
/// avoids per-iteration solver construction. Each call accumulates the
/// lanes' work into `stats` and clears the lane counters.
///
/// Launch geometry: the active slots are cut into groups of
/// admm::kBranchLanes consecutive slots, and the launch issues one block per
/// (group, branch) — num_branches * ceil(|slots| / kBranchLanes) blocks.
/// A block solves its branch for every scenario of its group in lockstep
/// (admm::branch_update_lanes, tron/lockstep_tron.hpp); each lane runs the
/// exact scalar operation sequence, so results are bit-identical to one
/// block per (scenario, branch) and to the single-scenario kernel.
///
/// `slot_tron` (optional, for convergence telemetry): when non-empty it
/// must hold dev.workers() rows of `row_stride` entries (row_stride >=
/// |slots|), the same per-(lane, slot) partial shape as the residual
/// reductions; each lane adds the TRON iterations it spent on slot j into
/// its own row, and the caller takes the per-slot sum over lanes (sums are
/// order-free, so attribution is exact and deterministic). Recording is
/// observation-only — iterates are bit-identical with it on or off.
void batch_update_branches(device::Device& dev, const admm::ModelView& m,
                           const admm::AdmmParams& params,
                           std::span<const admm::ScenarioView> views, std::span<const int> slots,
                           std::vector<admm::BranchWorkspace>& lanes,
                           admm::BranchUpdateStats* stats,
                           std::span<std::uint64_t> slot_tron = {}, int row_stride = 0);

void batch_update_buses(device::Device& dev, const admm::ModelView& m,
                        std::span<const admm::ScenarioView> views, std::span<const int> slots,
                        std::span<double> partial_dual, int row_stride);

void batch_update_zy(device::Device& dev, const admm::ModelView& m, bool two_level,
                     std::span<const admm::ScenarioView> views, std::span<const int> slots,
                     std::span<double> partial_primal, std::span<double> partial_z,
                     int row_stride);

void batch_update_outer_multiplier(device::Device& dev, const admm::ModelView& m,
                                   std::span<const admm::ScenarioView> views,
                                   std::span<const int> slots, double lambda_bound);

/// Adaptive-penalty rescale: scenario slots[j]'s rho slice *= factors[j].
void batch_scale_rho(device::Device& dev, const admm::ComponentModel& model,
                     admm::BatchAdmmState& state, std::span<const int> slots,
                     std::span<const double> factors);

/// Warm-start chaining: dst's iterate (u, v, z, y, lz, bus, gen, branch
/// arrays) and rho slice are copied from src, entirely on device. `src` is
/// a slot of `src_state` and `dst` a slot of `dst_state`; passing the same
/// state for both is the classic in-place chain, distinct states are the
/// ping-pong wave copy (previous wave's buffer -> current wave's buffer).
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
