// The launches of one ADMM inner iteration (paper Algorithm 1), shared by
// AdmmSolver (one view, slot 0) and the fused batch engine (its active
// slots). `views[slots[j]]` is the j-th scenario a launch serves; the
// per-component math is admm/kernels_core.hpp and the branch solver
// admm/branch_kernel.hpp.
//
// Two launches per inner iteration:
//   - update_x, the x-update: every branch block (one per branch and group
//     of up to kBranchLanes consecutive slots, solved by lockstep TRON,
//     eq. (4)) and every generator block (one per slot and generator,
//     closed form, eq. (6)). Both read v, z, y and write disjoint u pairs.
//   - update_v, the v-update: one block per (slot, bus) assigns v for the
//     pairs the bus owns (eq. (7)) and then runs the z/y update on exactly
//     those pairs (eqs. (6), (8)). A bus owns its generators' two pairs and
//     kp, kp+1, kp+4, kp+5 for each incident branch end kp; every pair has
//     exactly one owner and a bus block reads z, y only of its own pairs,
//     so the result is that of a separate z/y launch over all pairs.
// plus update_outer_multiplier for the slots whose outer iteration ended.
//
// Residual reductions are per (lane, slot): `partial` arrays hold
// dev.workers() rows of `row_stride` doubles (row_stride >= |slots|,
// rounded up so rows do not share cache lines); callers take the per-slot
// max over lanes (admm::collect_slot_max). Maxima do not depend on the
// order the blocks ran in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "admm/branch_kernel.hpp"
#include "admm/kernels_core.hpp"
#include "admm/params.hpp"
#include "device/device.hpp"

namespace gridadmm::admm {

/// Row stride (in doubles) for per-(lane, slot) partial reductions.
inline int reduce_row_stride(int num_slots) { return (num_slots + 7) / 8 * 8; }

/// The x-update launch: num_branches * ceil(|slots| / kBranchLanes) branch
/// blocks followed by |slots| * num_gens generator blocks. A branch block
/// solves its branch for every scenario of its group in lockstep
/// (admm::branch_update_lanes); each lane runs the exact scalar operation
/// sequence, so results are bit-identical to one block per (scenario,
/// branch). A one-slot group runs the one-lane solver.
///
/// `lanes` provides one reusable TRON workspace per device lane (resized
/// and options-bound on first use). Each call accumulates the lanes' work
/// into `stats` (when non-null) and clears the lane counters.
///
/// `slot_tron` (optional, for convergence telemetry): when non-empty it
/// must hold dev.workers() rows of `row_stride` entries, the residual
/// partials' shape; each lane adds the TRON iterations it spent on slot j
/// into its own row, and the caller sums over lanes (sums are order-free,
/// so attribution is exact). Recording is observation-only.
void update_x(device::Device& dev, const ModelView& m, const AdmmParams& params,
              std::span<const ScenarioView> views, std::span<const int> slots,
              std::vector<BranchWorkspace>& lanes, BranchUpdateStats* stats,
              std::span<std::uint64_t> slot_tron = {}, int row_stride = 0);

/// The v-update launch: |slots| * num_buses blocks, each a bus update
/// followed by the z/y update of the bus's pairs. Accumulates the
/// penalty-normalized dual residual max |v - v_prev| into `partial_dual`,
/// ||u - v + z||_inf into `partial_primal` and ||z||_inf into `partial_z`
/// (all reset on entry). When `two_level` is false, z stays frozen
/// (one-level ADMM).
void update_v(device::Device& dev, const ModelView& m, bool two_level,
              std::span<const ScenarioView> views, std::span<const int> slots,
              std::span<double> partial_primal, std::span<double> partial_dual,
              std::span<double> partial_z, int row_stride);

/// Outer multiplier update lambda <- clamp(lambda + beta z) (projection
/// (8)): |slots| * num_pairs blocks.
void update_outer_multiplier(device::Device& dev, const ModelView& m,
                             std::span<const ScenarioView> views, std::span<const int> slots,
                             double lambda_bound);

}  // namespace gridadmm::admm
