// Branch component update: the bound-constrained nonconvex subproblem of
// paper eq. (4).
//
// Variables are chi = (vi, vj, thi, thj) plus two line-limit slacks
// (sij, sji) when the branch is rated. Flow variables pij/qij/pji/qji are
// substituted by their closed forms (1i)-(1l), the consensus terms are
// quadratic penalties, and the line limits p^2+q^2+s = 0 (s in [-rate^2, 0])
// are handled by a LANCELOT-style augmented Lagrangian whose multipliers
// persist across ADMM iterations (warm start). Each subproblem is solved by
// lockstep TRON (tron/lockstep_tron.hpp): a device block solves one branch
// for a group of up to W scenario lanes together, the ExaTron thread-block
// model of paper Section III-B with scenarios in the SIMD lanes. The
// x-update launch (admm/step_kernels.hpp) runs W = 1 for a one-scenario
// group and W = kBranchLanes otherwise. See admm/branch_problem.hpp for the
// problem and per-lane workspace types.
#pragma once

#include <span>
#include <vector>

#include "admm/branch_problem.hpp"
#include "admm/kernels_core.hpp"
#include "admm/params.hpp"

namespace gridadmm::admm {

/// Solves the branch-l subproblem against each of up to W scenario
/// iterates (`lanes[j]` is lane j's view) in lockstep: the full TRON (+
/// LANCELOT augmented-Lagrangian when rated) solve of one device block.
/// Lanes whose scenario has the branch out of service are masked off. If
/// `lane_tron` is non-null, lane_tron[j] receives the TRON iterations lane
/// j spent. Work counters accumulate into ws.stats. Instantiated for W = 1
/// and W = kBranchLanes.
template <int W>
void branch_update_lanes(const ModelView& m, const AdmmParams& params,
                         std::span<const ScenarioView* const> lanes, int l, BranchWorkspace& ws,
                         int* lane_tron = nullptr);

extern template void branch_update_lanes<1>(const ModelView&, const AdmmParams&,
                                            std::span<const ScenarioView* const>, int,
                                            BranchWorkspace&, int*);
extern template void branch_update_lanes<kBranchLanes>(const ModelView&, const AdmmParams&,
                                                       std::span<const ScenarioView* const>, int,
                                                       BranchWorkspace&, int*);

/// Sizes `lanes` to one workspace per device lane and rebinds the TRON
/// options, which may have changed between solves. When the size already
/// matches — every call after the first, since a state's lanes always
/// serve the same device — the workspaces are reused untouched; a lane-
/// count change reconstructs the vector.
void ensure_branch_lanes(std::vector<BranchWorkspace>& lanes, int workers,
                         const AdmmParams& params);

}  // namespace gridadmm::admm
