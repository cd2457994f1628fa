// Portable full-iterate snapshot for warm starting.
//
// The paper's tracking result rests on reusing the *entire* ADMM iterate —
// primal values and every multiplier — across solves of nearby instances.
// WarmStartIterate packages that iterate as plain host arrays so it can
// move between solvers, into the serve layer's SolutionCache, and across
// batch slots. Both solvers export through BatchAdmmState::export_slot
// (AdmmSolver's one slot, or one scenario of a batch);
// AdmmSolver::import_iterate and BatchSolveOptions::initial_iterates seed
// slots from previously exported iterates.
#pragma once

#include <span>
#include <vector>

#include "admm/component_model.hpp"

namespace gridadmm::grid {
struct Network;
struct OpfSolution;
}  // namespace gridadmm::grid

namespace gridadmm::admm {

struct WarmStartIterate {
  // Consensus pairs and multipliers (num_pairs each).
  std::vector<double> u, v, z, y, lz;
  // Component variables.
  std::vector<double> bus_w, bus_theta;        ///< num_buses each
  std::vector<double> gen_pg, gen_qg;          ///< num_gens each
  std::vector<double> branch_x;                ///< 4 * num_branches
  std::vector<double> branch_s;                ///< 2 * num_branches
  std::vector<double> branch_lambda;           ///< 2 * num_branches
  // Outer penalty the iterate was produced under. Importers keep it: the
  // outer multiplier lz was accumulated against it, and re-basing it
  // measurably slows the warm start (see AdmmSolver::prepare_warm_start).
  // The per-pair penalties are model data and are not carried.
  double beta = 0.0;                           ///< outer penalty on z = 0

  /// True when every array length matches `model`'s dimensions.
  [[nodiscard]] bool matches(const ComponentModel& model) const;
};

/// Throws ValidationError unless `it.matches(model)`.
void require_matches(const WarmStartIterate& it, const ComponentModel& model,
                     const char* where);

/// The one map from a scenario's bus and generator variables (host copies
/// of one slot) to the solution the paper reports: vm = sqrt(max(w,
/// 1e-12)), va = theta - theta[ref], dispatch as is. AdmmSolver::solution
/// and the batch engine's per-wave capture both run it. Throws
/// ValidationError on a size mismatch with `net`.
[[nodiscard]] grid::OpfSolution to_solution(const grid::Network& net, std::span<const double> w,
                                            std::span<const double> theta,
                                            std::span<const double> pg,
                                            std::span<const double> qg);

}  // namespace gridadmm::admm
