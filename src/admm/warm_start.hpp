// Portable full-iterate snapshot for warm starting.
//
// The paper's tracking result rests on reusing the *entire* ADMM iterate —
// primal values and every multiplier — across solves of nearby instances.
// WarmStartIterate packages that iterate as plain host arrays so it can
// move between solvers, into the serve layer's SolutionCache, and across
// batch slots: AdmmSolver::export_iterate / import_iterate round-trip a
// single solver, BatchAdmmSolver::export_iterate slices one scenario out of
// a batch, and BatchSolveOptions::initial_iterates seeds batch slots from
// previously exported iterates.
#pragma once

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

/// Maps the iterate's bus/generator variables onto an OpfSolution using the
/// same convention as AdmmSolver::solution(): vm = sqrt(max(w, 1e-12)),
/// va = theta - theta[ref]. This is how a (possibly non-converged) ADMM
/// iterate seeds the MiniIPM fallback's primal — the consensus copies and
/// multipliers are deliberately dropped, the IPM has no use for them.
[[nodiscard]] grid::OpfSolution to_solution(const WarmStartIterate& it,
                                            const grid::Network& net);

}  // namespace gridadmm::admm
