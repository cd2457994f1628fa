// MiniIPM as a per-scenario engine — the escalation ladder's last rung.
//
// The batch ADMM path (BatchAdmmSolver, the serve dispatcher) is fast but
// trades robustness for speed: rate-tight contingencies and stressed load
// profiles can stall below tolerance at any iteration budget. This wrapper
// turns src/ipm/ into a drop-in second engine for exactly those scenarios:
// it rebuilds the scenario's topology (N-1 outage) and loads as an
// AcopfNlp, solves it cold (DESIGN.md §13 says why no ADMM seed), and
// converts non-optimal IpmStatus values into typed errors so callers
// never mistake a stalled fallback for a served answer.
//
// Used by the serve router (SolveService engine_fallback) and directly from
// the scenario/tracking path, where a period that defeats ADMM can be
// re-solved by the IPM while keeping the warm-start chain intact.
#pragma once

#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "ipm/ipm_solver.hpp"
#include "scenario/scenario.hpp"

namespace gridadmm::scenario {

struct IpmEngineOptions {
  IpmEngineOptions() { ipm.max_iterations = 500; }

  /// Underlying solver options. Defaults match IpmOptions except
  /// max_iterations, raised to 500. Cold rescues took at most 36 iterations
  /// on the 315-request serve trial (case9/14/30, DESIGN.md §13) but 196 on
  /// 1354pegase, close to IpmOptions' 300, and larger grids need more; the
  /// cap only ends a solve that is not converging. ipm.max_wall_seconds
  /// bounds the solve by wall time; the serve router sizes it from the
  /// request deadline.
  ipm::IpmOptions ipm;
};

struct IpmEngineResult {
  grid::OpfSolution solution;      ///< converged scenario solution
  ipm::IpmResult ipm;              ///< raw solver result (status kOptimal)
  grid::SolutionQuality quality;   ///< evaluated on the scenario's network
};

/// Solves one scenario with the MiniIPM engine. `base` is the full-topology
/// network the scenario indexes into; the outage branch (if any) is removed
/// and the scenario's loads applied before the NLP is built, which is then
/// solved from its own initial point.
///
/// Returns only on IpmStatus::kOptimal. Every other status throws
/// ConvergenceError carrying the status name and final diagnostics;
/// NumericalError (non-finite iterate) propagates from the solver.
IpmEngineResult solve_scenario_ipm(const grid::Network& base, const Scenario& sc,
                                   const IpmEngineOptions& options = {});

}  // namespace gridadmm::scenario
