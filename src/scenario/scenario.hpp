// A Scenario is one ACOPF instance derived from a base case: a load vector
// plus optional topology (N-1 branch outage) and time-coupling (warm-start
// parent and generator ramp limits) annotations. Scenarios are plain data;
// ScenarioSet generates families of them and BatchAdmmSolver solves them.
#pragma once

#include <string>
#include <vector>

namespace gridadmm::scenario {

enum class ScenarioKind {
  kBase,            ///< the unmodified case
  kLoadScale,       ///< uniformly scaled loads
  kStochasticLoad,  ///< per-bus random load perturbations
  kContingency,     ///< N-1 branch outage at base load
  kTracking,        ///< one period of a time-coupled tracking sequence
};

const char* to_string(ScenarioKind kind);

/// Per-scenario convergence-control overrides, so one batch can mix
/// heterogeneous requests (e.g. a fast approximate screen next to an
/// accurate solve). Negative values inherit the batch-wide AdmmParams; a
/// zero iteration budget or a non-finite tolerance is rejected by
/// require_valid_controls (ScenarioSet::add and SolveService::submit).
/// Only termination knobs are overridable: penalties and branch-subproblem
/// controls shape the shared ComponentModel and stay batch-wide.
struct ScenarioControls {
  double primal_tolerance = -1.0;  ///< final ||u - v + z||_inf target
  double dual_tolerance = -1.0;    ///< final dual residual target
  double outer_tolerance = -1.0;   ///< ||z||_inf target
  int max_inner_iterations = -1;   ///< per outer iteration
  int max_outer_iterations = -1;

  [[nodiscard]] bool any_set() const {
    return primal_tolerance >= 0.0 || dual_tolerance >= 0.0 || outer_tolerance >= 0.0 ||
           max_inner_iterations >= 0 || max_outer_iterations >= 0;
  }
};

/// Throws ValidationError ("<where>: ...") when `controls` carries a
/// non-finite tolerance or a zero iteration budget.
void require_valid_controls(const ScenarioControls& controls, const char* where);

struct Scenario {
  std::string name;
  ScenarioKind kind = ScenarioKind::kBase;

  /// Per-bus loads in per-unit (full vectors, same length as net.buses).
  std::vector<double> pd, qd;

  /// N-1 contingency: index of the dropped branch (-1 = full topology).
  /// Contingency scenarios cannot participate in warm-start chains.
  int outage_branch = -1;

  /// Time coupling: index of the scenario this one warm starts from
  /// (-1 = cold start / base fan-out). Must be an earlier index, and
  /// neither endpoint of a chain may carry a branch outage.
  int chain_from = -1;

  /// Ramp limit versus the parent's dispatch, as a fraction of each
  /// generator's Pmax (0 = unconstrained). Only meaningful with chain_from.
  double ramp_fraction = 0.0;

  /// Bookkeeping for reports: the uniform load multiplier where applicable.
  double load_scale = 1.0;

  /// Heterogeneous per-scenario termination overrides (default: inherit).
  ScenarioControls controls;
};

}  // namespace gridadmm::scenario
