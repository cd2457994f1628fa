// Request/response types of the solve service.
//
// A SolveRequest is one ACOPF instance phrased the way a serving client
// thinks: "this case, these loads, maybe this outage, this accuracy". The
// service coalesces concurrently-pending requests into fused micro-batches
// (scenario/BatchAdmmSolver) and fulfills each request's future with a
// SolveResult carrying the solution, solver stats, and serving metadata.
#pragma once

#include <memory>
#include <vector>

#include "admm/solver.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "obs/convergence.hpp"
#include "scenario/scenario.hpp"
#include "serve/timeline.hpp"

namespace gridadmm::serve {

struct SolveRequest {
  /// Case to solve. Null = the service's base network. Requests against
  /// different networks are batched separately (grouped by structural
  /// fingerprint), so one service can front several cases.
  std::shared_ptr<const grid::Network> network;

  /// Per-bus loads in per-unit (full vectors). Empty = the case's own loads.
  std::vector<double> pd, qd;

  /// N-1 contingency: index of the dropped branch (-1 = full topology).
  int outage_branch = -1;

  /// Heterogeneous per-request termination overrides (default: inherit the
  /// service's AdmmParams).
  scenario::ScenarioControls controls;

  /// Opt out of the warm-start cache for this request (no lookup, no
  /// insertion) — e.g. for a calibration solve that must be cold.
  bool bypass_cache = false;

  /// Absolute deadline in seconds on the service's injected clock
  /// (Clock::now() timebase); <= 0 = no deadline. Enforced twice: at
  /// admission (an already-expired request is rejected synchronously) and
  /// at dispatch pickup (a request that expired while queued is shed with
  /// DeadlineError before burning solver time). A real-time tracking client
  /// has no use for a solution that arrives after its control interval.
  double deadline = 0.0;
};

/// Which rung of the engine ladder produced a result's final solution
/// (DESIGN.md §13). Every request starts on the fused batch ADMM; with the
/// router enabled, a slot it leaves non-converged is handed to the
/// cold-started MiniIPM fallback.
enum class SolveEngine {
  kAdmm = 0,  ///< fused batch ADMM (first rung)
  kIpm = 1,   ///< cold-started MiniIPM fallback (last rung)
};
inline constexpr int kSolveEngineCount = 2;

/// Stable engine label ("admm", "ipm") for metric names, bench fields, and
/// logs.
inline const char* engine_name(SolveEngine engine) {
  switch (engine) {
    case SolveEngine::kAdmm: return "admm";
    case SolveEngine::kIpm: return "ipm";
  }
  return "unknown";
}

struct SolveResult {
  grid::OpfSolution solution;
  admm::AdmmStats stats;      ///< full per-request solver stats
  bool converged = false;
  double objective = 0.0;     ///< generation cost ($/h)
  double max_violation = 0.0; ///< ||c(x)||_inf against the request's network

  // ---- Serving metadata ----
  std::uint64_t batch_id = 0;   ///< which micro-batch served this request
  int batch_occupancy = 0;      ///< how many requests shared that batch
  bool cache_hit = false;       ///< seeded from a cached nearby iterate
  double cache_distance = 0.0;  ///< load distance to the seed (when cache_hit)
  /// Fused-solve attempts the micro-batch group containing this request
  /// took (1 = clean first try; more after transient retries / poison
  /// bisection — see DESIGN.md §12).
  int solve_attempts = 1;
  /// Which ladder rung produced `solution`: kAdmm when the fused batch
  /// attempt was the final answer, kIpm when the MiniIPM fallback
  /// (ServiceOptions::engine_fallback) re-solved it.
  SolveEngine engine = SolveEngine::kAdmm;
  double wait_seconds = 0.0;    ///< submit -> dispatch (injected clock)
  double total_seconds = 0.0;   ///< submit -> future fulfilled (injected clock)
  /// Per-request stage timeline on the trace clock (admit -> queue ->
  /// dispatch -> form -> stage -> solve -> extract -> fulfill), stamped
  /// when ServiceOptions::slo or tracing is on (all-zero otherwise). The
  /// same stamps feed the trace spans, so timeline and trace never drift.
  RequestTimeline timeline;
  /// Sampled convergence trajectory of this request's batch slot, filled
  /// when ServiceOptions::convergence_sample_interval > 0 (empty samples
  /// otherwise): how its residuals moved before the fused solve retired it.
  obs::ConvergenceTrajectory trajectory;
};

}  // namespace gridadmm::serve
