// BatchAdmmSolver: solves every scenario of a ScenarioSet concurrently with
// fused kernels, on one device or sharded across a DevicePool.
//
// The engine is split into an explicit plan/execute pipeline. A BatchPlan
// partitions the scenario slots into shard ranges (deterministic
// round-robin of chain roots over the pool's devices; chained scenarios
// follow their parent so period-to-period chaining stays on one device).
// Each shard owns a scenario-major BatchAdmmState on its own device and
// executes the fused step launches over its local slots — shards run
// concurrently, one thread per shard, with no kernel-level changes. Every
// scenario drives its own admm::LoopControl, the controller AdmmSolver::solve
// drives (inexact inner tolerance schedule, outer augmented-Lagrangian
// transitions, beta escalation, convergence tests, non-finite trap). Its
// decisions are local to one scenario, so the sharded solve is
// iterate-for-iterate identical to the single-device fused solve — and both
// to S independent AdmmSolver runs (asserted by tests/test_batch_admm.cpp
// for 1/2/4 shards). Host-side residual collection happens per (shard,
// scenario) and merges into one per-scenario report.
//
// Each fused step is two launches per shard (admm/step_kernels.hpp): the
// x-update over branches x groups of kBranchLanes active scenarios (solved
// in lockstep) plus active-scenarios x generators, and the v-update over
// active-scenarios x buses, each bus block also updating z and y of the
// pairs it owns. The launch count per step is constant in S and per-shard
// *block* counts scale as ~S/D — the ExaTron one-block-per-subproblem
// execution model widened across scenarios and then dealt across devices.
//
// Warm-start seeding: with `warm_start_from_base` the base case is solved
// once and its full iterate fans out to every chain-root scenario; tracking
// sequences chain period-to-period on device (state copy + ramp-bound
// kernels), wave by wave. With `ping_pong`, chained waves run in a
// two-buffer ping-pong pair per shard and live batch-state memory stays
// constant in the horizon length (see scenario/batch_plan.hpp).
#pragma once

#include <span>
#include <vector>

#include "admm/batch_state.hpp"
#include "admm/loop_control.hpp"
#include "admm/params.hpp"
#include "admm/solver.hpp"
#include "admm/warm_start.hpp"
#include "device/device.hpp"
#include "device/pool.hpp"
#include "grid/solution.hpp"
#include "scenario/batch_plan.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::scenario {

struct BatchSolveOptions {
  /// Solve the unmodified base case first (sequentially) and fan its full
  /// iterate out to every chain-root scenario as a warm start.
  bool warm_start_from_base = false;
  /// Record per-iteration residual histories in the per-scenario stats.
  bool record_history = false;
  /// Externally-supplied initial iterates, one slot per scenario (empty =
  /// none; null entries cold start). A non-null entry seeds that scenario's
  /// full iterate — including beta, with prepare_warm_start semantics —
  /// before the solve; it overrides warm_start_from_base for
  /// that slot. Chained scenarios cannot take one (the chain copy would
  /// overwrite it). This is the serve layer's cache-hit entry point.
  std::vector<const admm::WarmStartIterate*> initial_iterates;
  /// Enables the process-wide obs::Tracer for this solve (idempotent; the
  /// tracer stays on afterwards — it is process state, like GRIDADMM_TRACE).
  /// Tracing only observes the loop (spans share the PhaseBreakdown's
  /// clock reads), so iterates are bit-identical with it on or off.
  bool trace = false;
  /// Sample each scenario's convergence state (primal/dual residual, beta,
  /// cumulative branch TRON iterations) every this many
  /// fused steps into ScenarioReport::convergence; the final state is
  /// always appended at retirement. 0 disables sampling (and the report's
  /// convergence vector stays empty). Sampling is observation-only:
  /// iterates are bit-identical with it on or off.
  int convergence_sample_interval = 0;
  /// Two-buffer wave memory for chained sets: each shard allocates a pair
  /// of max-wave-size states instead of one O(S) state; wave d + 1 chains
  /// on device from wave d's buffer and reuses wave d - 1's. Live
  /// batch-state memory is constant in the horizon length. Per-wave
  /// results are captured at wave end, so solution()/solutions() stay
  /// valid; export_iterate() only for the last two waves (earlier iterates
  /// have been overwritten by design).
  bool ping_pong = false;
};

class BatchAdmmSolver {
 public:
  /// Single-device engine: copies the set's network and scenarios; `dev`
  /// defaults to the process-wide device.
  BatchAdmmSolver(const ScenarioSet& set, admm::AdmmParams params,
                  device::Device* dev = nullptr);
  /// Sharded engine: scenarios are partitioned across the pool's devices
  /// by a deterministic BatchPlan and solved concurrently, one shard per
  /// device. Results are iterate-for-iterate identical to the
  /// single-device solve. The pool must outlive the solver.
  BatchAdmmSolver(const ScenarioSet& set, admm::AdmmParams params, device::DevicePool& pool);
  // Non-copyable/movable: the cached ScenarioViews alias this instance's
  // device buffers.
  BatchAdmmSolver(const BatchAdmmSolver&) = delete;
  BatchAdmmSolver& operator=(const BatchAdmmSolver&) = delete;

  /// Solves every scenario (fused, wave by wave along warm-start chains).
  ScenarioReport solve(const BatchSolveOptions& options = {});

  /// Extracts scenario s's solution (valid after solve()). Downloads only
  /// scenario s's contiguous slices (4 transfers of one scenario's data, not
  /// the whole batch); extracting every scenario is still cheaper via
  /// solutions(), which amortizes one full download per buffer. In
  /// ping-pong mode returns the copy captured at the scenario's wave end
  /// (no transfer).
  [[nodiscard]] grid::OpfSolution solution(int s) const;

  /// Snapshots scenario s's full iterate (slice downloads only) as a
  /// portable WarmStartIterate — what the serve layer's SolutionCache
  /// stores after a batch completes. In ping-pong mode only scenarios of
  /// the last two waves are still resident; earlier ones throw.
  [[nodiscard]] admm::WarmStartIterate export_iterate(int s) const;

  /// Extracts every scenario's solution with one download per buffer.
  [[nodiscard]] std::vector<grid::OpfSolution> solutions() const;

  [[nodiscard]] const grid::Network& network() const { return net_; }
  [[nodiscard]] const admm::ComponentModel& model() const { return model_; }
  [[nodiscard]] const std::vector<Scenario>& scenarios() const { return scenarios_; }
  [[nodiscard]] int num_scenarios() const { return static_cast<int>(scenarios_.size()); }
  [[nodiscard]] const admm::AdmmParams& params() const { return params_; }
  [[nodiscard]] int num_shards() const { return static_cast<int>(devs_.size()); }
  /// The execution plan (valid after solve()).
  [[nodiscard]] const BatchPlan& plan() const { return plan_; }

 private:
  /// One shard's execution context: its device, its state buffer(s) (one,
  /// or a ping-pong pair), and per-lane scratch. Shards touch disjoint
  /// scenarios, so they run concurrently without synchronization.
  struct Shard {
    device::Device* dev = nullptr;
    std::vector<admm::BatchAdmmState> states;            ///< 1, or 2 in ping-pong
    std::vector<std::vector<admm::ScenarioView>> views;  ///< [buffer][slot]
    std::vector<admm::BranchWorkspace> branch_lanes;     ///< reused across fused steps
    admm::BranchUpdateStats branch_stats;
    /// Per-(lane, slot) TRON-iteration partial rows for convergence
    /// sampling, same shape as the residual partials; reused across steps
    /// and empty while sampling is off.
    device::AlignedVector<std::uint64_t> tron_partial;
    PhaseBreakdown phases;       ///< per-phase wall time of this shard's loop
    std::uint64_t fused_steps = 0;  ///< while-loop iterations executed
  };

  void ensure_storage(bool ping_pong);
  [[nodiscard]] int buffer_of(int s) const {
    return plan_.ping_pong ? plan_.wave_of[static_cast<std::size_t>(s)] % 2 : 0;
  }
  /// Solves the unmodified base case and exports its full iterate — the
  /// same shape the cache warm start uses, so both seeds share one
  /// staging path.
  admm::WarmStartIterate solve_base(ScenarioReport& report);
  /// Stages `globals` into shard buffer `buf` (cold template, optional
  /// base fan-out / initial iterates, scenario problem data) and uploads.
  void stage_buffer(Shard& shard, int buf, std::span<const int> globals,
                    const admm::WarmStartIterate* base, const BatchSolveOptions& options);
  /// Chains, ramps, and runs the fused loop for one shard's slice of wave
  /// `wave_index`. Runs concurrently across shards.
  void run_shard_wave(int shard_id, int wave_index, const BatchSolveOptions& options);
  void run_fused(Shard& shard, int buf, std::span<const int> wave,
                 const BatchSolveOptions& options);
  /// Downloads one shard buffer and fills records (and, in ping-pong mode,
  /// the captured per-scenario solutions).
  void evaluate_shard(int shard_id, int buf, std::span<const int> globals,
                      ScenarioReport& report, grid::Network& eval_net, bool capture);
  void set_beta(int s, double value);

  grid::Network net_;
  admm::AdmmParams params_;
  std::vector<device::Device*> devs_;  ///< one per shard
  std::vector<Scenario> scenarios_;
  std::vector<std::vector<int>> waves_;
  admm::ComponentModel model_;
  admm::ModelView mview_;
  admm::ColdStartTemplate cold_;   ///< shared cold-start template (host)
  BatchPlan plan_;
  std::vector<Shard> shards_;
  bool storage_ready_ = false;
  bool solved_ = false;
  /// Per-scenario loop controller and stats; termination is expressed by
  /// dropping the scenario from the next fused step's active list.
  std::vector<admm::LoopControl> ctrl_;
  std::vector<double> beta_;  ///< per-scenario outer penalty (host truth)
  std::vector<grid::OpfSolution> pp_solutions_;  ///< per-wave captures (ping-pong)
  /// Convergence sampling state (empty unless
  /// options.convergence_sample_interval > 0): per-scenario trajectories
  /// and cumulative branch TRON iterations. Shards own disjoint scenarios,
  /// so concurrent shard threads write disjoint entries.
  std::vector<obs::ConvergenceTrajectory> traj_;
  std::vector<std::uint64_t> tron_accum_;
};

/// Batch params with one scenario's ScenarioControls overrides applied.
/// Shared by the batch engine and the sequential reference so heterogeneous
/// batches resolve overrides identically in both.
admm::AdmmParams effective_params(const admm::AdmmParams& base, const ScenarioControls& controls);

/// Reference implementation: solves the set scenario-by-scenario with
/// independent AdmmSolver instances (chained scenarios warm start from a
/// copy of their parent's solver; contingencies solve the reduced network).
/// Used by tests and benchmarks as the ground truth the batch engine must
/// match.
ScenarioReport solve_sequential(const ScenarioSet& set, const admm::AdmmParams& params,
                                device::Device* dev = nullptr);

}  // namespace gridadmm::scenario
