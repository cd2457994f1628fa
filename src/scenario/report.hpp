// Per-scenario convergence/quality records plus batch-level throughput and
// kernel-launch attribution for one multi-scenario solve.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "admm/branch_kernel.hpp"
#include "admm/solver.hpp"
#include "device/device.hpp"
#include "obs/convergence.hpp"
#include "scenario/scenario.hpp"

namespace gridadmm::scenario {

struct ScenarioRecord {
  int index = 0;
  std::string name;
  ScenarioKind kind = ScenarioKind::kBase;
  bool converged = false;
  int outer_iterations = 0;
  int inner_iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double objective = 0.0;      ///< generation cost ($/h)
  double max_violation = 0.0;  ///< ||c(x)||_inf against the scenario's network
  /// Wall time of the fused wave this scenario was solved in. Scenarios in
  /// the same wave share one solve, so this is a shared (not additive)
  /// figure; sum unique waves or use ScenarioReport::solve_seconds.
  double seconds = 0.0;
};

/// Wall time attributed to each phase of the fused iteration loop,
/// accumulated per kernel call. Shards run concurrently, so with D > 1
/// these are CPU-attributed sums across shards (they can exceed the loop's
/// wall time); per phase they remain comparable between runs and are
/// what bench_kernel_breakdown records.
struct PhaseBreakdown {
  /// Always 0: generator blocks run in the x-update (branch_seconds).
  /// Kept because perfbench's screen workload reads it.
  double generator_seconds = 0.0;
  double branch_seconds = 0.0;  ///< x-update launches: TRON branches + generators
  double bus_seconds = 0.0;     ///< v-update launches: buses + z/y of their pairs
  /// Always 0: the z/y update runs in the v-update (bus_seconds). Kept
  /// because perfbench's screen workload reads it.
  double zy_seconds = 0.0;
  /// Host-side per-scenario work between kernels: active-slot packing,
  /// residual max-collection, convergence control flow.
  double residual_seconds = 0.0;
  /// Outer-transition launch: the outer multiplier update.
  double outer_seconds = 0.0;
  /// On-device warm-start chaining: state copy + ramp-bound launches.
  double chain_seconds = 0.0;

  PhaseBreakdown& operator+=(const PhaseBreakdown& other) {
    generator_seconds += other.generator_seconds;
    branch_seconds += other.branch_seconds;
    bus_seconds += other.bus_seconds;
    zy_seconds += other.zy_seconds;
    residual_seconds += other.residual_seconds;
    outer_seconds += other.outer_seconds;
    chain_seconds += other.chain_seconds;
    return *this;
  }
};

struct ScenarioReport {
  std::vector<ScenarioRecord> records;
  std::vector<admm::AdmmStats> stats;  ///< full per-scenario solver stats

  double solve_seconds = 0.0;   ///< wall time of the fused iteration loop
  double total_seconds = 0.0;   ///< including staging, uploads, evaluation
  device::LaunchStats launch_stats;  ///< launches attributed to the solve loop (all shards)
  int num_shards = 1;           ///< devices the solve was sharded across
  /// Per-shard launch attribution (one entry per device; sums to
  /// launch_stats). Per-shard block counts scale as ~S/D.
  std::vector<device::LaunchStats> shard_launches;
  /// Aggregate branch work (batch level), including the lockstep TRON
  /// groups' lane occupancy: branch.lane_utilisation() is live lane-
  /// iterations / (W x group iterations) over the whole solve.
  admm::BranchUpdateStats branch;
  /// Host<->device transfers observed during the fused iteration loop.
  /// Measured against the process-wide transfer counters: exact when one
  /// solve runs at a time (how the zero-copy-loop claim is asserted by
  /// tests); when several solvers run concurrently — e.g. serve-layer
  /// device workers — another solver's staging can fall inside this
  /// window, so treat it as an upper bound there.
  std::uint64_t transfers_during_iterations = 0;
  double base_solve_seconds = 0.0;   ///< warm-start base solve, when requested
  /// Per-phase attribution of the fused loop (summed across shards).
  PhaseBreakdown phases;
  /// Fused steps executed (while-loop iterations, summed across shards and
  /// waves): the denominator for per-iteration phase figures.
  std::uint64_t fused_steps = 0;
  /// Per-scenario convergence trajectories (one entry per scenario, in
  /// scenario order), filled when
  /// BatchSolveOptions::convergence_sample_interval > 0; empty otherwise.
  /// Feed obs::should_escalate to detect non-converging scenarios.
  std::vector<obs::ConvergenceTrajectory> convergence;

  [[nodiscard]] int num_converged() const;
  [[nodiscard]] double scenarios_per_second() const;
  void print(std::FILE* out = stdout) const;
};

}  // namespace gridadmm::scenario
