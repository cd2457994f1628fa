// Warm-start tracking driver (paper Section IV-C).
//
// Simulates a 30-period horizon (one minute per period) with an ISO-NE-like
// load profile drifting up to 5%. Period 1 is solved cold; every later
// period warm starts from the previous solution, with generator ramp limits
// |pg_{t+1} - pg_t| <= 2% Pmax applied to both solvers. Produces the series
// of Figures 1-3: per-period solve time, maximum constraint violation, and
// relative objective gap versus the interior-point baseline.
#pragma once

#include <optional>
#include <vector>

#include "admm/batch_state.hpp"
#include "admm/params.hpp"
#include "admm/solver.hpp"
#include "device/device.hpp"
#include "device/pool.hpp"
#include "grid/load_profile.hpp"
#include "grid/network.hpp"
#include "ipm/acopf_nlp.hpp"
#include "ipm/ipm_solver.hpp"
#include "scenario/report.hpp"

namespace gridadmm::opf {

struct TrackingOptions {
  int periods = 30;
  double max_drift = 0.05;      ///< peak load deviation over the horizon
  double ramp_fraction = 0.02;  ///< ramp limit as a fraction of Pmax
  std::uint64_t profile_seed = 7;
  bool run_ipm = true;          ///< also track with the baseline
  ipm::IpmOptions ipm;
  /// Batched mode only: run the horizon in two-wave ping-pong buffers, so
  /// live batch-state memory is O(2 x profiles x case) instead of
  /// O(periods x profiles x case). Results are identical either way.
  bool ping_pong = true;
  /// Batched mode only: batch memory layout of each wave's fused solve
  /// (see scenario::BatchSolveOptions::layout). Interleaved vectorizes the
  /// elementwise kernels across profiles; results are identical either way.
  admm::BatchLayout layout = admm::BatchLayout::kScenarioMajor;
  /// Enables the process-wide obs::Tracer for the run: sequential mode
  /// emits one tracking.period span per period, batched mode traces each
  /// period's fused wave (see scenario::BatchSolveOptions::trace).
  bool trace = false;
  /// Batched mode only: per-scenario convergence sampling interval of the
  /// fused solve (trajectories on BatchTrackingResult::report.convergence,
  /// indexed scenario-major: profile's first_index + period). 0 = off.
  int convergence_sample_interval = 0;
};

struct PeriodRecord {
  int period = 0;
  double load_scale = 1.0;
  // ADMM (warm started after period 1).
  double admm_seconds = 0.0;
  int admm_iterations = 0;
  double admm_objective = 0.0;
  double admm_violation = 0.0;
  bool admm_converged = false;
  // Interior-point baseline.
  double ipm_seconds = 0.0;
  int ipm_iterations = 0;
  double ipm_objective = 0.0;
  double ipm_violation = 0.0;
  bool ipm_converged = false;
  // |f_admm - f_ipm| / f_ipm when the baseline converged.
  double relative_gap = 0.0;
};

class TrackingSimulator {
 public:
  TrackingSimulator(grid::Network net, admm::AdmmParams params, TrackingOptions options,
                    device::Device* dev = nullptr);

  /// Runs the full horizon and returns one record per period.
  std::vector<PeriodRecord> run();

  [[nodiscard]] const std::vector<double>& load_profile() const { return profile_; }

 private:
  grid::Network net_;
  admm::AdmmParams params_;
  TrackingOptions options_;
  device::Device* dev_;
  std::vector<double> profile_;
  std::vector<double> base_pd_, base_qd_;
};

/// Result of tracking several load-profile variants concurrently.
struct BatchTrackingResult {
  /// ADMM period records per profile ([profile][period]; IPM fields zero —
  /// the baseline is not run in batched mode).
  std::vector<std::vector<PeriodRecord>> profiles;
  /// The underlying batch solve report (per-scenario stats, launch counts).
  scenario::ScenarioReport report;
};

/// Batched tracking mode: `num_profiles` jittered variants of the load
/// profile (seeds profile_seed, profile_seed+1, ...) are tracked
/// concurrently. Each period solves all profiles as ONE fused batch on the
/// device, warm started from the previous period with the same ramp limits
/// as the sequential simulator — instead of num_profiles sequential
/// tracking runs. This is the paper's Section IV-C experiment widened
/// across scenarios. By default (TrackingOptions::ping_pong) the periods
/// run through a two-buffer ping-pong pair, so device memory stays
/// constant in the horizon length.
BatchTrackingResult run_batched_tracking(const grid::Network& net,
                                         const admm::AdmmParams& params,
                                         const TrackingOptions& options, int num_profiles,
                                         device::Device* dev = nullptr);

/// Sharded batched tracking: the profiles are dealt round-robin across the
/// pool's devices and each period's fused wave runs concurrently per shard
/// (results identical to the single-device batched mode).
BatchTrackingResult run_batched_tracking(const grid::Network& net,
                                         const admm::AdmmParams& params,
                                         const TrackingOptions& options, int num_profiles,
                                         device::DevicePool& pool);

}  // namespace gridadmm::opf
