// Per-scenario convergence telemetry: knob-gated residual/penalty/TRON-work
// trajectories sampled every K fused steps of a batch solve, so a slow or
// non-converged answer can be explained from what the solve emitted.
//
// The batch engine fills one ConvergenceTrajectory per scenario when
// BatchSolveOptions::convergence_sample_interval > 0 (also exposed on
// TrackingOptions and ServiceOptions) and exports them on
// ScenarioReport::convergence. Sampling only observes values the
// fused loop already computes, so solver iterates are bit-identical with
// sampling on or off (asserted by tests/test_obs.cpp).
#pragma once

#include <cstdint>
#include <vector>

namespace gridadmm::obs {

/// One sample of a scenario's convergence state, taken after a fused step.
struct ConvergenceSample {
  int inner_iteration = 0;   ///< scenario's cumulative fused steps so far
  int outer_iteration = 0;   ///< 1-based outer (augmented-Lagrangian) index
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double beta = 0.0;         ///< outer penalty at sample time
  std::uint64_t tron_iterations = 0;  ///< cumulative branch TRON iterations
};

/// One scenario's sampled trajectory across its whole solve. The final
/// state is always appended when the scenario retires, so the last sample
/// reflects termination even when the interval does not divide the
/// iteration count.
struct ConvergenceTrajectory {
  int scenario = -1;
  bool converged = false;
  bool hit_iteration_cap = false;  ///< retired by budget, not by tolerance
  std::vector<ConvergenceSample> samples;
};

}  // namespace gridadmm::obs
