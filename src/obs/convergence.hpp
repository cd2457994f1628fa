// Per-scenario convergence telemetry: knob-gated residual/penalty/TRON-work
// trajectories sampled every K fused steps of a batch solve, plus the
// non-convergence detector the planned engine router (ROADMAP item 5)
// escalates on.
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

/// Escalation policy for should_escalate(). Defaults flag scenarios whose
/// primal residual failed to shrink by min_decay across the trailing
/// stall_window_fraction of the trajectory.
struct EscalationPolicy {
  double stall_window_fraction = 0.5;
  /// The trailing window must end below min_decay x its starting primal
  /// residual to count as "still making progress".
  double min_decay = 0.5;
};

/// The router signal: true when the scenario should be escalated to a more
/// robust engine (the batched IPM of ROADMAP item 5). A converged scenario
/// never escalates; an unconverged one escalates when its trajectory shows
/// a residual stall (or carries too few samples to argue otherwise).
inline bool should_escalate(const ConvergenceTrajectory& trajectory,
                            const EscalationPolicy& policy = {}) {
  if (trajectory.converged) return false;
  const auto& samples = trajectory.samples;
  if (samples.size() < 2) return true;  // no trajectory evidence: escalate
  const double fraction = policy.stall_window_fraction <= 0.0   ? 1.0
                          : policy.stall_window_fraction >= 1.0 ? 0.0
                                                                : 1.0 - policy.stall_window_fraction;
  const auto window_start =
      static_cast<std::size_t>(fraction * static_cast<double>(samples.size() - 1));
  const double before = samples[window_start].primal_residual;
  const double last = samples.back().primal_residual;
  // Stalled (or diverging) when the window did not decay the residual.
  return !(last < policy.min_decay * before);
}

/// Scenario indices flagged by should_escalate over a whole report's
/// trajectories — what the engine router would hand to the second engine.
inline std::vector<int> escalation_candidates(
    const std::vector<ConvergenceTrajectory>& trajectories,
    const EscalationPolicy& policy = {}) {
  std::vector<int> out;
  for (const auto& trajectory : trajectories) {
    if (should_escalate(trajectory, policy)) out.push_back(trajectory.scenario);
  }
  return out;
}

}  // namespace gridadmm::obs
