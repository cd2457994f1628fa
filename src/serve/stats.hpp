// Service telemetry: a value snapshot of queue, batching, cache, and latency
// behavior. SolveService::stats() derives it from the service's metrics
// registry (the one store of its counters and histograms), the cache's own
// counters, and the queues' state, so every registry-backed field equals its
// series. A request's facts are in it once the request's future is ready.
#pragma once

#include <cstdint>
#include <vector>

#include "device/device.hpp"

namespace gridadmm::serve {

/// Per-device attribution when the service routes micro-batches across a
/// DevicePool: how many batches/requests each shard served, what it is
/// solving right now, and the kernel launches its device issued.
struct ShardServiceStats {
  std::uint64_t batches = 0;   ///< micro-batches this shard solved
  std::uint64_t requests = 0;  ///< requests across those batches
  int in_flight = 0;           ///< requests inside this shard's current solve
  device::LaunchStats launch_stats;  ///< launches on this shard's device

  // ---- Circuit-breaker health (DESIGN.md §12) ----
  int state = 0;                     ///< 0 healthy, 1 quarantined, 2 half-open
  int consecutive_failures = 0;      ///< transient attempt failures since last success
  std::uint64_t quarantines = 0;     ///< times this shard was tripped into quarantine
};

struct ServiceStats {
  // ---- Admission ----
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t shed = 0;       ///< capacity sheds (queue full, CapacityError)
  /// Sheds because the service was draining/shutting down (also
  /// CapacityError). Split from `shed` so the SLO shed-rate burn judges
  /// only genuine capacity pressure, not intentional teardown.
  std::uint64_t drain_shed = 0;
  /// Requests shed with DeadlineError: expired on arrival or at dispatch
  /// pickup, before burning solver time. Not a capacity signal.
  std::uint64_t deadline_shed = 0;
  std::uint64_t completed = 0;  ///< futures fulfilled with a result
  std::uint64_t failed = 0;     ///< futures fulfilled with an exception
  int queue_depth = 0;          ///< undispatched requests at snapshot time
  int dispatch_backlog = 0;     ///< requests in popped batches awaiting an idle device
  int in_flight = 0;            ///< requests inside batch solves (all shards)

  // ---- Fault tolerance (DESIGN.md §12) ----
  /// Fused-solve re-attempts beyond each micro-batch group's first try:
  /// transient-error retries, poison-bisection halves, half-open probes.
  std::uint64_t retries = 0;
  /// Permanent-failure splits performed to isolate poison requests.
  std::uint64_t bisections = 0;
  /// Degraded-mode solo retries of should_escalate-flagged non-converged
  /// requests, and how many of those converged on the boosted budget.
  std::uint64_t escalation_retries = 0;
  std::uint64_t escalation_recovered = 0;
  /// Shard circuit-breaker state changes (healthy -> quarantined ->
  /// half-open -> ...), summed over all shards.
  std::uint64_t quarantine_transitions = 0;

  // ---- Engine router (DESIGN.md §13) ----
  /// Engine split of `completed`: which escalation-ladder rung produced
  /// each fulfilled result. Invariant: completed == completed_admm +
  /// completed_escalated_admm + completed_ipm, always — a rescue that
  /// misses its deadline or fails is a shed/failure, never a completion.
  std::uint64_t completed_admm = 0;
  std::uint64_t completed_escalated_admm = 0;
  std::uint64_t completed_ipm = 0;  ///< IPM rescues (a.k.a. ipm_rescues)
  /// MiniIPM fallback re-solves started, and how many ended in a typed
  /// ConvergenceError/NumericalError on the future (counted in `failed`).
  std::uint64_t ipm_attempts = 0;
  std::uint64_t ipm_failures = 0;

  // ---- Batching ----
  std::uint64_t batches = 0;  ///< dispatched micro-batches
  /// Requests across those batches: the serve_batch_occupancy histogram's
  /// sum (exact), so batched_requests / batches is the mean occupancy.
  std::uint64_t batched_requests = 0;

  // ---- Warm-start cache ----
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;  ///< entries resident at snapshot time

  // ---- Device attribution (the service owns its DevicePool) ----
  device::LaunchStats launch_stats;  ///< launches across all batch solves (all shards)
  /// One entry per pool device; batches/requests/launches sum to the
  /// aggregate figures above.
  std::vector<ShardServiceStats> per_shard;

  // ---- Latency (injected-clock seconds, submit -> future fulfilled) ----
  /// The serve_latency_seconds histogram's count and quantiles. The
  /// quantiles are bucketed (bucket bounds grow by 2x) and interpolated
  /// within the bucket that holds them, biased to its upper bound: a lone
  /// sample reads as that bound.
  std::uint64_t latency_samples = 0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;  ///< tail percentile the serving SLOs are stated in

  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }

  [[nodiscard]] double mean_batch_occupancy() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) / static_cast<double>(batches);
  }
};

}  // namespace gridadmm::serve
