// Deterministic fault injection at the Device layer.
//
// Real GPU serving fleets see transient launch failures (ECC retries, Xid
// errors), latency spikes (thermal throttling, preemption), and allocation
// failures (fragmentation) — and the paper's real-time tracking workload is
// exactly the kind of reliability context where those must degrade, not
// cascade. This sandbox has no real faults, so this module injects them:
// a knob/env-gated (`GRIDADMM_FAULTS=spec`), deterministically seeded fault
// plan that throws TransientDeviceError from Device::run_job, sleeps inside
// launches, or fails DeviceBuffer growth, so the serve layer's retry /
// bisection / quarantine machinery (DESIGN.md §12) can be exercised and
// tested reproducibly.
//
// Overhead discipline matches the tracer idiom: every hook site is guarded
// by `if (FaultInjector::enabled())` — one relaxed atomic load — so the
// disabled path costs nothing and solves are bit-identical with the module
// compiled in.
//
// Spec grammar (semicolon-separated key=value, e.g.
// `GRIDADMM_FAULTS="seed=42;launch=0.02;cooldown=2000;latency=0.01:2ms"`):
//   seed=N          deterministic decision seed (default 1)
//   launch=P        per-launch transient-failure probability in [0, 1]
//   latency=P:DUR   per-launch latency-spike probability and duration
//                   (DUR accepts s/ms/us suffixes, default seconds)
//   alloc=P         per-allocation transient-failure probability
//   shard=D         only inject on the device with trace id D (-1 = all)
//   warmup=N        skip the first N intercepted events entirely
//   cooldown=N      after each injected fault, skip the next N events —
//                   faults are rare bursts, so a retried solve can succeed
//   limit=K         stop injecting after K faults total (0 = unlimited)
// N, K and D are decimal integers and P a decimal number; each value must
// parse in full ("0.5x", "0x10" and "1e3" as a count are rejected).
//
// Decisions are pure functions of (seed, event index): the k-th intercepted
// event draws from a splitmix64 stream, so a fixed plan yields the same
// fault sequence on every run regardless of wall-clock timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace gridadmm::device {

/// One deterministic fault plan (see the spec grammar above).
struct FaultPlan {
  std::uint64_t seed = 1;
  double launch_fail_probability = 0.0;
  double latency_spike_probability = 0.0;
  double latency_spike_seconds = 0.0;
  double alloc_fail_probability = 0.0;
  int shard = -1;              ///< only inject on this device trace id; -1 = all
  std::uint64_t warmup = 0;    ///< intercepted events skipped before any injection
  std::uint64_t cooldown = 0;  ///< events skipped after each injected fault
  std::uint64_t limit = 0;     ///< total injected-fault cap; 0 = unlimited

  [[nodiscard]] bool any_fault() const {
    return launch_fail_probability > 0.0 || latency_spike_probability > 0.0 ||
           alloc_fail_probability > 0.0;
  }
};

/// Counters of what the injector actually did (test/bench assertions).
struct FaultCounters {
  std::uint64_t events_seen = 0;      ///< intercepted launch/alloc events
  std::uint64_t launch_failures = 0;  ///< TransientDeviceErrors thrown from launches
  std::uint64_t latency_spikes = 0;   ///< injected sleeps
  std::uint64_t alloc_failures = 0;   ///< TransientDeviceErrors thrown from allocations
};

/// Process-wide injector. Device::run_job and DeviceBuffer growth call the
/// on_* hooks behind the `enabled()` relaxed-load gate; when a hook decides
/// to inject, it throws TransientDeviceError or sleeps. configure()/disable()
/// are the programmatic knobs (tests, bench --faults); the GRIDADMM_FAULTS
/// environment variable arms the injector at process start.
class FaultInjector {
 public:
  static FaultInjector& instance();
  /// The zero-overhead gate: one relaxed atomic load when disabled.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Parses the spec grammar documented above; throws ValidationError on
  /// unknown keys, values that do not parse in full, or out-of-range values.
  static FaultPlan parse_spec(const std::string& spec);

  /// Installs `plan` and arms the injector (resets event/fault counters).
  void configure(const FaultPlan& plan);
  /// Disarms the injector; hooks return to the one-load fast path.
  void disable();

  [[nodiscard]] FaultCounters counters() const;
  [[nodiscard]] FaultPlan plan() const;

  /// Launch interception point (called by Device::run_job when enabled).
  /// May throw TransientDeviceError or sleep for the plan's spike duration.
  void on_launch(int device_id);
  /// Allocation interception point (called by DeviceBuffer growth when
  /// enabled). May throw TransientDeviceError. The shard filter does not
  /// apply: buffers are not bound to a device.
  void on_alloc(std::uint64_t bytes);

 private:
  FaultInjector() = default;

  enum class Action { kNone, kSpike, kFail };
  /// Decides the k-th event's fate under mu_; pure in (seed, k, stream).
  Action decide_locked(std::uint64_t k, double fail_p, double spike_p);

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  FaultPlan plan_;
  FaultCounters counters_;
  std::uint64_t cooldown_remaining_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace gridadmm::device
