// Cross-thread tracing: spans and instant events into per-thread
// preallocated ring buffers, flushed to Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing).
//
// Design constraints, matching the repo's allocation discipline:
//   - Disabled tracer is near-free: every record path starts with one
//     relaxed atomic load and returns. No thread buffer is ever created
//     while tracing is disabled (asserted by tests/test_obs.cpp with the
//     same construction-counter idiom as the branch-lane checks).
//   - Enabled tracer performs zero steady-state allocations: each thread's
//     ring is preallocated once at its first recorded event and then only
//     overwritten in place. When a ring fills, the oldest events are
//     dropped (counted), never grown.
//   - Timestamps come from the steady clock relative to one process-wide
//     epoch, so spans from different threads (dispatcher, shard workers,
//     device workers) land on one consistent timeline — the same epoch
//     common/log uses for its line prefix, so log lines and trace spans
//     correlate by timestamp and thread label.
//
// Event names and argument names must be string literals (or otherwise
// outlive the tracer): events store the pointers, not copies. Thread ids
// in the output are small monotonic labels (obs::thread_label()), shared
// with the log prefix.
//
// Enablement: Tracer::instance().enable(), or the GRIDADMM_TRACE
// environment variable — "1"/"true"/"yes" enables for the process
// lifetime; any other non-empty value enables AND names a JSON file the
// trace is flushed to at process exit. ServiceOptions/BatchSolveOptions/
// TrackingOptions carry a `trace` knob that enables the process tracer
// (the established layout plumbing pattern).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gridadmm::obs {

/// One fixed-size trace record. `name` and the arg names must be
/// static-lifetime strings; numeric args render into the JSON "args"
/// object.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   ///< steady-clock ns since the trace epoch
  std::uint64_t dur_ns = 0;  ///< span duration ('X' events)
  const char* arg1_name = nullptr;
  std::uint64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::uint64_t arg2 = 0;
  char phase = 'X';  ///< 'X' complete span, 'i' instant, 'C' counter
};

/// Steady-clock nanoseconds since the process trace epoch (the first call
/// in the process). Monotonic and shared by the tracer and the log prefix.
std::uint64_t now_ns();

/// Small monotonic per-thread label (0, 1, 2, ... in first-use order).
/// Independent of the tracer: calling it never allocates a trace buffer,
/// so the (always-on) log prefix can use it while tracing stays off.
std::uint64_t thread_label();

/// Names the calling thread in trace output ("serve.dispatcher",
/// "device.worker", ...). Must be a static-lifetime string. Effective for
/// events recorded before or after the call; cheap enough to call
/// unconditionally at thread start.
void set_thread_name(const char* name);

class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 16;  ///< events/thread

  /// The process-wide tracer. First call reads GRIDADMM_TRACE.
  static Tracer& instance();

  /// True when tracing is on. One relaxed atomic load — the only cost the
  /// disabled tracer adds to any instrumented path.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Turns tracing on (idempotent; ring capacity applies to buffers
  /// created after the call).
  void enable(std::size_t ring_capacity = kDefaultRingCapacity);
  /// Turns tracing off. Buffered events are kept until clear().
  void disable();

  /// Appends one event to the calling thread's ring (creates the ring on
  /// the thread's first event). No-op when disabled.
  void record(const TraceEvent& event);

  /// Process-unique correlation id (requests, batches); starts at 1.
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Serializes every buffered event (all threads, including exited ones)
  /// as one Chrome trace-event JSON object. Thread-safe against concurrent
  /// record().
  [[nodiscard]] std::string to_json() const;

  /// to_json() into a file; returns false (and logs nothing) on I/O error.
  bool write_file(const std::string& path) const;

  /// Drops every buffered event and forgets exited threads' buffers.
  /// Buffers of live threads are emptied but stay allocated.
  void clear();

  /// Events buffered across all threads right now (flush sizing, tests).
  [[nodiscard]] std::size_t event_count() const;
  /// Events dropped to ring wrap-around since the last clear().
  [[nodiscard]] std::uint64_t dropped() const;

  /// Thread ring buffers constructed since process start. The allocation
  /// discipline hook: a disabled tracer must never move this counter
  /// (tests/test_obs.cpp), and an enabled one moves it once per thread.
  static std::uint64_t buffers_created();

 private:
  struct ThreadBuffer;

  Tracer();
  ThreadBuffer& thread_buffer();

  static std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string exit_path_;  ///< GRIDADMM_TRACE file target ("" = none)
};

/// RAII span: captures the start time at construction and records one 'X'
/// event over [construction, destruction) on the calling thread. When
/// tracing is disabled at construction the span is inert (one atomic
/// load). `seconds()` exposes the same measurement, so instrumented code
/// can feed wall-time accumulators from the identical interval the trace
/// shows.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* arg1_name = nullptr, std::uint64_t arg1 = 0,
                     const char* arg2_name = nullptr, std::uint64_t arg2 = 0) {
    if (!Tracer::enabled()) return;
    event_.name = name;
    event_.arg1_name = arg1_name;
    event_.arg1 = arg1;
    event_.arg2_name = arg2_name;
    event_.arg2 = arg2;
    event_.ts_ns = now_ns();
    active_ = true;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (!active_) return;
    event_.dur_ns = now_ns() - event_.ts_ns;
    Tracer::instance().record(event_);
  }

 private:
  TraceEvent event_;
  bool active_ = false;
};

/// Records one instant event ('i') on the calling thread.
inline void instant(const char* name, const char* arg1_name = nullptr, std::uint64_t arg1 = 0,
                    const char* arg2_name = nullptr, std::uint64_t arg2 = 0) {
  if (!Tracer::enabled()) return;
  TraceEvent event;
  event.name = name;
  event.phase = 'i';
  event.ts_ns = now_ns();
  event.arg1_name = arg1_name;
  event.arg1 = arg1;
  event.arg2_name = arg2_name;
  event.arg2 = arg2;
  Tracer::instance().record(event);
}

/// Records a complete span whose interval [start_ns, start_ns + dur) was
/// measured elsewhere — e.g. a request's queue wait, whose start was
/// stamped on the submitting thread and whose end is observed by the
/// dispatcher.
inline void span_between(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                         const char* arg1_name = nullptr, std::uint64_t arg1 = 0,
                         const char* arg2_name = nullptr, std::uint64_t arg2 = 0) {
  if (!Tracer::enabled()) return;
  TraceEvent event;
  event.name = name;
  event.ts_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.arg1_name = arg1_name;
  event.arg1 = arg1;
  event.arg2_name = arg2_name;
  event.arg2 = arg2;
  Tracer::instance().record(event);
}

/// Stopwatch for consecutive phases of one loop: take(name) records a span
/// covering [previous take (or construction), now) and returns its length
/// in seconds. The returned seconds and the emitted span are ONE
/// measurement — the fused-step PhaseBreakdown is fed from the same
/// interval the trace shows, so the two cannot drift (ISSUE 6 tentpole).
/// Works (and costs only the clock read) with tracing disabled.
class PhaseTimer {
 public:
  PhaseTimer() : start_(now_ns()) {}

  void reset() { start_ = now_ns(); }

  /// Seconds since construction/reset/last take; emits the span when
  /// tracing is enabled and advances the phase start to now.
  double take(const char* name, const char* arg1_name = nullptr, std::uint64_t arg1 = 0) {
    const std::uint64_t end = now_ns();
    const std::uint64_t dur = end - start_;
    if (Tracer::enabled()) {
      TraceEvent event;
      event.name = name;
      event.ts_ns = start_;
      event.dur_ns = dur;
      event.arg1_name = arg1_name;
      event.arg1 = arg1;
      Tracer::instance().record(event);
    }
    start_ = end;
    return static_cast<double>(dur) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

}  // namespace gridadmm::obs
