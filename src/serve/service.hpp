// Asynchronous ACOPF solve service: request queue -> dynamic micro-batching
// -> fused batch solve -> futures.
//
// Callers submit individual SolveRequests and get std::futures back. A
// background dispatcher thread coalesces concurrently-pending requests into
// fused BatchAdmmSolver micro-batches: it waits up to `batching_window` from
// the moment the oldest pending request arrived for the batch to fill to
// `max_batch_size`, pops the largest same-fingerprint group (requests
// against different cases never share a batch), and solves the group as one
// ScenarioSet. Per-step kernel-launch cost of the fused solve is constant
// in the batch size (PR 1), which is what makes coalescing pay: B requests
// in one batch issue roughly max(iterations) instead of sum(iterations)
// launches.
//
// Warm starting: unless a request bypasses the cache, the dispatcher looks
// its loads up in a SolutionCache (nearest-load-neighbor under the case's
// structural fingerprint) and seeds the batch slot from the cached iterate
// — the paper's tracking warm start applied to serving. Converged results
// are exported back into the cache.
//
// Admission control: the queue is bounded; submit() throws CapacityError
// once `max_queue_depth` requests are pending — pending meaning accepted
// and not yet fulfilled, wherever they sit (main queue, a shard's queue,
// or in flight) — shed-on-arrival, so backpressure reaches the caller
// synchronously and nothing half-accepted lingers. drain() stops admission
// and blocks until every accepted request is fulfilled; the destructor
// drains then joins every thread.
//
// Multi-device routing: the service owns a DevicePool of
// `ServiceOptions::num_devices` devices, one solve worker per device. The
// dispatcher appends each popped micro-batch to a shared dispatch queue
// and the next idle device takes the oldest batch — the least-loaded
// (idle) shard always wins, the pick is work-conserving (no batch ever
// waits behind a busy device while another sits idle), and up to
// num_devices micro-batches solve concurrently instead of serializing
// behind one device. Kernel launches are attributed per shard
// (ServiceStats::per_shard; ServiceStats::launch_stats is their sum), and
// never mix with other solvers' work in process-wide counters.
//
// Telemetry has one store, the service's obs::MetricsRegistry. Each fact is
// recorded once, where it happens, before any future it describes is made
// ready; stats() is a read-only view derived from it (DESIGN.md §5.3).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "admm/params.hpp"
#include "device/device.hpp"
#include "device/pool.hpp"
#include "grid/network.hpp"
#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/watchdog.hpp"
#include "serve/clock.hpp"
#include "serve/request.hpp"
#include "serve/solution_cache.hpp"
#include "serve/stats.hpp"
#include "serve/timeline.hpp"

namespace gridadmm::scenario {
class ScenarioSet;
}

namespace gridadmm::serve {

struct ServiceOptions {
  /// Most requests one micro-batch may coalesce.
  int max_batch_size = 16;
  /// How long the dispatcher waits (from the oldest pending request's
  /// arrival) for a batch to fill before dispatching a partial one.
  double batching_window_seconds = 0.002;
  /// Admission bound: submit() sheds with CapacityError beyond this many
  /// pending requests.
  int max_queue_depth = 256;
  /// Warm-start cache sizing and neighbor distance.
  CacheOptions cache;
  /// Devices in the service-owned pool. Micro-batches are routed to the
  /// least-loaded device, so up to num_devices batches solve concurrently.
  int num_devices = 1;
  /// Worker threads per pool device (0 = hardware concurrency split evenly
  /// across the pool).
  int device_workers = 0;
  /// Telemetry clock (null = steady clock). Scheduling always uses the
  /// steady clock; see serve/clock.hpp.
  std::shared_ptr<const Clock> clock;
  /// Enables the process-wide obs::Tracer at construction, so the request
  /// lifecycle (admit -> queue -> dispatch -> per-shard solve -> fulfill)
  /// lands in the Chrome trace. Equivalent to GRIDADMM_TRACE=1.
  bool trace = false;
  /// Per-scenario convergence sampling interval of the fused micro-batch
  /// solves (see scenario::BatchSolveOptions::convergence_sample_interval);
  /// each SolveResult then carries its slot's trajectory. 0 = off.
  int convergence_sample_interval = 0;

  // ---- Fault tolerance (DESIGN.md §12) ----
  /// Fused-solve re-attempts per micro-batch group when the failure is a
  /// TransientDeviceError (injected or real). Permanent errors never
  /// retry — they bisect (groups) or fail (solo requests) immediately.
  int max_retries = 2;
  /// Exponential backoff between transient retries: attempt k sleeps
  /// base * 2^k plus up to 50% deterministic jitter, capped by
  /// retry_backoff_max_seconds. 0 retries immediately (tests).
  double retry_backoff_seconds = 0.002;
  double retry_backoff_max_seconds = 0.25;
  /// Consecutive transient attempt failures that trip a shard's circuit
  /// breaker into quarantine (successes reset the count).
  int quarantine_threshold = 3;
  /// How long a quarantined shard sits out before taking one half-open
  /// probe batch (steady clock; queued work flows to healthy shards
  /// meanwhile via the shared dispatch queue).
  double quarantine_backoff_seconds = 0.25;
  /// Degraded-mode rung: a non-converged request whose sampled trajectory
  /// obs::should_escalate flags gets one solo re-solve, warm-started from
  /// its failed iterate with the iteration budget multiplied by
  /// escalation_budget_boost. Needs convergence_sample_interval > 0.
  bool escalation_retry = false;
  double escalation_budget_boost = 4.0;

  // ---- Engine router (DESIGN.md §13, ROADMAP item 5) ----
  /// Last rung of the escalation ladder: a request still non-converged
  /// after the fused batch solve and (when stall-flagged) the boosted solo
  /// retry is re-solved by the warm-started MiniIPM fallback engine
  /// (scenario::solve_scenario_ipm), seeded from its latest failed ADMM
  /// iterate. Success fulfills the future converged with
  /// SolveResult::engine == SolveEngine::kIpm; a fallback failure surfaces
  /// as a typed ConvergenceError (or NumericalError) on the future instead
  /// of a silently non-converged result. Off by default: with the router
  /// disabled, results are bit-identical to the pure-ADMM path and the
  /// fallback engine is never constructed.
  bool engine_fallback = false;
  /// Wall-clock budget per IPM re-solve in seconds (0 = unlimited). A
  /// deadline-carrying request is additionally clamped to its remaining
  /// time, so an escalation never blows a deadline admission promised to
  /// enforce; a request whose deadline already passed at escalation pickup
  /// is shed as a deadline miss instead of rescued late.
  double ipm_budget_seconds = 0.0;
  /// Fallback engine convergence knobs (scenario::IpmEngineOptions).
  double ipm_tolerance = 1e-6;
  int ipm_max_iterations = 500;

  // ---- SLO observability layer (DESIGN.md §11) ----
  /// Enables the SLO layer: per-request stage timelines, per-stage latency
  /// histograms, and the sliding-window burn-rate monitor. When off, the
  /// layer costs one pointer load per fulfilled request and solves are
  /// bit-identical either way.
  bool slo = false;
  /// Declared objectives (latency ceiling, shed budget, windows). Only
  /// read when `slo` is true.
  obs::SloObjectives slo_objectives;
  /// Ring/bucket geometry of the monitor's sliding windows.
  obs::SloWindowOptions slo_window;
  /// How often the maintenance thread re-evaluates the objectives (gauge
  /// refresh + breach/recovery transitions); <= 0 = only on /slo scrapes.
  double slo_eval_interval_seconds = 1.0;
  /// A busy dispatcher/worker thread silent longer than this trips
  /// /healthz to 503 (idle threads are always healthy).
  double watchdog_stall_seconds = 30.0;
  /// Exposition endpoint port: -1 = no endpoint (default), 0 = ephemeral
  /// (SolveService::expo()->port() reports the bound one), else fixed.
  int expo_port = -1;
  /// Endpoint bind address. Loopback by default: the endpoint has no
  /// authentication, so exposing it beyond the host is an explicit choice.
  std::string expo_host = "127.0.0.1";
  /// When non-empty, the maintenance thread appends one JSONL metrics
  /// snapshot to this path every `metrics_snapshot_interval_seconds` (and
  /// the destructor appends a final one). Complements the GRIDADMM_METRICS
  /// exit dump with an in-run time series.
  std::string metrics_snapshot_path;
  double metrics_snapshot_interval_seconds = 0.0;
};

class SolveService {
 public:
  /// `base` is the default case requests solve when they carry no network;
  /// `params` the batch-wide ADMM controls (per-request ScenarioControls
  /// override termination knobs).
  SolveService(grid::Network base, admm::AdmmParams params, ServiceOptions options = {});
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;
  /// Drains accepted work, then stops the dispatcher.
  ~SolveService();

  /// Enqueues one request. Throws CapacityError when the queue is full and
  /// ValidationError on malformed input (bad load vector size, out-of-range
  /// outage branch); both are synchronous, nothing is enqueued. The future
  /// is fulfilled by the dispatcher (with a SolveResult, or the exception
  /// the batch solve raised).
  std::future<SolveResult> submit(SolveRequest request);

  /// Stops admission and blocks until every accepted request is fulfilled.
  /// Subsequent submits throw CapacityError; drain() is idempotent.
  void drain();

  /// Value snapshot of the telemetry (thread-safe, read-only): a view
  /// derived from metrics(), the cache and the queues. A request's facts
  /// are in it once its future is ready.
  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const grid::Network& base_network() const { return base_; }
  [[nodiscard]] const admm::AdmmParams& params() const { return params_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// The pool's first device (single-device compatibility accessor).
  [[nodiscard]] device::Device& device() { return pool_->device(0); }
  [[nodiscard]] device::DevicePool& pool() { return *pool_; }
  [[nodiscard]] SolutionCache& cache() { return cache_; }
  /// The service's metrics registry: the one store of its counters,
  /// histograms and gauges (per shard too), which stats() only reads.
  /// Each fact is recorded once, where it happens, before any future it
  /// describes is made ready; gauges are set where their state changes.
  /// Expose via metrics().expose_prometheus() or metrics().snapshot_json().
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The SLO monitor (null unless ServiceOptions::slo). evaluate() through
  /// this pointer and the /slo endpoint see the same windows.
  [[nodiscard]] obs::SloMonitor* slo() { return slo_.get(); }
  /// The exposition endpoint (null unless ServiceOptions::expo_port >= 0);
  /// expo()->port() reports the bound port when 0 (ephemeral) was asked.
  [[nodiscard]] const obs::ExpoServer* expo() const { return expo_.get(); }
  /// The liveness watchdog backing /healthz.
  [[nodiscard]] const obs::Watchdog& watchdog() const { return watchdog_; }

 private:
  struct Pending {
    SolveRequest request;
    std::promise<SolveResult> promise;
    std::uint64_t fingerprint = 0;  ///< structural key incl. outage branch
    double submit_time = 0.0;       ///< injected clock
    std::chrono::steady_clock::time_point arrival;  ///< scheduling clock
    std::uint64_t id = 0;           ///< trace correlation id ("req" span arg)
    /// Stage stamps on the trace clock; admit_ns doubles as the
    /// serve.queue span start (the non-drift invariant).
    RequestTimeline timeline;
    /// Warm-start seed, looked up once on the first solve attempt and
    /// reused across retries/bisection so re-attempts stay deterministic.
    CacheHit seed;
    bool seed_resolved = false;
  };

  /// One popped micro-batch, routed to a shard's solve worker.
  struct Batch {
    std::vector<Pending> requests;
    std::uint64_t id = 0;
  };

  /// Shard circuit-breaker state (DESIGN.md §12). Guarded by mu_.
  enum class ShardState { kHealthy = 0, kQuarantined = 1, kHalfOpen = 2 };
  struct ShardHealth {
    ShardState state = ShardState::kHealthy;
    int consecutive_failures = 0;  ///< transient attempt failures since success
    std::chrono::steady_clock::time_point reopen{};  ///< half-open eligibility
  };

  /// State shared by every fused-solve attempt of one micro-batch. It
  /// holds no telemetry: facts go to the registry as they happen.
  struct BatchContext {
    std::uint64_t batch_id = 0;
    int shard = 0;
    bool timeline_on = false;
    double dispatch_time = 0.0;
    std::uint64_t dispatch_ns = 0;
    std::uint64_t form_ns = 0;     ///< latest group's formation stamp
    int attempts = 0;              ///< fused solves issued (escalations excluded)
    int transient_attempts = 0;    ///< attempts lost to TransientDeviceError
    bool exhausted_transient = false;  ///< a group ran out of transient retries
  };

  /// What the shard worker feeds the circuit breaker after a batch.
  struct BatchOutcome {
    int transient_attempts = 0;
    bool exhausted_transient = false;
  };

  /// One shard's registry series (serve_shard_<d>_*).
  struct ShardSeries {
    obs::Counter* batches = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* launches = nullptr;
    obs::Counter* blocks = nullptr;
    obs::Gauge* launch_busy_seconds = nullptr;  ///< only grows (Counter is integral)
    obs::Counter* quarantines = nullptr;
    obs::Gauge* state = nullptr;
  };

  void dispatcher_main();
  void shard_worker_main(int shard);
  void maintenance_main();
  void append_metrics_snapshot();
  /// Pops the front request's fingerprint group, up to max_batch_size, in
  /// arrival order. Caller holds mu_.
  std::vector<Pending> pop_batch_locked();
  BatchOutcome process_batch(Batch batch, int shard);
  /// Solves `members` (indices into `batch`) as one group: retry with
  /// backoff on TransientDeviceError, bisect on permanent errors until the
  /// poison request fails alone. Fulfills every member's future.
  void solve_group(std::vector<Pending>& batch, std::vector<std::size_t> members,
                   BatchContext& ctx);
  /// One fused solve over `members`; fulfills futures on success, throws
  /// the solver's error on failure (futures untouched).
  void attempt_members(std::vector<Pending>& batch, const std::vector<std::size_t>& members,
                       const scenario::ScenarioSet& set, BatchContext& ctx);
  /// Fails one request's future with `error`, stamping its timeline and
  /// stage histograms so failure is visible, not absent (ISSUE 9).
  void fail_request(Pending& p, std::exception_ptr error, bool reached_solve,
                    BatchContext& ctx);
  /// Transitions a shard's circuit breaker, emitting the counter, gauge,
  /// trace instant, and log line. Caller holds mu_.
  void transition_shard_locked(int shard, ShardState to);
  /// Workers a new batch could go to right now: healthy, half-open, or
  /// quarantined past reopen. Caller holds mu_.
  int available_workers_locked(std::chrono::steady_clock::time_point now) const;
  /// Memoized structural fingerprint for a request's network (the base
  /// case's is precomputed; foreign networks are hashed once and pinned).
  std::uint64_t fingerprint_of(const std::shared_ptr<const grid::Network>& network);

  grid::Network base_;
  admm::AdmmParams params_;
  ServiceOptions options_;
  std::shared_ptr<const grid::Network> base_shared_;  ///< aliases base_
  std::uint64_t base_fingerprint_ = 0;
  std::vector<bool> base_bridges_;  ///< bridge bitmap for outage validation

  /// Fingerprints memoized by Network address; the shared_ptr pin keeps the
  /// address from being reused while the memo entry lives. Bounded (cleared
  /// wholesale past the bound) so a client churning networks cannot grow it
  /// without limit.
  std::mutex memo_mu_;
  std::unordered_map<const grid::Network*,
                     std::pair<std::shared_ptr<const grid::Network>, std::uint64_t>>
      fingerprint_memo_;
  std::shared_ptr<const Clock> clock_;
  std::unique_ptr<device::DevicePool> pool_;
  SolutionCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< queue became non-empty / state change
  std::condition_variable cv_shard_;  ///< the dispatch queue gained a batch
  std::condition_variable cv_idle_;   ///< nothing pending anywhere
  std::deque<Pending> queue_;
  std::deque<Batch> dispatched_;      ///< popped batches awaiting an idle device
  int busy_workers_ = 0;              ///< device workers currently inside a solve
  int pending_total_ = 0;             ///< accepted requests not yet fulfilled
  std::vector<int> shard_in_flight_;  ///< requests inside each shard's current solve
  std::uint64_t next_batch_id_ = 1;
  std::uint64_t next_request_id_ = 1;  ///< trace correlation ids (under mu_)
  std::vector<ShardHealth> shard_health_;  ///< circuit breakers, one per shard
  bool draining_ = false;
  bool shutdown_ = false;
  std::thread dispatcher_;
  std::vector<std::thread> shard_workers_;

  /// Metrics registry, the one store of the service's telemetry, and its
  /// hot-path instruments (pointers stay valid for the registry's
  /// lifetime; updates are lock-free atomics).
  obs::MetricsRegistry metrics_;
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
  obs::Histogram* m_occupancy_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_in_flight_ = nullptr;
  // Fault-tolerance instruments (DESIGN.md §12).
  obs::Counter* m_drain_shed_ = nullptr;
  obs::Counter* m_deadline_shed_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_bisections_ = nullptr;
  obs::Counter* m_quarantine_ = nullptr;
  obs::Counter* m_escalations_ = nullptr;
  obs::Counter* m_escalations_recovered_ = nullptr;
  obs::Counter* m_failed_form_ = nullptr;   ///< serve_failures_by_stage_form_total
  obs::Counter* m_failed_solve_ = nullptr;  ///< serve_failures_by_stage_solve_total
  std::vector<ShardSeries> m_shard_;        ///< one per shard
  // Engine-router instruments (DESIGN.md §13), indexed by SolveEngine.
  obs::Counter* m_engine_completed_[3] = {};  ///< serve_engine_<name>_completed_total
  obs::Histogram* m_engine_latency_[3] = {};  ///< serve_latency_<name>_seconds
  obs::Counter* m_ipm_attempts_ = nullptr;    ///< serve_engine_ipm_attempts_total
  obs::Counter* m_ipm_failures_ = nullptr;    ///< serve_engine_ipm_failures_total

  // ---- SLO observability layer (all owned here; null/absent when off) ----
  std::unique_ptr<obs::SloMonitor> slo_;  ///< null unless options_.slo
  /// Per-stage latency histograms, RequestTimeline stage order (only
  /// created when options_.slo).
  obs::Histogram* m_stage_[RequestTimeline::kStageCount] = {};
  obs::Watchdog watchdog_;
  int wd_dispatcher_ = -1;
  int wd_maintenance_ = -1;
  std::vector<int> wd_shards_;
  bool attached_dump_ = false;  ///< registered with the GRIDADMM_METRICS dump
  std::unique_ptr<obs::ExpoServer> expo_;
  std::mutex maintenance_mu_;
  std::condition_variable cv_maintenance_;
  bool maintenance_stop_ = false;
  std::thread maintenance_;
};

}  // namespace gridadmm::serve
