#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include <fstream>

#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/numeric.hpp"
#include "common/rng.hpp"
#include "grid/solution.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "admm/warm_start.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/ipm_engine.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::serve {

namespace {

/// Structural cache/batch key: the case fingerprint with the outage branch
/// mixed in, so "case9 minus branch 3" never shares a batch slot shape or a
/// warm-start neighborhood with intact case9.
std::uint64_t request_key(std::uint64_t fingerprint, int outage_branch) {
  return fingerprint ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(outage_branch + 2));
}

template <typename Message>
void validate(bool cond, const Message& msg) {
  require_valid(cond, msg);
}

}  // namespace

SolveService::SolveService(grid::Network base, admm::AdmmParams params, ServiceOptions options)
    : base_(std::move(base)),
      params_(params),
      options_(std::move(options)),
      cache_(options_.cache) {
  require(base_.finalized(), "SolveService: base network must be finalized");
  require(options_.max_batch_size > 0, "SolveService: max_batch_size must be positive");
  require(options_.max_queue_depth > 0, "SolveService: max_queue_depth must be positive");
  require(options_.num_devices > 0, "SolveService: num_devices must be positive");
  require(std::isfinite(options_.batching_window_seconds) &&
              options_.batching_window_seconds >= 0.0,
          "SolveService: batching_window_seconds must be finite and non-negative");
  require(options_.latency_sample_capacity > 0,
          "SolveService: latency_sample_capacity must be positive");
  require(options_.watchdog_stall_seconds > 0.0,
          "SolveService: watchdog_stall_seconds must be positive");
  require(options_.expo_port >= -1 && options_.expo_port <= 65535,
          "SolveService: expo_port must be in [-1, 65535]");
  require(options_.max_retries >= 0, "SolveService: max_retries must be non-negative");
  require(std::isfinite(options_.retry_backoff_seconds) && options_.retry_backoff_seconds >= 0.0,
          "SolveService: retry_backoff_seconds must be finite and non-negative");
  require(std::isfinite(options_.retry_backoff_max_seconds) &&
              options_.retry_backoff_max_seconds >= 0.0,
          "SolveService: retry_backoff_max_seconds must be finite and non-negative");
  require(options_.quarantine_threshold > 0,
          "SolveService: quarantine_threshold must be positive");
  require(std::isfinite(options_.quarantine_backoff_seconds) &&
              options_.quarantine_backoff_seconds >= 0.0,
          "SolveService: quarantine_backoff_seconds must be finite and non-negative");
  require(std::isfinite(options_.escalation_budget_boost) &&
              options_.escalation_budget_boost >= 1.0,
          "SolveService: escalation_budget_boost must be >= 1");
  require(std::isfinite(options_.ipm_budget_seconds) && options_.ipm_budget_seconds >= 0.0,
          "SolveService: ipm_budget_seconds must be finite and non-negative");
  require(std::isfinite(options_.ipm_tolerance) && options_.ipm_tolerance > 0.0,
          "SolveService: ipm_tolerance must be positive and finite");
  require(options_.ipm_max_iterations > 0,
          "SolveService: ipm_max_iterations must be positive");
  // Aliasing shared_ptr: requests that carry no network reference the
  // service's own copy without another Network allocation.
  base_shared_ = std::shared_ptr<const grid::Network>(std::shared_ptr<void>(), &base_);
  base_fingerprint_ = grid::network_fingerprint(base_);
  base_bridges_ = grid::bridge_branches(base_);
  clock_ = options_.clock != nullptr ? options_.clock : std::make_shared<SteadyClock>();
  if (options_.trace) obs::Tracer::instance().enable();
  m_submitted_ = &metrics_.counter("serve_requests_submitted_total",
                                   "Requests accepted into the queue");
  m_shed_ = &metrics_.counter("serve_requests_shed_total",
                              "Requests rejected by admission control");
  m_completed_ = &metrics_.counter("serve_requests_completed_total",
                                   "Futures fulfilled with a result");
  m_failed_ = &metrics_.counter("serve_requests_failed_total",
                                "Futures fulfilled with an exception");
  m_batches_ = &metrics_.counter("serve_batches_total", "Dispatched micro-batches");
  m_latency_ = &metrics_.histogram("serve_latency_seconds",
                                   "Submit-to-fulfilled latency (injected clock)");
  m_occupancy_ = &metrics_.histogram("serve_batch_occupancy",
                                     "Requests coalesced per micro-batch", 1.0, 2.0, 10);
  m_queue_depth_ = &metrics_.gauge("serve_queue_depth",
                                   "Undispatched requests (refreshed by stats())");
  m_in_flight_ = &metrics_.gauge("serve_in_flight",
                                 "Requests inside batch solves (refreshed by stats())");
  // Fault-tolerance instruments (DESIGN.md §12).
  m_drain_shed_ = &metrics_.counter("serve_requests_drain_shed_total",
                                    "Requests rejected because the service was draining");
  m_deadline_shed_ = &metrics_.counter("serve_deadline_shed_total",
                                       "Requests shed because their deadline expired");
  m_retries_ = &metrics_.counter(
      "serve_retries_total",
      "Fused-solve re-attempts (transient retries, poison-bisection halves)");
  m_quarantine_ = &metrics_.counter("serve_quarantine_transitions_total",
                                    "Shard circuit-breaker state changes");
  m_escalations_ = &metrics_.counter(
      "serve_escalation_retries_total",
      "Degraded-mode solo retries of should_escalate-flagged requests");
  m_failed_form_ = &metrics_.counter("serve_failures_by_stage_form_total",
                                     "Request failures during batch formation");
  m_failed_solve_ = &metrics_.counter("serve_failures_by_stage_solve_total",
                                      "Request failures during or after the fused solve");
  // Engine-router attribution (DESIGN.md §13): completions split by the
  // escalation-ladder rung that produced them, plus per-engine latency.
  for (int e = 0; e < 3; ++e) {
    const char* name = engine_name(static_cast<SolveEngine>(e));
    m_engine_completed_[e] =
        &metrics_.counter(std::string("serve_engine_") + name + "_completed_total",
                          "Completions whose final solution this engine produced");
    m_engine_latency_[e] =
        &metrics_.histogram(std::string("serve_latency_") + name + "_seconds",
                            "Submit-to-fulfilled latency by final engine");
  }
  m_ipm_failures_ = &metrics_.counter(
      "serve_engine_ipm_failures_total",
      "MiniIPM fallback re-solves that ended in a typed error on the future");
  pool_ = std::make_unique<device::DevicePool>(options_.num_devices, options_.device_workers);
  live_.batch_occupancy.assign(static_cast<std::size_t>(options_.max_batch_size), 0);
  live_.per_shard.assign(static_cast<std::size_t>(options_.num_devices), ShardServiceStats{});
  shard_health_.assign(static_cast<std::size_t>(options_.num_devices), ShardHealth{});
  m_shard_state_.reserve(static_cast<std::size_t>(options_.num_devices));
  for (int d = 0; d < options_.num_devices; ++d) {
    m_shard_state_.push_back(
        &metrics_.gauge("serve_shard_state_" + std::to_string(d),
                        "Shard circuit-breaker state (0 healthy, 1 quarantined, 2 half-open)"));
  }

  // ---- SLO observability layer (monitor, per-stage histograms) ----
  if (options_.slo) {
    slo_ = std::make_unique<obs::SloMonitor>(options_.slo_objectives, options_.slo_window);
    slo_->bind_gauges(metrics_);
    for (int st = 0; st < RequestTimeline::kStageCount; ++st) {
      m_stage_[st] = &metrics_.histogram(
          std::string("serve_stage_") + RequestTimeline::stage_name(st) + "_seconds",
          "Per-request stage latency (trace clock)", 1e-6, 2.0, 26);
    }
  }
  // Every watchdog slot registers before any thread starts: workers index
  // slots_ lock-free, so the vector must not grow once they run.
  wd_dispatcher_ = watchdog_.register_slot("dispatcher");
  wd_shards_.reserve(static_cast<std::size_t>(options_.num_devices));
  for (int d = 0; d < options_.num_devices; ++d) {
    wd_shards_.push_back(watchdog_.register_slot("shard-" + std::to_string(d)));
  }
  wd_maintenance_ = watchdog_.register_slot("maintenance");
  if (!obs::MetricsDump::instance().env_path().empty()) {
    obs::MetricsDump::instance().attach("serve", &metrics_);
    attached_dump_ = true;
  }
  // The endpoint binds before the worker threads start, so a bind failure
  // throws out of a service with no threads to unwind.
  if (options_.expo_port >= 0) {
    obs::ExpoOptions expo_options;
    expo_options.host = options_.expo_host;
    expo_options.port = options_.expo_port;
    expo_ = std::make_unique<obs::ExpoServer>(expo_options);
    expo_->handle("/metrics", [this] {
      stats();  // refresh gauges so the exposition agrees with ServiceStats
      return obs::ExpoResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               metrics_.expose_prometheus()};
    });
    expo_->handle("/healthz", [this] {
      const std::uint64_t now = obs::now_ns();
      const bool ok = watchdog_.healthy(now, options_.watchdog_stall_seconds);
      std::string body = watchdog_.healthz_json(now, options_.watchdog_stall_seconds);
      // Splice the shard circuit-breaker states into the watchdog JSON, so
      // one probe shows thread liveness and quarantine together. A
      // quarantined shard does not 503: the service is degraded, still
      // serving through healthy shards.
      if (!body.empty() && body.back() == '}') {
        body.pop_back();
        body += ", \"shards\": [";
        const std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t d = 0; d < shard_health_.size(); ++d) {
          const ShardHealth& health = shard_health_[d];
          if (d > 0) body += ", ";
          body += "{\"shard\": " + std::to_string(d) + ", \"state\": \"";
          body += health.state == ShardState::kHealthy       ? "healthy"
                  : health.state == ShardState::kQuarantined ? "quarantined"
                                                             : "half-open";
          body += "\", \"quarantines\": " + std::to_string(live_.per_shard[d].quarantines);
          body += ", \"consecutive_failures\": " + std::to_string(health.consecutive_failures);
          body += "}";
        }
        body += "]}";
      }
      return obs::ExpoResponse{ok ? 200 : 503, "application/json", body + "\n"};
    });
    expo_->handle("/slo", [this] {
      if (slo_ == nullptr) {
        return obs::ExpoResponse{404, "text/plain; charset=utf-8",
                                 "slo monitor disabled (ServiceOptions::slo)\n"};
      }
      const obs::SloVerdict verdict = slo_->evaluate(clock_->now());
      return obs::ExpoResponse{200, "application/json",
                               verdict.to_json(slo_->objectives()) + "\n"};
    });
    expo_->start();
  }

  shard_workers_.reserve(static_cast<std::size_t>(options_.num_devices));
  for (int d = 0; d < options_.num_devices; ++d) {
    shard_workers_.emplace_back([this, d] { shard_worker_main(d); });
  }
  dispatcher_ = std::thread([this] { dispatcher_main(); });
  if ((slo_ != nullptr && options_.slo_eval_interval_seconds > 0.0) ||
      (!options_.metrics_snapshot_path.empty() &&
       options_.metrics_snapshot_interval_seconds > 0.0)) {
    maintenance_ = std::thread([this] { maintenance_main(); });
  }
}

SolveService::~SolveService() {
  // Endpoint first: no scrape may run against a service mid-teardown.
  expo_.reset();
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    maintenance_stop_ = true;
  }
  cv_maintenance_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  cv_shard_.notify_all();
  dispatcher_.join();
  for (auto& worker : shard_workers_) worker.join();
  if (!options_.metrics_snapshot_path.empty()) {
    stats();  // final gauge refresh before the last snapshot line
    append_metrics_snapshot();
  }
  if (attached_dump_) obs::MetricsDump::instance().detach(&metrics_);
}

void SolveService::maintenance_main() {
  obs::set_thread_name("serve.maintenance");
  using clock = std::chrono::steady_clock;
  auto as_duration = [](double seconds) {
    return std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(seconds));
  };
  const bool do_eval = slo_ != nullptr && options_.slo_eval_interval_seconds > 0.0;
  const bool do_snapshot = !options_.metrics_snapshot_path.empty() &&
                           options_.metrics_snapshot_interval_seconds > 0.0;
  auto next_eval = clock::now() + as_duration(options_.slo_eval_interval_seconds);
  auto next_snapshot = clock::now() + as_duration(options_.metrics_snapshot_interval_seconds);
  std::unique_lock<std::mutex> lock(maintenance_mu_);
  while (!maintenance_stop_) {
    auto next = clock::time_point::max();
    if (do_eval) next = std::min(next, next_eval);
    if (do_snapshot) next = std::min(next, next_snapshot);
    cv_maintenance_.wait_until(lock, next, [&] { return maintenance_stop_; });
    if (maintenance_stop_) return;
    const auto now = clock::now();
    watchdog_.set_idle(wd_maintenance_, false);
    if (do_eval && now >= next_eval) {
      slo_->evaluate(clock_->now());
      next_eval = now + as_duration(options_.slo_eval_interval_seconds);
    }
    if (do_snapshot && now >= next_snapshot) {
      stats();  // refresh gauges so each snapshot line is coherent
      append_metrics_snapshot();
      next_snapshot = now + as_duration(options_.metrics_snapshot_interval_seconds);
    }
    watchdog_.set_idle(wd_maintenance_, true);
  }
}

void SolveService::append_metrics_snapshot() {
  std::ofstream file(options_.metrics_snapshot_path, std::ios::app);
  if (!file) {
    log::warn("SolveService: cannot append metrics snapshot to '",
              options_.metrics_snapshot_path, "'");
    return;
  }
  file << metrics_.snapshot_json() << "\n";
}

std::uint64_t SolveService::fingerprint_of(const std::shared_ptr<const grid::Network>& network) {
  if (network.get() == &base_) return base_fingerprint_;
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto memo = fingerprint_memo_.find(network.get());
  if (memo == fingerprint_memo_.end()) {
    constexpr std::size_t kMemoBound = 64;
    if (fingerprint_memo_.size() >= kMemoBound) fingerprint_memo_.clear();
    memo = fingerprint_memo_
               .emplace(network.get(),
                        std::make_pair(network, grid::network_fingerprint(*network)))
               .first;
  }
  return memo->second.second;
}

std::future<SolveResult> SolveService::submit(SolveRequest request) {
  if (request.network == nullptr) request.network = base_shared_;
  const grid::Network& net = *request.network;
  validate(net.finalized(), "SolveService::submit: network must be finalized");
  const auto nb = static_cast<std::size_t>(net.num_buses());
  // Resolve default loads against the request's own case, up front, so a
  // batch never substitutes another network's base loads.
  if (request.pd.empty()) {
    request.pd.reserve(nb);
    for (const auto& bus : net.buses) request.pd.push_back(bus.pd);
  }
  if (request.qd.empty()) {
    request.qd.reserve(nb);
    for (const auto& bus : net.buses) request.qd.push_back(bus.qd);
  }
  validate(request.pd.size() == nb && request.qd.size() == nb,
           "SolveService::submit: load vector size mismatch");
  validate(all_finite(request.pd) && all_finite(request.qd),
           "SolveService::submit: loads must be finite (no NaN/inf entries)");
  validate(request.outage_branch >= -1 && request.outage_branch < net.num_branches(),
           "SolveService::submit: outage branch index out of range");
  validate(std::isfinite(request.deadline),
           "SolveService::submit: deadline must be finite (injected-clock seconds)");
  if (request.outage_branch >= 0) {
    // Base-case requests hit the precomputed bitmap; foreign networks pay
    // one DFS per contingency submit (the rare path).
    const bool bridge = request.network.get() == &base_
                            ? base_bridges_[static_cast<std::size_t>(request.outage_branch)]
                            : grid::is_bridge(net, request.outage_branch);
    validate(!bridge,
             "SolveService::submit: outage branch is a bridge (would disconnect the network)");
  }

  Pending pending;
  pending.fingerprint = request_key(fingerprint_of(request.network), request.outage_branch);
  pending.request = std::move(request);
  pending.submit_time = clock_->now();
  pending.arrival = std::chrono::steady_clock::now();
  pending.timeline.admit_ns = obs::now_ns();
  auto future = pending.promise.get_future();

  std::uint64_t request_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || shutdown_) {
      // Drain-time sheds are intentional teardown, not capacity pressure:
      // counted apart so the SLO shed burn never pages on a clean drain.
      ++live_.drain_shed;
      m_drain_shed_->inc();
      throw CapacityError("SolveService::submit: service is draining, request shed");
    }
    // Deadline enforcement, first rung: a request already expired on
    // arrival is rejected before it can burn a queue slot.
    if (pending.request.deadline > 0.0 && pending.submit_time >= pending.request.deadline) {
      ++live_.deadline_shed;
      m_deadline_shed_->inc();
      if (slo_ != nullptr) slo_->record_deadline_shed(pending.submit_time);
      throw DeadlineError("SolveService::submit: deadline already expired at admission");
    }
    // Admission bounds everything accepted and unfulfilled — main queue,
    // shard queues, and in-flight batches — so routing batches across the
    // pool cannot launder backpressure away.
    if (pending_total_ >= options_.max_queue_depth) {
      ++live_.shed;
      m_shed_->inc();
      if (slo_ != nullptr) slo_->record_shed(pending.submit_time);
      throw CapacityError("SolveService::submit: queue full (max_queue_depth reached), "
                          "request shed");
    }
    request_id = next_request_id_++;
    pending.id = request_id;
    queue_.push_back(std::move(pending));
    ++pending_total_;
    ++live_.submitted;
    m_submitted_->inc();
  }
  obs::instant("serve.admit", "req", request_id);
  cv_work_.notify_all();
  return future;
}

void SolveService::dispatcher_main() {
  obs::set_thread_name("serve.dispatcher");
  const auto window = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.batching_window_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    watchdog_.set_idle(wd_dispatcher_, true);
    cv_work_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    watchdog_.set_idle(wd_dispatcher_, false);
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    // Dynamic micro-batching: hold the batch open (up to the window,
    // measured from the oldest pending arrival) while it fills; flush
    // immediately once full, on drain, or on shutdown. The fill test uses
    // the whole queue depth — a cheap proxy that only ever flushes early
    // when fingerprints are mixed, and early means smaller batches, never
    // starvation.
    const auto deadline = queue_.front().arrival + window;
    watchdog_.set_idle(wd_dispatcher_, true);
    while (!shutdown_ && !draining_ &&
           static_cast<int>(queue_.size()) < options_.max_batch_size &&
           std::chrono::steady_clock::now() < deadline) {
      cv_work_.wait_until(lock, deadline);
    }
    // Don't freeze a batch while every device is busy: keep it in the
    // request queue, where late arrivals still coalesce into it, and pop
    // only once a worker can actually take it. Without this gate a long
    // solve would fragment the backlog into one window-sized sliver per
    // wakeup, eroding occupancy. Quarantined shards don't count as
    // capacity until their reopen instant; when every shard is sidelined,
    // the timed wait re-gates at the earliest reopen so half-open probes
    // still drain the queue.
    while (true) {
      if (shutdown_) break;
      const auto now = std::chrono::steady_clock::now();
      if (static_cast<int>(dispatched_.size()) + busy_workers_ < available_workers_locked(now)) {
        break;
      }
      auto wake = std::chrono::steady_clock::time_point::max();
      for (const ShardHealth& health : shard_health_) {
        if (health.state == ShardState::kQuarantined && health.reopen > now) {
          wake = std::min(wake, health.reopen);
        }
      }
      if (wake == std::chrono::steady_clock::time_point::max()) {
        cv_work_.wait(lock);
      } else {
        cv_work_.wait_until(lock, wake);
      }
    }
    watchdog_.set_idle(wd_dispatcher_, false);
    if (queue_.empty()) continue;  // a shutdown wake-up with nothing left
    // Hand the popped batch to the shared dispatch queue and keep going:
    // the dispatcher never blocks on a solve, the next idle device takes
    // the oldest batch (work-conserving — no batch waits behind a busy
    // device while another sits idle), and up to num_devices
    // micro-batches are in flight concurrently.
    Batch batch;
    batch.requests = pop_batch_locked();
    batch.id = next_batch_id_++;
    if (options_.slo || obs::Tracer::enabled()) {
      // One stamp serves both views: the timeline's queue_ns and the
      // serve.queue span end are the same instant by construction.
      const std::uint64_t popped_ns = obs::now_ns();
      for (Pending& p : batch.requests) {
        p.timeline.queue_ns = popped_ns;
        obs::span_between("serve.queue", p.timeline.admit_ns, popped_ns, "req", p.id, "batch",
                          batch.id);
      }
    }
    dispatched_.push_back(std::move(batch));
    // notify_all, not notify_one: a single wake could land on a shard
    // sitting out its quarantine backoff while a healthy one sleeps.
    cv_shard_.notify_all();
  }
}

int SolveService::available_workers_locked(std::chrono::steady_clock::time_point now) const {
  int n = 0;
  for (const ShardHealth& health : shard_health_) {
    if (health.state != ShardState::kQuarantined || now >= health.reopen) ++n;
  }
  return n;
}

void SolveService::transition_shard_locked(int shard, ShardState to) {
  const auto d = static_cast<std::size_t>(shard);
  ShardHealth& health = shard_health_[d];
  if (health.state == to) return;
  health.state = to;
  if (to == ShardState::kQuarantined) {
    health.reopen = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(options_.quarantine_backoff_seconds));
    ++live_.per_shard[d].quarantines;
    log::warn("SolveService: shard ", shard, " quarantined after ",
              health.consecutive_failures, " consecutive transient failures");
  } else if (to == ShardState::kHealthy) {
    health.consecutive_failures = 0;
    log::info("SolveService: shard ", shard, " recovered (half-open probe succeeded)");
  }
  ++live_.quarantine_transitions;
  m_quarantine_->inc();
  m_shard_state_[d]->set(static_cast<double>(static_cast<int>(to)));
  obs::instant("serve.quarantine", "shard", static_cast<std::uint64_t>(shard), "state",
               static_cast<std::uint64_t>(static_cast<int>(to)));
  // State changes alter dispatch capacity: wake the dispatcher and peers.
  cv_work_.notify_all();
  cv_shard_.notify_all();
}

void SolveService::shard_worker_main(int shard) {
  obs::set_thread_name("serve.shard");
  const auto d = static_cast<std::size_t>(shard);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    watchdog_.set_idle(wd_shards_[d], true);
    // Health-aware pickup: healthy and half-open shards take work freely; a
    // quarantined shard sits out until its reopen instant — the shared
    // dispatch queue keeps flowing to healthy shards meanwhile, which IS
    // the redistribution — then takes exactly one probe batch half-open.
    while (true) {
      if (shutdown_) break;
      if (!dispatched_.empty()) {
        ShardHealth& health = shard_health_[d];
        if (health.state != ShardState::kQuarantined) break;
        const auto now = std::chrono::steady_clock::now();
        if (now >= health.reopen) {
          transition_shard_locked(shard, ShardState::kHalfOpen);
          break;
        }
        cv_shard_.wait_until(lock, health.reopen);
      } else {
        cv_shard_.wait(lock);
      }
    }
    if (dispatched_.empty()) {
      if (shutdown_) return;
      continue;
    }
    watchdog_.set_idle(wd_shards_[d], false);
    Batch batch = std::move(dispatched_.front());
    dispatched_.pop_front();
    const int size = static_cast<int>(batch.requests.size());
    live_.per_shard[d].in_flight = size;
    ++busy_workers_;
    lock.unlock();
    const BatchOutcome outcome = process_batch(std::move(batch), shard);
    lock.lock();
    live_.per_shard[d].in_flight = 0;
    --busy_workers_;
    pending_total_ -= size;
    // ---- Circuit breaker (DESIGN.md §12) ----
    // A batch that exhausted its transient retries implicates the shard's
    // device; any batch resolved without exhaustion proves it healthy.
    ShardHealth& health = shard_health_[d];
    if (outcome.exhausted_transient) {
      health.consecutive_failures += std::max(outcome.transient_attempts, 1);
    } else {
      health.consecutive_failures = 0;
    }
    if (health.state == ShardState::kHalfOpen) {
      transition_shard_locked(shard, outcome.exhausted_transient ? ShardState::kQuarantined
                                                                 : ShardState::kHealthy);
    } else if (health.state == ShardState::kHealthy &&
               health.consecutive_failures >= options_.quarantine_threshold) {
      transition_shard_locked(shard, ShardState::kQuarantined);
    }
    // A worker slot opened up: the dispatcher may now pop the next batch.
    cv_work_.notify_all();
    if (queue_.empty() && pending_total_ == 0) cv_idle_.notify_all();
  }
}

std::vector<SolveService::Pending> SolveService::pop_batch_locked() {
  std::vector<Pending> batch;
  const std::uint64_t key = queue_.front().fingerprint;
  std::deque<Pending> rest;
  while (!queue_.empty()) {
    Pending& front = queue_.front();
    if (front.fingerprint == key && static_cast<int>(batch.size()) < options_.max_batch_size) {
      batch.push_back(std::move(front));
    } else {
      rest.push_back(std::move(front));
    }
    queue_.pop_front();
  }
  queue_.swap(rest);
  return batch;
}

void SolveService::record_latency_locked(double seconds) {
  ++live_.latency_samples;
  const auto capacity = static_cast<std::size_t>(options_.latency_sample_capacity);
  if (latency_samples_.size() < capacity) {
    latency_samples_.push_back(seconds);
  } else {
    latency_samples_[latency_next_] = seconds;
    latency_next_ = (latency_next_ + 1) % capacity;
  }
}

SolveService::BatchOutcome SolveService::process_batch(Batch work, int shard) {
  std::vector<Pending>& batch = work.requests;
  BatchContext ctx;
  ctx.batch_id = work.id;
  ctx.shard = shard;
  ctx.dispatch_time = clock_->now();
  // Timeline stamping is on when the SLO layer or the tracer wants it; the
  // batch-scoped stamps live in ctx and fan out to every request of the
  // batch at fulfillment. Each stamp is taken exactly once and feeds both
  // the RequestTimeline and the trace span it bounds (non-drift invariant).
  ctx.timeline_on = options_.slo || obs::Tracer::enabled();
  const obs::TraceSpan batch_span("serve.batch", "batch", ctx.batch_id, "shard",
                                  static_cast<std::uint64_t>(shard));
  ctx.dispatch_ns = ctx.timeline_on ? obs::now_ns() : 0;
  if (ctx.timeline_on && !batch.empty()) {
    // serve.dispatch: the batch's wait in the dispatch queue for a worker
    // (all requests of a batch share queue_ns, so one span covers it).
    obs::span_between("serve.dispatch", batch.front().timeline.queue_ns, ctx.dispatch_ns,
                      "batch", ctx.batch_id, "size", static_cast<std::uint64_t>(batch.size()));
  }

  // ---- Deadline enforcement, second rung: shed before solving ----
  std::vector<std::size_t> members;
  members.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (p.request.deadline > 0.0 && ctx.dispatch_time >= p.request.deadline) {
      if (ctx.timeline_on) {
        p.timeline.dispatch_ns = ctx.dispatch_ns;
        p.timeline.fulfill_ns = obs::now_ns();
      }
      obs::instant("serve.deadline_shed", "req", p.id, "batch", ctx.batch_id);
      if (slo_ != nullptr) slo_->record_deadline_shed(ctx.dispatch_time);
      ++ctx.deadline_shed;
      p.promise.set_exception(std::make_exception_ptr(
          DeadlineError("SolveService: request deadline expired while queued")));
      continue;
    }
    members.push_back(i);
  }
  ctx.accepted = members.size();

  if (!members.empty()) solve_group(batch, std::move(members), ctx);

  // ---- Commit the batch's telemetry under one lock ----
  const std::lock_guard<std::mutex> lock(mu_);
  auto& shard_stats = live_.per_shard[static_cast<std::size_t>(shard)];
  // Requests that reached the solve stage (formation failures fell out).
  const std::size_t solved_for =
      ctx.accepted >= ctx.failed_form ? ctx.accepted - ctx.failed_form : 0;
  live_.completed += ctx.completed;
  if (ctx.completed > 0) m_completed_->inc(ctx.completed);
  live_.completed_admm += ctx.completed_admm;
  live_.completed_escalated_admm += ctx.completed_escalated_admm;
  live_.completed_ipm += ctx.completed_ipm;
  if (ctx.completed_admm > 0) m_engine_completed_[0]->inc(ctx.completed_admm);
  if (ctx.completed_escalated_admm > 0) m_engine_completed_[1]->inc(ctx.completed_escalated_admm);
  if (ctx.completed_ipm > 0) m_engine_completed_[2]->inc(ctx.completed_ipm);
  live_.ipm_attempts += ctx.ipm_attempts;
  live_.ipm_failures += ctx.ipm_failures;
  if (ctx.ipm_failures > 0) m_ipm_failures_->inc(ctx.ipm_failures);
  const std::size_t failed = ctx.failed_form + ctx.failed_solve;
  live_.failed += failed;
  if (failed > 0) m_failed_->inc(failed);
  if (ctx.failed_form > 0) m_failed_form_->inc(ctx.failed_form);
  if (ctx.failed_solve > 0) m_failed_solve_->inc(ctx.failed_solve);
  live_.deadline_shed += ctx.deadline_shed;
  if (ctx.deadline_shed > 0) m_deadline_shed_->inc(ctx.deadline_shed);
  const std::uint64_t retries =
      ctx.attempts > 0 ? static_cast<std::uint64_t>(ctx.attempts) - 1 : 0;
  live_.retries += retries;
  if (retries > 0) m_retries_->inc(retries);
  live_.bisections += ctx.bisections;
  live_.escalation_retries += ctx.escalations;
  live_.escalation_recovered += ctx.escalations_recovered;
  if (ctx.escalations > 0) m_escalations_->inc(ctx.escalations);
  if (solved_for > 0) {
    ++live_.batches;
    m_batches_->inc();
    m_occupancy_->observe(static_cast<double>(solved_for));
    ++shard_stats.batches;
    shard_stats.requests += solved_for;
    const auto slot = std::min(solved_for, static_cast<std::size_t>(options_.max_batch_size));
    ++live_.batch_occupancy[slot - 1];
  }
  live_.launch_stats += ctx.launches;
  shard_stats.launch_stats += ctx.launches;
  for (const double latency : ctx.latencies) record_latency_locked(latency);

  BatchOutcome outcome;
  outcome.transient_attempts = ctx.transient_attempts;
  outcome.exhausted_transient = ctx.exhausted_transient;
  outcome.solved_any = ctx.solved_any;
  return outcome;
}

void SolveService::solve_group(std::vector<Pending>& batch, std::vector<std::size_t> members,
                               BatchContext& ctx) {
  const bool use_cache = options_.cache.capacity > 0;
  // ---- Formation: stage this group as one ScenarioSet ----
  // Re-done per group so bisected halves form their own sets; submit()
  // validation makes a failure here defense-in-depth, and it fails exactly
  // the offending request, never its neighbors.
  scenario::ScenarioSet set(*batch[members.front()].request.network);
  std::vector<std::size_t> formed;
  formed.reserve(members.size());
  for (const std::size_t i : members) {
    Pending& p = batch[i];
    scenario::Scenario sc;
    sc.name = "serve/batch-" + std::to_string(ctx.batch_id) + "-req-" + std::to_string(i);
    sc.kind = p.request.outage_branch >= 0 ? scenario::ScenarioKind::kContingency
                                           : scenario::ScenarioKind::kBase;
    sc.pd = p.request.pd;
    sc.qd = p.request.qd;
    sc.outage_branch = p.request.outage_branch;
    sc.controls = p.request.controls;
    try {
      set.add(std::move(sc));
    } catch (...) {
      fail_request(p, std::current_exception(), /*reached_solve=*/false, ctx);
      continue;
    }
    // Warm-start seed, resolved once and pinned: retries and bisected
    // re-solves reuse it, so re-attempts stay deterministic even while the
    // cache churns underneath.
    if (!p.seed_resolved) {
      if (use_cache && !p.request.bypass_cache) {
        p.seed = cache_.lookup(p.fingerprint, p.request.pd, p.request.qd);
      }
      p.seed_resolved = true;
    }
    formed.push_back(i);
  }
  if (formed.empty()) return;
  ctx.form_ns = ctx.timeline_on ? obs::now_ns() : 0;
  if (ctx.timeline_on) {
    obs::span_between("serve.form", ctx.dispatch_ns, ctx.form_ns, "batch", ctx.batch_id);
  }

  // ---- Attempt loop: retry transient errors, bisect permanent ones ----
  for (int attempt = 0;; ++attempt) {
    try {
      attempt_members(batch, formed, set, ctx);
      return;
    } catch (const TransientDeviceError&) {
      ++ctx.transient_attempts;
      if (attempt >= options_.max_retries) {
        // Out of retries: the whole group fails with the typed transient
        // error, so callers know a later retry may well succeed.
        ctx.exhausted_transient = true;
        const auto error = std::current_exception();
        for (const std::size_t i : formed) {
          fail_request(batch[i], error, /*reached_solve=*/true, ctx);
        }
        return;
      }
      obs::instant("serve.retry", "batch", ctx.batch_id, "attempt",
                   static_cast<std::uint64_t>(attempt + 1));
      // Exponential backoff with deterministic jitter, so retrying shards
      // don't hammer a browned-out device in lockstep.
      if (options_.retry_backoff_seconds > 0.0) {
        std::uint64_t jitter_state =
            ctx.batch_id * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(attempt);
        const double jitter =
            0.5 * static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
        const double sleep_seconds =
            std::min(options_.retry_backoff_seconds * std::pow(2.0, attempt) * (1.0 + jitter),
                     options_.retry_backoff_max_seconds);
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
      }
    } catch (...) {
      if (formed.size() == 1) {
        // Solo and permanent: exactly this request fails.
        fail_request(batch[formed.front()], std::current_exception(),
                     /*reached_solve=*/true, ctx);
        return;
      }
      // Permanent error inside a group: bisect to isolate the poison
      // request, so healthy co-batched requests still succeed.
      ++ctx.bisections;
      obs::instant("serve.bisect", "batch", ctx.batch_id, "size",
                   static_cast<std::uint64_t>(formed.size()));
      const auto half = static_cast<std::ptrdiff_t>(formed.size() / 2);
      std::vector<std::size_t> lo(formed.begin(), formed.begin() + half);
      std::vector<std::size_t> hi(formed.begin() + half, formed.end());
      solve_group(batch, std::move(lo), ctx);
      solve_group(batch, std::move(hi), ctx);
      return;
    }
  }
}

void SolveService::attempt_members(std::vector<Pending>& batch,
                                   const std::vector<std::size_t>& members,
                                   const scenario::ScenarioSet& set, BatchContext& ctx) {
  device::Device& device = pool_->device(ctx.shard);
  const bool use_cache = options_.cache.capacity > 0;
  ++ctx.attempts;
  device::LaunchStats attempt_launches;
  scenario::ScenarioReport report;
  std::vector<grid::OpfSolution> solutions;
  std::vector<char> escalated(members.size(), 0);
  std::vector<char> engine(members.size(), static_cast<char>(SolveEngine::kAdmm));
  std::vector<char> resolved(members.size(), 0);  ///< future set by the ladder
  std::uint64_t stage_ns = 0;
  std::uint64_t solve_ns = 0;
  std::uint64_t extract_ns = 0;
  try {
    scenario::BatchAdmmSolver solver(set, params_, &device);
    stage_ns = ctx.timeline_on ? obs::now_ns() : 0;
    if (ctx.timeline_on) {
      obs::span_between("serve.stage", ctx.form_ns, stage_ns, "batch", ctx.batch_id);
    }
    scenario::BatchSolveOptions solve_options;
    solve_options.convergence_sample_interval = options_.convergence_sample_interval;
    solve_options.initial_iterates.assign(members.size(), nullptr);
    for (std::size_t s = 0; s < members.size(); ++s) {
      const Pending& p = batch[members[s]];
      if (p.seed.iterate != nullptr) solve_options.initial_iterates[s] = p.seed.iterate.get();
    }
    {
      device::LaunchStatsScope scope(device, attempt_launches);
      report = solver.solve(solve_options);
    }
    solve_ns = ctx.timeline_on ? obs::now_ns() : 0;
    if (ctx.timeline_on) {
      obs::span_between("serve.solve", stage_ns, solve_ns, "batch", ctx.batch_id, "size",
                        static_cast<std::uint64_t>(members.size()));
    }
    solutions = solver.solutions();
    // ---- Refresh the warm-start cache with converged iterates ----
    for (std::size_t s = 0; s < members.size(); ++s) {
      const Pending& p = batch[members[s]];
      if (!use_cache || p.request.bypass_cache) continue;
      if (!report.records[s].converged) continue;
      cache_.insert(p.fingerprint, p.request.pd, p.request.qd,
                    std::make_shared<admm::WarmStartIterate>(
                        solver.export_iterate(static_cast<int>(s))));
    }
    extract_ns = ctx.timeline_on ? obs::now_ns() : 0;
    if (ctx.timeline_on) {
      obs::span_between("serve.extract", solve_ns, extract_ns, "batch", ctx.batch_id);
    }

    // ---- Engine escalation ladder (DESIGN.md §13) ----
    // Rung 2: a non-converged slot whose sampled trajectory shows no
    // residual progress gets one solo ADMM re-solve, warm-started from its
    // own failed iterate with a multiplied iteration budget. Best-effort:
    // any rescue failure keeps the original result.
    // Rung 3 (engine_fallback): anything still non-converged is handed to
    // the warm-started MiniIPM fallback, seeded from the latest failed
    // iterate. Unlike rung 2 this rung is decisive: success replaces the
    // result (engine = kIpm), a typed failure fails the future — the
    // request is never fulfilled with a silently non-converged answer.
    // Both rungs honor the request deadline at pickup: an expired request
    // is shed as a deadline miss, not rescued late.
    const bool rung2_enabled = options_.escalation_retry &&
                               options_.convergence_sample_interval > 0 &&
                               !report.convergence.empty();
    if (rung2_enabled || options_.engine_fallback) {
      // Sheds one slot whose deadline passed at escalation pickup — the
      // same accounting as the dispatch-pickup shed, with the stage stamps
      // the slot earned inside this batch.
      const auto shed_deadline = [&](std::size_t s) {
        Pending& p = batch[members[s]];
        if (ctx.timeline_on) {
          p.timeline.dispatch_ns = ctx.dispatch_ns;
          p.timeline.form_ns = ctx.form_ns;
          p.timeline.stage_ns = stage_ns;
          p.timeline.solve_ns = solve_ns;
          p.timeline.extract_ns = extract_ns;
          p.timeline.fulfill_ns = obs::now_ns();
        }
        if (slo_ != nullptr) {
          for (int st = 0; st < RequestTimeline::kStageCount; ++st) {
            m_stage_[st]->observe(p.timeline.stage_seconds(st));
          }
          slo_->record_deadline_shed(clock_->now());
        }
        obs::instant("serve.deadline_shed", "req", p.id, "batch", ctx.batch_id);
        ++ctx.deadline_shed;
        resolved[s] = 1;
        p.promise.set_exception(std::make_exception_ptr(DeadlineError(
            "SolveService: request deadline expired at escalation pickup")));
      };
      for (std::size_t s = 0; s < members.size(); ++s) {
        if (report.records[s].converged) continue;
        Pending& p = batch[members[s]];
        const bool flagged = rung2_enabled && obs::should_escalate(report.convergence[s]);
        if (!flagged && !options_.engine_fallback) continue;
        if (p.request.deadline > 0.0 && clock_->now() >= p.request.deadline) {
          shed_deadline(s);
          continue;
        }
        // The latest failed iterate seeds whichever rung runs next.
        admm::WarmStartIterate iterate = solver.export_iterate(static_cast<int>(s));
        if (flagged) {
          ++ctx.escalations;
          obs::instant("serve.retry", "req", p.id, "escalation", 1);
          try {
            scenario::ScenarioSet solo(*p.request.network);
            scenario::Scenario sc;
            sc.name = "serve/escalate-" + std::to_string(ctx.batch_id) + "-req-" +
                      std::to_string(members[s]);
            sc.kind = p.request.outage_branch >= 0 ? scenario::ScenarioKind::kContingency
                                                   : scenario::ScenarioKind::kBase;
            sc.pd = p.request.pd;
            sc.qd = p.request.qd;
            sc.outage_branch = p.request.outage_branch;
            sc.controls = p.request.controls;
            const admm::AdmmParams effective =
                scenario::effective_params(params_, p.request.controls);
            sc.controls.max_inner_iterations = static_cast<int>(std::min(
                static_cast<double>(effective.max_inner_iterations) *
                    options_.escalation_budget_boost,
                1e9));
            sc.controls.max_outer_iterations = static_cast<int>(std::min(
                static_cast<double>(effective.max_outer_iterations) *
                    options_.escalation_budget_boost,
                1e9));
            solo.add(std::move(sc));
            scenario::BatchAdmmSolver rescue(solo, params_, &device);
            scenario::BatchSolveOptions rescue_options;
            rescue_options.convergence_sample_interval = options_.convergence_sample_interval;
            rescue_options.initial_iterates.assign(1, &iterate);
            device::LaunchStats rescue_launches;
            scenario::ScenarioReport rescue_report;
            {
              device::LaunchStatsScope scope(device, rescue_launches);
              rescue_report = rescue.solve(rescue_options);
            }
            ctx.launches += rescue_launches;
            if (rescue_report.records[0].converged) {
              ++ctx.escalations_recovered;
              solutions[s] = rescue.solutions()[0];
              report.stats[s] = rescue_report.stats[0];
              report.records[s] = rescue_report.records[0];
              if (!rescue_report.convergence.empty()) {
                report.convergence[s] = std::move(rescue_report.convergence[0]);
              }
              escalated[s] = 1;
              engine[s] = static_cast<char>(SolveEngine::kEscalatedAdmm);
              if (use_cache && !p.request.bypass_cache) {
                cache_.insert(
                    p.fingerprint, p.request.pd, p.request.qd,
                    std::make_shared<admm::WarmStartIterate>(rescue.export_iterate(0)));
              }
            } else {
              // The boosted retry made progress even though it missed
              // tolerance: hand its iterate (not rung 1's) to the IPM.
              iterate = rescue.export_iterate(0);
            }
          } catch (...) {
            // Keep the original non-converged result (and rung 1's
            // iterate); the solo retry never turns a served answer into a
            // failure.
          }
        }
        if (!options_.engine_fallback || report.records[s].converged) continue;
        // ---- Rung 3: warm-started MiniIPM re-solve ----
        if (p.request.deadline > 0.0 && clock_->now() >= p.request.deadline) {
          shed_deadline(s);
          continue;
        }
        double budget = options_.ipm_budget_seconds;
        if (p.request.deadline > 0.0) {
          const double remaining = p.request.deadline - clock_->now();
          budget = budget > 0.0 ? std::min(budget, remaining) : remaining;
        }
        ++ctx.ipm_attempts;
        obs::instant("serve.ipm_rescue", "req", p.id, "batch", ctx.batch_id);
        try {
          scenario::Scenario sc;
          sc.name = "serve/ipm-" + std::to_string(ctx.batch_id) + "-req-" +
                    std::to_string(members[s]);
          sc.kind = p.request.outage_branch >= 0 ? scenario::ScenarioKind::kContingency
                                                 : scenario::ScenarioKind::kBase;
          sc.pd = p.request.pd;
          sc.qd = p.request.qd;
          sc.outage_branch = p.request.outage_branch;
          scenario::IpmEngineOptions ipm_options;
          ipm_options.ipm.tolerance = options_.ipm_tolerance;
          ipm_options.ipm.max_iterations = options_.ipm_max_iterations;
          ipm_options.wall_budget_seconds = budget;
          const grid::OpfSolution warm = admm::to_solution(iterate, *p.request.network);
          scenario::IpmEngineResult rescue =
              scenario::solve_scenario_ipm(*p.request.network, sc, ipm_options, &warm);
          solutions[s] = std::move(rescue.solution);
          report.records[s].converged = true;
          report.records[s].objective = rescue.quality.objective;
          report.records[s].max_violation = rescue.quality.max_violation;
          escalated[s] = 1;
          engine[s] = static_cast<char>(SolveEngine::kIpm);
        } catch (...) {
          // Decisive failure: the future carries the typed error
          // (ConvergenceError, NumericalError, ...) instead of a silently
          // non-converged result.
          ++ctx.ipm_failures;
          fail_request(p, std::current_exception(), /*reached_solve=*/true, ctx);
          resolved[s] = 1;
        }
      }
    }
  } catch (...) {
    // Partial launches of the failed attempt still happened on the device:
    // keep them in the batch's attribution.
    ctx.launches += attempt_launches;
    throw;
  }
  ctx.launches += attempt_launches;
  ctx.solved_any = true;

  // ---- Fulfill futures ----
  const double completion_time = clock_->now();
  std::uint64_t last_fulfill_ns = extract_ns;
  for (std::size_t s = 0; s < members.size(); ++s) {
    // Slots the escalation ladder already settled (deadline shed at rung
    // pickup, typed IPM failure) carry no future to fulfill here.
    if (resolved[s]) continue;
    Pending& p = batch[members[s]];
    SolveResult result;
    result.solution = std::move(solutions[s]);
    result.stats = report.stats[s];
    result.converged = report.records[s].converged;
    result.objective = report.records[s].objective;
    result.max_violation = report.records[s].max_violation;
    result.batch_id = ctx.batch_id;
    result.batch_occupancy = static_cast<int>(members.size());
    result.cache_hit = p.seed.iterate != nullptr;
    result.cache_distance = p.seed.distance;
    result.solve_attempts = ctx.attempts;
    result.escalated = escalated[s] != 0;
    result.engine = static_cast<SolveEngine>(engine[s]);
    result.wait_seconds = ctx.dispatch_time - p.submit_time;
    result.total_seconds = completion_time - p.submit_time;
    if (!report.convergence.empty()) result.trajectory = std::move(report.convergence[s]);
    if (ctx.timeline_on) {
      // Fan the batch-scoped stamps out to the request, add the
      // per-request fulfill stamp, and ship the timeline with the result.
      p.timeline.dispatch_ns = ctx.dispatch_ns;
      p.timeline.form_ns = ctx.form_ns;
      p.timeline.stage_ns = stage_ns;
      p.timeline.solve_ns = solve_ns;
      p.timeline.extract_ns = extract_ns;
      p.timeline.fulfill_ns = obs::now_ns();
      last_fulfill_ns = p.timeline.fulfill_ns;
      result.timeline = p.timeline;
    }
    if (slo_ != nullptr) {
      for (int st = 0; st < RequestTimeline::kStageCount; ++st) {
        m_stage_[st]->observe(p.timeline.stage_seconds(st));
      }
      slo_->record_latency(result.total_seconds, completion_time);
    }
    ctx.latencies.push_back(result.total_seconds);
    m_latency_->observe(result.total_seconds);
    m_engine_latency_[static_cast<int>(engine[s])]->observe(result.total_seconds);
    obs::instant("serve.fulfill.req", "req", p.id, "batch", ctx.batch_id);
    ++ctx.completed;
    switch (static_cast<SolveEngine>(engine[s])) {
      case SolveEngine::kAdmm: ++ctx.completed_admm; break;
      case SolveEngine::kEscalatedAdmm: ++ctx.completed_escalated_admm; break;
      case SolveEngine::kIpm: ++ctx.completed_ipm; break;
    }
    p.promise.set_value(std::move(result));
  }
  if (ctx.timeline_on) {
    obs::span_between("serve.fulfill", extract_ns, last_fulfill_ns, "batch", ctx.batch_id,
                      "size", static_cast<std::uint64_t>(members.size()));
  }
}

void SolveService::fail_request(Pending& p, std::exception_ptr error, bool reached_solve,
                                BatchContext& ctx) {
  if (ctx.timeline_on) {
    // Failed requests get timelines too (ISSUE 9): the stamps they earned
    // plus a fulfill stamp, so failure shows up in the stage histograms
    // instead of silently vanishing from the telemetry.
    p.timeline.dispatch_ns = ctx.dispatch_ns;
    if (reached_solve) p.timeline.form_ns = ctx.form_ns;
    p.timeline.fulfill_ns = obs::now_ns();
  }
  if (slo_ != nullptr) {
    for (int st = 0; st < RequestTimeline::kStageCount; ++st) {
      m_stage_[st]->observe(p.timeline.stage_seconds(st));
    }
  }
  if (reached_solve) {
    ++ctx.failed_solve;
  } else {
    ++ctx.failed_form;
  }
  obs::instant("serve.fail.req", "req", p.id, "batch", ctx.batch_id);
  p.promise.set_exception(std::move(error));
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  cv_work_.notify_all();
  cv_shard_.notify_all();
  cv_idle_.wait(lock, [&] { return queue_.empty() && pending_total_ == 0; });
}

ServiceStats SolveService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = live_;
  snapshot.queue_depth = static_cast<int>(queue_.size());
  snapshot.dispatch_backlog = 0;
  for (const auto& batch : dispatched_) {
    snapshot.dispatch_backlog += static_cast<int>(batch.requests.size());
  }
  snapshot.in_flight = 0;
  for (const auto& shard : snapshot.per_shard) snapshot.in_flight += shard.in_flight;
  for (std::size_t d = 0; d < shard_health_.size(); ++d) {
    snapshot.per_shard[d].state = static_cast<int>(shard_health_[d].state);
    snapshot.per_shard[d].consecutive_failures = shard_health_[d].consecutive_failures;
    m_shard_state_[d]->set(static_cast<double>(snapshot.per_shard[d].state));
  }
  snapshot.cache_hits = cache_.hits();
  snapshot.cache_misses = cache_.misses();
  snapshot.cache_entries = static_cast<std::uint64_t>(cache_.size());
  snapshot.p50_latency = latency_quantile(latency_samples_, 0.50);
  snapshot.p95_latency = latency_quantile(latency_samples_, 0.95);
  snapshot.p99_latency = latency_quantile(latency_samples_, 0.99);
  // Refresh the registry's gauges from the same locked snapshot, so the
  // Prometheus exposition and ServiceStats agree at snapshot time.
  m_queue_depth_->set(static_cast<double>(snapshot.queue_depth));
  m_in_flight_->set(static_cast<double>(snapshot.in_flight));
  return snapshot;
}

}  // namespace gridadmm::serve
