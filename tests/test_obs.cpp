// Observability layer semantics: tracer allocation discipline and valid
// Chrome trace JSON under concurrency, ring wrap-around accounting,
// metrics-registry bucket math and exposition, convergence-trajectory
// sampling (including the non-convergence escalation signal), the
// bit-identical-iterates guarantee with tracing/sampling on, and the serve
// request-lifecycle spans + instruments.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "admm/params.hpp"
#include "common/error.hpp"
#include "grid/cases.hpp"
#include "obs/convergence.hpp"
#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"
#include "serve/service.hpp"

namespace gridadmm {
namespace {

/// The tracer is process-global: every test that touches it restores the
/// pristine state (disabled, empty) so tests stay order-independent.
struct TracerReset {
  TracerReset() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
  ~TracerReset() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Tracer, DisabledRecordingCreatesNoBuffersAndNoEvents) {
  const TracerReset reset;
  const auto buffers_before = obs::Tracer::buffers_created();
  for (int i = 0; i < 1000; ++i) {
    const obs::TraceSpan span("obs.test.disabled", "i", static_cast<std::uint64_t>(i));
    obs::instant("obs.test.instant");
  }
  obs::PhaseTimer timer;
  EXPECT_GE(timer.take("obs.test.phase"), 0.0);  // still measures time
  std::thread worker([] {
    const obs::TraceSpan span("obs.test.disabled.worker");
    obs::instant("obs.test.instant.worker");
  });
  worker.join();
  EXPECT_EQ(obs::Tracer::buffers_created(), buffers_before);
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST(Tracer, ConcurrentSpansProduceValidTraceJson) {
  const TracerReset reset;
  obs::Tracer::instance().enable();

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::set_thread_name("obs.test.worker");
      for (int i = 0; i < kSpansPerThread; ++i) {
        const obs::TraceSpan span("obs.test.span", "thread", static_cast<std::uint64_t>(t),
                                  "i", static_cast<std::uint64_t>(i));
        obs::instant("obs.test.tick", "i", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  obs::span_between("obs.test.between", 100, 250, "arg", 7);

  EXPECT_EQ(obs::Tracer::instance().event_count(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2 + 1));
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);

  const std::string json = obs::Tracer::instance().to_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // Thread metadata rows carry the set_thread_name label.
  EXPECT_GE(count_occurrences(json, "\"ph\": \"M\""), static_cast<std::size_t>(kThreads));
  EXPECT_GE(count_occurrences(json, "{\"name\": \"obs.test.worker\"}"),
            static_cast<std::size_t>(kThreads));
  // Every span/instant made it out, with dur on the X events only.
  EXPECT_EQ(count_occurrences(json, "\"name\": \"obs.test.span\""),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(count_occurrences(json, "\"name\": \"obs.test.tick\""),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""),
            static_cast<std::size_t>(kThreads * kSpansPerThread + 1));
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"i\""),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(count_occurrences(json, "\"dur\": "),
            static_cast<std::size_t>(kThreads * kSpansPerThread + 1));
  // The externally-measured span renders its fixed-point microseconds.
  EXPECT_NE(json.find("\"name\": \"obs.test.between\", \"ph\": \"X\", \"ts\": 0.100, "
                      "\"dur\": 0.150"),
            std::string::npos);
}

TEST(Tracer, RingWrapDropsOldestEventsWithoutGrowing) {
  const TracerReset reset;
  constexpr std::size_t kRing = 8;
  constexpr int kRecorded = 100;
  obs::Tracer::instance().enable(kRing);
  const auto buffers_before = obs::Tracer::buffers_created();

  std::thread worker([] {
    for (int i = 0; i < kRecorded; ++i) {
      obs::instant("obs.test.wrap", "i", static_cast<std::uint64_t>(i));
    }
  });
  worker.join();

  // One preallocated ring, overwritten in place: newest kRing survive.
  EXPECT_EQ(obs::Tracer::buffers_created(), buffers_before + 1);
  EXPECT_EQ(obs::Tracer::instance().event_count(), kRing);
  EXPECT_EQ(obs::Tracer::instance().dropped(),
            static_cast<std::uint64_t>(kRecorded) - kRing);
  const std::string json = obs::Tracer::instance().to_json();
  EXPECT_EQ(count_occurrences(json, "\"name\": \"obs.test.wrap\""), kRing);
  // Oldest-first flush: the survivors are the last kRing recorded.
  EXPECT_NE(json.find("\"args\": {\"i\": 92}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"i\": 99}"), std::string::npos);
  EXPECT_EQ(json.find("\"args\": {\"i\": 91}"), std::string::npos);

  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
  // Restore the default ring capacity for later enabling tests.
  obs::Tracer::instance().enable();
}

TEST(Metrics, HistogramBucketMathAndQuantiles) {
  obs::Histogram h(1.0, 2.0, 4);  // bounds 1, 2, 4, 8 + overflow
  ASSERT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));

  h.observe(0.5);    // (0, 1]
  h.observe(1.0);    // (0, 1] (upper bound inclusive)
  h.observe(3.0);    // (2, 4]
  h.observe(100.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.mean(), 104.5 / 4.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 0, 1, 0, 1}));

  // Rank 2 of 4 fills bucket 0 exactly: biased to its upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  // Rank 3 lands in (2, 4]; the whole rank mass sits there.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
  // The overflow bucket saturates at the largest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(obs::Histogram(1.0, 2.0, 3).quantile(0.99), 0.0);  // empty
}

TEST(Metrics, RegistrySharesInstrumentsAndExposesBoth) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("test_total", "a test counter");
  obs::Counter& b = registry.counter("test_total");
  EXPECT_EQ(&a, &b);  // one series, shared by name
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_THROW(registry.gauge("test_total"), GridError);  // kind mismatch

  registry.gauge("test_depth").set(2.5);
  obs::Histogram& h = registry.histogram("test_seconds", "", 1.0, 2.0, 2);
  h.observe(0.5);
  h.observe(100.0);

  const std::string prom = registry.expose_prometheus();
  EXPECT_NE(prom.find("# HELP test_total a test counter\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_total counter\ntest_total 3\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_depth gauge\ntest_depth 2.5\n"), std::string::npos);
  // Cumulative le buckets: 1 at le=1, still 1 at le=2, 2 at +Inf.
  EXPECT_NE(prom.find("test_seconds_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("test_seconds_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("test_seconds_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("test_seconds_count 2\n"), std::string::npos);

  const std::string json = registry.snapshot_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"test_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test_seconds_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test_seconds_p99\": "), std::string::npos);
}

TEST(Convergence, SamplerFlagsIterationCappedScenario) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  scenario::ScenarioSet set(net);
  set.add_base();  // full budget: converges
  scenario::Scenario capped;
  capped.name = "iteration-capped";
  capped.controls.max_inner_iterations = 3;
  capped.controls.max_outer_iterations = 1;
  set.add(capped);  // budget-starved: retires unconverged

  scenario::BatchAdmmSolver solver(set, params);
  scenario::BatchSolveOptions options;
  options.convergence_sample_interval = 1;
  const auto report = solver.solve(options);

  ASSERT_EQ(report.convergence.size(), 2u);
  const auto& healthy = report.convergence[0];
  const auto& starved = report.convergence[1];

  EXPECT_EQ(healthy.scenario, 0);
  EXPECT_TRUE(healthy.converged);
  EXPECT_FALSE(healthy.hit_iteration_cap);
  ASSERT_FALSE(healthy.samples.empty());
  // Samples track the loop: iterations strictly increase, cumulative TRON
  // work and the final residual state match the solver's own stats.
  for (std::size_t k = 1; k < healthy.samples.size(); ++k) {
    EXPECT_GT(healthy.samples[k].inner_iteration, healthy.samples[k - 1].inner_iteration);
    EXPECT_GE(healthy.samples[k].tron_iterations, healthy.samples[k - 1].tron_iterations);
  }
  EXPECT_EQ(healthy.samples.back().inner_iteration, report.stats[0].inner_iterations);
  EXPECT_DOUBLE_EQ(healthy.samples.back().primal_residual, report.stats[0].primal_residual);
  EXPECT_DOUBLE_EQ(healthy.samples.back().dual_residual, report.stats[0].dual_residual);

  EXPECT_EQ(starved.scenario, 1);
  EXPECT_FALSE(starved.converged);
  EXPECT_TRUE(starved.hit_iteration_cap);
  ASSERT_FALSE(starved.samples.empty());
  EXPECT_EQ(starved.samples.back().inner_iteration, report.stats[1].inner_iterations);
  EXPECT_LE(report.stats[1].inner_iterations, 3);
}

TEST(Convergence, TracingAndSamplingKeepIteratesBitIdentical) {
  const TracerReset reset;
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  scenario::ScenarioSet set(net);
  set.add_load_scale(4, 0.95, 1.05);

  scenario::BatchAdmmSolver plain_solver(set, params);
  const auto plain = plain_solver.solve({});
  const auto plain_solutions = plain_solver.solutions();

  obs::Tracer::instance().enable();
  scenario::BatchAdmmSolver observed_solver(set, params);
  scenario::BatchSolveOptions options;
  options.convergence_sample_interval = 1;
  const auto observed = observed_solver.solve(options);
  const auto observed_solutions = observed_solver.solutions();

  ASSERT_EQ(plain.stats.size(), observed.stats.size());
  for (std::size_t s = 0; s < plain.stats.size(); ++s) {
    EXPECT_EQ(plain.stats[s].converged, observed.stats[s].converged);
    EXPECT_EQ(plain.stats[s].inner_iterations, observed.stats[s].inner_iterations);
    EXPECT_EQ(plain.stats[s].outer_iterations, observed.stats[s].outer_iterations);
    // Bit-identical, not approximately equal: observation must not touch
    // the iterates.
    EXPECT_EQ(plain.stats[s].primal_residual, observed.stats[s].primal_residual);
    EXPECT_EQ(plain.stats[s].dual_residual, observed.stats[s].dual_residual);
    EXPECT_EQ(plain_solutions[s].vm, observed_solutions[s].vm);
    EXPECT_EQ(plain_solutions[s].va, observed_solutions[s].va);
    EXPECT_EQ(plain_solutions[s].pg, observed_solutions[s].pg);
    EXPECT_EQ(plain_solutions[s].qg, observed_solutions[s].qg);
  }
  EXPECT_EQ(plain.convergence.size(), 0u);  // off by default
  ASSERT_EQ(observed.convergence.size(), 4u);
  EXPECT_GT(obs::Tracer::instance().event_count(), 0u);
}

TEST(Serve, LifecycleSpansInstrumentsAndTrajectories) {
  const TracerReset reset;
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  obs::Tracer::instance().enable();
  serve::ServiceOptions options;
  options.convergence_sample_interval = 2;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.01;
  serve::SolveService service(net, params, options);

  constexpr int kRequests = 4;
  std::vector<std::future<serve::SolveResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    serve::SolveRequest request;
    const double factor = 0.98 + 0.01 * i;
    for (const auto& bus : net.buses) {
      request.pd.push_back(bus.pd * factor);
      request.qd.push_back(bus.qd * factor);
    }
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_TRUE(result.converged);
    // The per-request trajectory rides out of the batch solve.
    EXPECT_EQ(result.trajectory.converged, result.converged);
    EXPECT_FALSE(result.trajectory.samples.empty());
  }
  service.drain();

  // The whole request lifecycle landed on the trace, across threads.
  const std::string json = obs::Tracer::instance().to_json();
  for (const char* name : {"serve.admit", "serve.queue", "serve.dispatch", "serve.batch",
                           "serve.form", "serve.stage", "serve.solve", "serve.extract",
                           "serve.fulfill", "device.launch"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + name + "\""), std::string::npos)
        << "missing trace event: " << name;
  }
  EXPECT_NE(json.find("{\"name\": \"serve.dispatcher\"}"), std::string::npos);

  // The metrics registry agrees with the stats snapshot.
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.p95_latency, stats.p50_latency);
  EXPECT_GE(stats.p99_latency, stats.p95_latency);
  const std::string prom = service.metrics().expose_prometheus();
  EXPECT_NE(prom.find("serve_requests_submitted_total 4\n"), std::string::npos);
  EXPECT_NE(prom.find("serve_requests_completed_total 4\n"), std::string::npos);
  EXPECT_NE(prom.find("serve_latency_seconds_count 4\n"), std::string::npos);
  const std::string snapshot = service.metrics().snapshot_json();
  EXPECT_NE(snapshot.find("\"serve_latency_seconds_count\": 4"), std::string::npos);
  EXPECT_NE(snapshot.find("\"serve_batch_occupancy_count\": "), std::string::npos);
}

// ---------------------------------------------------------------------------
// SloMonitor: windowed quantiles, eviction, burn-rate verdicts, allocation
// discipline — all under hand-advanced manual time.
// ---------------------------------------------------------------------------

obs::SloObjectives test_objectives() {
  obs::SloObjectives objectives;
  objectives.latency_ceiling_seconds = 0.1;
  objectives.latency_budget_fraction = 0.10;  // 10% of requests may exceed 100 ms
  objectives.shed_budget_fraction = 0.10;
  objectives.fast_window_seconds = 10.0;
  objectives.slow_window_seconds = 60.0;
  return objectives;
}

obs::SloWindowOptions test_window() {
  obs::SloWindowOptions window;
  window.bucket_seconds = 1.0;
  window.buckets = 70;  // spans the 60 s slow window
  return window;
}

TEST(SloMonitor, WindowedQuantilesAndEviction) {
  obs::SloMonitor monitor(test_objectives(), test_window());
  // 100 fast observations at t=1s, 10 slow ones at t=2s.
  for (int i = 0; i < 100; ++i) monitor.record_latency(0.01, 1.0);
  for (int i = 0; i < 10; ++i) monitor.record_latency(0.5, 2.0);

  EXPECT_EQ(monitor.window_count(10.0, 2.0), 110u);
  // p50 sits in the fast bulk, p99 in the slow tail; interpolation is
  // upper-bound-biased so the quantile never understates.
  EXPECT_LE(monitor.quantile(0.50, 10.0, 2.0), 0.02);
  EXPECT_GE(monitor.quantile(0.99, 10.0, 2.0), 0.1);

  // The fast window slides: at t=11.5 the t=1 bucket has aged out of a
  // 10 s window but the t=2 bucket has not.
  EXPECT_EQ(monitor.window_count(10.0, 11.5), 10u);
  // And everything is still visible to the slow window.
  EXPECT_EQ(monitor.window_count(60.0, 11.5), 110u);
  // Far future: all evicted.
  EXPECT_EQ(monitor.window_count(60.0, 500.0), 0u);
}

TEST(SloMonitor, RingRotationReclaimsOldBuckets) {
  obs::SloWindowOptions window = test_window();
  obs::SloMonitor monitor(test_objectives(), window);
  // Wrap the ring several times; counts must never accumulate across laps.
  const double lap = window.bucket_seconds * window.buckets;
  for (int round = 0; round < 3; ++round) {
    monitor.record_latency(0.01, 5.0 + round * lap);
  }
  EXPECT_EQ(monitor.window_count(10.0, 5.0 + 2 * lap), 1u);
}

TEST(SloMonitor, BurnRateBreachNeedsBothWindowsAndRecovers) {
  obs::SloMonitor monitor(test_objectives(), test_window());

  // Healthy traffic: everything under the ceiling.
  for (int t = 0; t < 5; ++t) {
    for (int i = 0; i < 10; ++i) monitor.record_latency(0.01, 1.0 + t);
  }
  obs::SloVerdict verdict = monitor.evaluate(5.0);
  EXPECT_TRUE(verdict.healthy);
  EXPECT_TRUE(verdict.latency.enabled);
  EXPECT_EQ(verdict.latency.fast_burn, 0.0);

  // Violations in the fast window only: 50% bad over budget 10% = burn 5
  // in BOTH windows here (same young data) -> breached.
  for (int i = 0; i < 10; ++i) monitor.record_latency(0.5, 6.0);
  verdict = monitor.evaluate(6.5);
  EXPECT_GT(verdict.latency.fast_burn, 1.0);
  EXPECT_GT(verdict.latency.slow_burn, 1.0);
  EXPECT_TRUE(verdict.latency.breached);
  EXPECT_FALSE(verdict.healthy);

  // 15 s later the bad burst has left the fast window (good traffic took
  // its place) while the slow window still remembers it: fast recovered,
  // so the breach clears — one window under threshold is enough.
  for (int t = 0; t < 12; ++t) {
    for (int i = 0; i < 20; ++i) monitor.record_latency(0.01, 7.0 + t);
  }
  verdict = monitor.evaluate(19.5);
  EXPECT_LE(verdict.latency.fast_burn, 1.0);
  EXPECT_GT(verdict.latency.slow_burn, 0.0);
  EXPECT_FALSE(verdict.latency.breached);
  EXPECT_TRUE(verdict.healthy);
}

TEST(SloMonitor, ShedObjectiveBurnsAgainstOfferedTraffic) {
  obs::SloMonitor monitor(test_objectives(), test_window());
  // 50% shed against a 10% budget: burn 5 in both windows.
  for (int i = 0; i < 10; ++i) {
    monitor.record_latency(0.01, 2.0);
    monitor.record_shed(2.0);
  }
  const obs::SloVerdict verdict = monitor.evaluate(3.0);
  EXPECT_TRUE(verdict.shed.enabled);
  EXPECT_NEAR(verdict.fast_shed_fraction, 0.5, 1e-12);
  EXPECT_TRUE(verdict.shed.breached);
  EXPECT_FALSE(verdict.healthy);
  EXPECT_NE(verdict.to_json(monitor.objectives()).find("\"healthy\": false"),
            std::string::npos);
}

TEST(SloMonitor, SteadyStateRecordingAndEvaluationAllocateNothing) {
  obs::SloWindowOptions window = test_window();
  obs::SloMonitor monitor(test_objectives(), window);
  const std::uint64_t after_construction = obs::SloMonitor::allocations();
  // Record across several ring laps (forcing rotations) and evaluate
  // repeatedly: the construction counter must not move.
  const double lap = window.bucket_seconds * window.buckets;
  for (int round = 0; round < 4; ++round) {
    for (int t = 0; t < 20; ++t) {
      monitor.record_latency(0.001 * (t + 1), round * lap + t);
      monitor.record_shed(round * lap + t);
    }
    monitor.evaluate(round * lap + 20.0);
    EXPECT_GE(monitor.quantile(0.99, 10.0, round * lap + 20.0), 0.0);
  }
  EXPECT_EQ(obs::SloMonitor::allocations(), after_construction);
}

TEST(SloMonitor, GaugesFollowTheVerdict) {
  obs::MetricsRegistry registry;
  obs::SloMonitor monitor(test_objectives(), test_window());
  monitor.bind_gauges(registry);
  for (int i = 0; i < 10; ++i) monitor.record_latency(0.5, 1.0);
  monitor.evaluate(1.5);
  const std::string prom = registry.expose_prometheus();
  EXPECT_NE(prom.find("slo_healthy 0"), std::string::npos);
  EXPECT_NE(prom.find("slo_latency_burn_fast"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Watchdog: stall detection fires on silent busy threads and clears on the
// next beat; idle threads never trip it.
// ---------------------------------------------------------------------------

TEST(Watchdog, BusySilenceTripsAndNextBeatClears) {
  obs::Watchdog watchdog;
  const int worker = watchdog.register_slot("worker");
  const std::uint64_t t0 = obs::now_ns();
  constexpr double kStall = 5.0;
  constexpr auto kSecond = static_cast<std::uint64_t>(1e9);

  // Idle: healthy regardless of elapsed time.
  EXPECT_TRUE(watchdog.healthy(t0 + 100 * kSecond, kStall));

  // Busy and recently beaten: healthy. Silent past the deadline: tripped.
  watchdog.set_idle(worker, false);
  watchdog.beat(worker, t0);
  EXPECT_TRUE(watchdog.healthy(t0 + 4 * kSecond, kStall));
  EXPECT_FALSE(watchdog.healthy(t0 + 6 * kSecond, kStall));
  const std::string unhealthy = watchdog.healthz_json(t0 + 6 * kSecond, kStall);
  EXPECT_NE(unhealthy.find("\"healthy\": false"), std::string::npos);
  EXPECT_NE(unhealthy.find("\"name\": \"worker\""), std::string::npos);

  // The next beat clears the stall; going idle keeps it healthy forever.
  watchdog.beat(worker, t0 + 7 * kSecond);
  EXPECT_TRUE(watchdog.healthy(t0 + 8 * kSecond, kStall));
  watchdog.set_idle(worker, true);
  EXPECT_TRUE(watchdog.healthy(t0 + 1000 * kSecond, kStall));
}

// ---------------------------------------------------------------------------
// ExpoServer: raw-socket GETs against a live endpoint.
// ---------------------------------------------------------------------------

std::string http_get(int port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ExpoServer, ServesRegisteredPathsAnd404s) {
  obs::ExpoServer server;  // ephemeral loopback port
  server.handle("/metrics", [] {
    return obs::ExpoResponse{200, "text/plain", "metric_a 1\n"};
  });
  server.handle("/unhealthy", [] {
    return obs::ExpoResponse{503, "application/json", "{\"healthy\": false}"};
  });
  server.start();
  ASSERT_GT(server.port(), 0);

  const std::string ok = http_get(server.port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 11"), std::string::npos);
  EXPECT_NE(ok.find("metric_a 1\n"), std::string::npos);

  const std::string sad = http_get(server.port(), "GET /unhealthy HTTP/1.1");
  EXPECT_NE(sad.find("HTTP/1.1 503"), std::string::npos);

  const std::string missing = http_get(server.port(), "GET /nope HTTP/1.1");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  const std::string posted = http_get(server.port(), "POST /metrics HTTP/1.1");
  EXPECT_NE(posted.find("HTTP/1.1 405"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
}

}  // namespace
}  // namespace gridadmm
