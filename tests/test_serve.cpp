// Solve service semantics: coalescing correctness (batched == direct),
// warm-start cache behavior, admission control, drain under concurrency,
// telemetry, and the launch-count acceptance bar for >= 8 concurrent
// requests.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admm/solver.hpp"
#include "common/error.hpp"
#include "device/fault.hpp"
#include "grid/cases.hpp"
#include "ipm/ipm_solver.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "opf/service.hpp"
#include "scenario/ipm_engine.hpp"
#include "scenario/scenario_set.hpp"
#include "serve/service.hpp"
#include "serve/solution_cache.hpp"
#include "serve/stats.hpp"

namespace gridadmm::serve {
namespace {

double rel_diff(double a, double b) { return std::abs(a - b) / std::max(1.0, std::abs(b)); }

std::vector<double> scaled(const std::vector<double>& base, double factor) {
  std::vector<double> out = base;
  for (double& v : out) v *= factor;
  return out;
}

struct CaseLoads {
  std::vector<double> pd, qd;
};

CaseLoads base_loads(const grid::Network& net) {
  CaseLoads loads;
  for (const auto& bus : net.buses) {
    loads.pd.push_back(bus.pd);
    loads.qd.push_back(bus.qd);
  }
  return loads;
}

TEST(SolveService, BatchedRequestsMatchDirectSolves) {
  // Requests coalesced into one fused micro-batch must reproduce direct
  // single-instance AdmmSolver results to 1e-6 relative.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 6;
  options.batching_window_seconds = 0.25;
  options.cache.capacity = 0;  // this test is about the solver path alone
  SolveService service(net, params, options);

  const std::vector<double> factors = {0.94, 0.97, 1.0, 1.02, 1.05, 1.08};
  std::vector<std::future<SolveResult>> futures;
  for (const double f : factors) {
    SolveRequest request;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    futures.push_back(service.submit(std::move(request)));
  }
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const auto result = futures[i].get();
    EXPECT_TRUE(result.converged);

    admm::AdmmSolver direct(net, params);
    direct.set_loads(scaled(loads.pd, factors[i]), scaled(loads.qd, factors[i]));
    const auto direct_stats = direct.solve();
    const auto quality = grid::evaluate_solution(
        [&] {
          grid::Network eval = net;
          for (int b = 0; b < eval.num_buses(); ++b) {
            eval.buses[static_cast<std::size_t>(b)].pd = loads.pd[static_cast<std::size_t>(b)] * factors[i];
            eval.buses[static_cast<std::size_t>(b)].qd = loads.qd[static_cast<std::size_t>(b)] * factors[i];
          }
          return eval;
        }(),
        direct.solution());
    SCOPED_TRACE("factor " + std::to_string(factors[i]));
    EXPECT_EQ(result.stats.inner_iterations, direct_stats.inner_iterations);
    EXPECT_DOUBLE_EQ(result.stats.primal_residual, direct_stats.primal_residual);
    EXPECT_LT(rel_diff(result.objective, quality.objective), 1e-6);
    EXPECT_LT(rel_diff(result.max_violation, quality.max_violation), 1e-6);
  }
}

TEST(SolveService, CoalescingIssuesFewerLaunchesThanSequentialForEightRequests) {
  // The acceptance bar: >= 8 concurrent requests coalesced by the service
  // must issue fewer total kernel launches than per-request sequential
  // solves (LaunchStats attribution on dedicated devices).
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);
  constexpr int kRequests = 8;

  ServiceOptions options;
  options.max_batch_size = kRequests;
  options.batching_window_seconds = 1.0;  // generous: the burst must coalesce
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    const double f = 0.94 + 0.02 * i;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.batch_occupancy, kRequests);  // one batch served all 8
  }
  service.drain();
  const auto stats = service.stats();
  ASSERT_EQ(stats.batches, 1u);

  // Per-request sequential baseline on its own device.
  device::Device sequential_device(options.device_workers);
  for (int i = 0; i < kRequests; ++i) {
    admm::AdmmSolver solver(net, params, &sequential_device);
    const double f = 0.94 + 0.02 * i;
    solver.set_loads(scaled(loads.pd, f), scaled(loads.qd, f));
    solver.solve();
  }
  EXPECT_GT(stats.launch_stats.launches, 0u);
  EXPECT_LT(stats.launch_stats.launches, sequential_device.stats().launches);
}

TEST(SolveService, CacheHitWarmStartReducesIterations) {
  // A request whose loads sit near a cached solve is seeded from that
  // iterate and must converge in fewer ADMM iterations than a cold start
  // on the same perturbed load (the paper's tracking warm start, served).
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 1;  // isolate requests: one batch each
  options.batching_window_seconds = 0.0;
  options.cache.capacity = 8;
  options.cache.max_distance = 0.1;
  SolveService service(net, params, options);

  SolveRequest first;
  first.pd = loads.pd;
  first.qd = loads.qd;
  const auto cold = service.submit(std::move(first)).get();
  ASSERT_TRUE(cold.converged);
  EXPECT_FALSE(cold.cache_hit);

  SolveRequest second;
  second.pd = scaled(loads.pd, 1.02);
  second.qd = scaled(loads.qd, 1.02);
  const auto warm = service.submit(std::move(second)).get();
  ASSERT_TRUE(warm.converged);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_GT(warm.cache_distance, 0.0);

  // Cold-start reference for the same perturbed instance.
  admm::AdmmSolver reference(net, params);
  reference.set_loads(scaled(loads.pd, 1.02), scaled(loads.qd, 1.02));
  const auto reference_stats = reference.solve();
  ASSERT_TRUE(reference_stats.converged);
  EXPECT_LT(warm.stats.inner_iterations, reference_stats.inner_iterations);

  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.5);
}

TEST(SolveService, BypassCacheSkipsLookupAndInsertion) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  ServiceOptions options;
  options.max_batch_size = 1;
  options.batching_window_seconds = 0.0;
  SolveService service(net, params, options);

  SolveRequest request;
  request.bypass_cache = true;
  const auto result = service.submit(std::move(request)).get();
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.cache_hit);
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(SolveService, BoundedQueueShedsWithCapacityError) {
  // Admission control: beyond max_queue_depth pending requests, submit()
  // sheds synchronously with CapacityError and nothing is enqueued.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  ServiceOptions options;
  options.max_batch_size = 8;
  options.batching_window_seconds = 30.0;  // hold the batch open: queue fills
  options.max_queue_depth = 3;
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(service.submit(SolveRequest{}));
  EXPECT_THROW(service.submit(SolveRequest{}), CapacityError);
  EXPECT_THROW(service.submit(SolveRequest{}), CapacityError);

  service.drain();  // flushes the held batch immediately
  for (auto& future : futures) EXPECT_TRUE(future.get().converged);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(SolveService, DrainCompletesAllAcceptedUnderConcurrentSubmitters) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.005;
  options.max_queue_depth = 1024;  // nothing sheds in this test
  SolveService service(net, params, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::vector<std::vector<std::future<SolveResult>>> futures(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SolveRequest request;
        const double f = 0.95 + 0.002 * (t * kPerThread + i);
        request.pd = scaled(loads.pd, f);
        request.qd = scaled(loads.qd, f);
        futures[static_cast<std::size_t>(t)].push_back(service.submit(std::move(request)));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0);
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      EXPECT_TRUE(future.get().converged);
    }
  }
  // Every request landed in some batch; occupancies account for all of them.
  EXPECT_EQ(stats.batched_requests, stats.submitted);

  // Draining is permanent: later submissions shed.
  EXPECT_THROW(service.submit(SolveRequest{}), CapacityError);
}

TEST(SolveService, HeterogeneousControlsApplyPerRequest) {
  // One batch mixing a budget-capped request with a default one: the capped
  // request must stop inside its own budget without affecting its neighbor.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  ServiceOptions options;
  options.max_batch_size = 2;
  options.batching_window_seconds = 0.5;
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  SolveRequest capped;
  capped.controls.max_inner_iterations = 10;
  capped.controls.max_outer_iterations = 2;
  SolveRequest standard;
  auto capped_future = service.submit(std::move(capped));
  auto standard_future = service.submit(std::move(standard));

  const auto capped_result = capped_future.get();
  const auto standard_result = standard_future.get();
  EXPECT_EQ(capped_result.batch_id, standard_result.batch_id);
  EXPECT_FALSE(capped_result.converged);
  EXPECT_LE(capped_result.stats.inner_iterations, 20);
  EXPECT_TRUE(standard_result.converged);
}

TEST(SolveService, RejectsMalformedRequestsSynchronously) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ServiceOptions options;
  options.batching_window_seconds = 0.0;
  SolveService service(net, params, options);

  SolveRequest wrong_size;
  wrong_size.pd = {1.0, 2.0};
  wrong_size.qd = {1.0, 2.0};
  EXPECT_THROW(service.submit(std::move(wrong_size)), ValidationError);

  SolveRequest bad_outage;
  bad_outage.outage_branch = 999;
  EXPECT_THROW(service.submit(std::move(bad_outage)), ValidationError);

  SolveRequest nan_load;
  nan_load.pd.assign(static_cast<std::size_t>(net.num_buses()), 0.1);
  nan_load.qd.assign(static_cast<std::size_t>(net.num_buses()), 0.1);
  nan_load.pd[0] = std::nan("");
  EXPECT_THROW(service.submit(std::move(nan_load)), ValidationError);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 0u);
}

TEST(SolveService, ManualClockFeedsLatencyTelemetry) {
  // The injected clock drives latency accounting only: advance it while the
  // batching window holds the request, and the recorded wait/total latency
  // reflect the manual time exactly.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  auto clock = std::make_shared<ManualClock>();

  ServiceOptions options;
  options.max_batch_size = 4;
  // A window the test never waits out: the batch stays open (1 < 4 pending)
  // until drain() flushes it, so advance() below is deterministically
  // ordered before the dispatch-time clock read.
  options.batching_window_seconds = 3600.0;
  options.clock = clock;
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  auto future = service.submit(SolveRequest{});
  clock->advance(2.5);  // while the window holds the batch open
  service.drain();      // flushes the held batch immediately
  const auto result = future.get();
  EXPECT_DOUBLE_EQ(result.wait_seconds, 2.5);
  EXPECT_DOUBLE_EQ(result.total_seconds, 2.5);

  const auto stats = service.stats();
  EXPECT_EQ(stats.latency_samples, 1u);
  // The histogram keeps the exact sum; its quantiles read the upper bound
  // of the bucket holding 2.5 (1e-5 * 2^18).
  EXPECT_NE(service.metrics().expose_prometheus().find("serve_latency_seconds_sum 2.5\n"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(stats.p50_latency, 2.62144);
  EXPECT_DOUBLE_EQ(stats.p95_latency, 2.62144);
}

TEST(SolveService, StatsCountARequestOnceItsFutureIsReady) {
  // Every fact about a request is recorded before its future is made
  // ready, so stats() read right after get() includes it — no drain().
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  ServiceOptions options;
  options.max_batch_size = 1;  // one request, one batch
  options.batching_window_seconds = 0.0;
  options.cache.capacity = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SolveService service(net, params, options);
    auto future = service.submit(SolveRequest{});
    // Poll rather than block, so stats() runs the moment the future is
    // ready: the tightest race against a commit made after it.
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    }
    EXPECT_TRUE(future.get().converged);
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.completed_admm, 1u);
    EXPECT_EQ(stats.latency_samples, 1u);
    EXPECT_EQ(stats.batches, 1u);
    ASSERT_EQ(stats.per_shard.size(), 1u);
    EXPECT_EQ(stats.per_shard[0].requests, 1u);
  }
}

TEST(SolveService, RequestsAgainstDifferentCasesNeverShareABatch) {
  const auto net9 = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net9.num_buses());
  auto net14 = std::make_shared<grid::Network>(grid::load_embedded_case("case14"));

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.3;
  options.cache.capacity = 0;
  SolveService service(net9, params, options);

  auto base_future = service.submit(SolveRequest{});
  SolveRequest other;
  other.network = net14;
  auto other_future = service.submit(std::move(other));

  const auto base_result = base_future.get();
  const auto other_result = other_future.get();
  EXPECT_NE(base_result.batch_id, other_result.batch_id);
  EXPECT_EQ(base_result.batch_occupancy, 1);
  EXPECT_EQ(other_result.batch_occupancy, 1);
  EXPECT_TRUE(base_result.converged);
  EXPECT_TRUE(other_result.converged);
  EXPECT_EQ(static_cast<int>(other_result.solution.vm.size()), net14->num_buses());
}

TEST(SolveService, MultiDeviceRoutesBatchesToIdleShard) {
  // Two pool devices: while one shard is busy with a slow solve, a second
  // micro-batch must be taken by the idle shard (work-conserving
  // dispatch); per-shard attribution sums to the aggregate figures.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 1;  // one batch per request
  options.batching_window_seconds = 0.0;
  options.num_devices = 2;
  options.device_workers = 2;
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  // A deliberately slow request: unreachable tolerance, large budget. The
  // first two outer iterations end at the scheduled inner tolerance (92 and
  // 323 inner iterations); the third spends its whole inner budget, 5,415
  // iterations in all, long enough for the 1-ms poll below to see it in
  // flight.
  SolveRequest slow;
  slow.pd = loads.pd;
  slow.qd = loads.qd;
  slow.controls.primal_tolerance = 1e-14;
  slow.controls.dual_tolerance = 1e-14;
  slow.controls.max_inner_iterations = 5000;
  slow.controls.max_outer_iterations = 3;
  auto slow_future = service.submit(std::move(slow));
  // Wait until the slow batch is actually solving on some shard before
  // submitting the fast one, so the idle-shard pick is deterministic.
  auto solving = [&] {
    const auto stats = service.stats();
    return stats.per_shard[0].in_flight + stats.per_shard[1].in_flight;
  };
  for (int i = 0; i < 2000 && solving() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(solving(), 1);

  SolveRequest fast;
  fast.pd = scaled(loads.pd, 1.01);
  fast.qd = scaled(loads.qd, 1.01);
  const auto fast_result = service.submit(std::move(fast)).get();
  EXPECT_TRUE(fast_result.converged);
  slow_future.get();
  service.drain();

  const auto stats = service.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_EQ(stats.batches, 2u);
  // Work-conserving routing: with one shard occupied by the slow batch,
  // the fast batch must have landed on the other — one batch each.
  EXPECT_EQ(stats.per_shard[0].batches, 1u);
  EXPECT_EQ(stats.per_shard[1].batches, 1u);
  EXPECT_EQ(stats.dispatch_backlog, 0);
  std::uint64_t shard_batches = 0, shard_requests = 0;
  device::LaunchStats shard_launches;
  for (const auto& shard : stats.per_shard) {
    shard_batches += shard.batches;
    shard_requests += shard.requests;
    shard_launches += shard.launch_stats;
    EXPECT_EQ(shard.in_flight, 0);
  }
  EXPECT_EQ(shard_batches, stats.batches);
  EXPECT_EQ(shard_requests, stats.completed);
  EXPECT_EQ(shard_launches.launches, stats.launch_stats.launches);
  EXPECT_EQ(shard_launches.blocks, stats.launch_stats.blocks);
}

TEST(SolveService, MultiDevicePoolServesConcurrentBurstConsistently) {
  // A concurrent burst over a 2-device pool: every request is fulfilled,
  // per-shard counters reconcile with the aggregates, and results still
  // match the single-solver reference (routing must not change math).
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 2;
  options.batching_window_seconds = 0.001;
  options.num_devices = 2;
  options.device_workers = 2;
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  constexpr int kRequests = 10;
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    const double f = 0.95 + 0.01 * i;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().converged);
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.failed, 0u);
  std::uint64_t shard_requests = 0;
  for (const auto& shard : stats.per_shard) shard_requests += shard.requests;
  EXPECT_EQ(shard_requests, stats.completed);

  // Spot-check one result against a direct solve.
  admm::AdmmSolver direct(net, params);
  direct.set_loads(scaled(loads.pd, 0.95), scaled(loads.qd, 0.95));
  direct.solve();
  const auto direct_quality = grid::evaluate_solution(
      [&] {
        grid::Network eval = net;
        for (int b = 0; b < eval.num_buses(); ++b) {
          eval.buses[static_cast<std::size_t>(b)].pd = loads.pd[static_cast<std::size_t>(b)] * 0.95;
          eval.buses[static_cast<std::size_t>(b)].qd = loads.qd[static_cast<std::size_t>(b)] * 0.95;
        }
        return eval;
      }(),
      direct.solution());
  SolveRequest check;
  check.pd = scaled(loads.pd, 0.95);
  check.qd = scaled(loads.qd, 0.95);
  // Service is drained; a fresh one verifies the math end to end.
  SolveService fresh(net, params, options);
  const auto result = fresh.submit(std::move(check)).get();
  EXPECT_LT(rel_diff(result.objective, direct_quality.objective), 1e-6);
}

TEST(SolutionCache, NearestNeighborWithinMaxDistance) {
  CacheOptions options;
  options.capacity = 4;
  options.max_distance = 0.05;
  SolutionCache cache(options);

  auto iterate_a = std::make_shared<admm::WarmStartIterate>();
  iterate_a->beta = 1.0;
  auto iterate_b = std::make_shared<admm::WarmStartIterate>();
  iterate_b->beta = 2.0;
  cache.insert(7, {1.0, 1.0}, {0.2, 0.2}, iterate_a);
  cache.insert(7, {1.10, 1.10}, {0.2, 0.2}, iterate_b);

  // Nearest to (1.04, ...) is iterate_a at distance 0.04.
  const auto hit = cache.lookup(7, std::vector<double>{1.04, 1.0}, std::vector<double>{0.2, 0.2});
  ASSERT_NE(hit.iterate, nullptr);
  EXPECT_DOUBLE_EQ(hit.iterate->beta, 1.0);
  EXPECT_NEAR(hit.distance, 0.04, 1e-12);

  // Beyond max_distance from both entries: miss.
  const auto miss = cache.lookup(7, std::vector<double>{1.3, 1.3}, std::vector<double>{0.2, 0.2});
  EXPECT_EQ(miss.iterate, nullptr);

  // Different key: miss even at distance zero.
  const auto wrong_key =
      cache.lookup(8, std::vector<double>{1.0, 1.0}, std::vector<double>{0.2, 0.2});
  EXPECT_EQ(wrong_key.iterate, nullptr);

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SolutionCache, LruEvictionRespectsCapacity) {
  CacheOptions options;
  options.capacity = 2;
  options.max_distance = 0.01;
  SolutionCache cache(options);
  auto iterate = std::make_shared<admm::WarmStartIterate>();

  cache.insert(1, {1.0}, {0.0}, iterate);
  cache.insert(1, {2.0}, {0.0}, iterate);
  // Touch entry {1.0} so {2.0} is the LRU victim.
  ASSERT_NE(cache.lookup(1, std::vector<double>{1.0}, std::vector<double>{0.0}).iterate, nullptr);
  cache.insert(1, {3.0}, {0.0}, iterate);

  EXPECT_EQ(cache.size(), 2);
  EXPECT_NE(cache.lookup(1, std::vector<double>{1.0}, std::vector<double>{0.0}).iterate, nullptr);
  EXPECT_EQ(cache.lookup(1, std::vector<double>{2.0}, std::vector<double>{0.0}).iterate, nullptr);
  EXPECT_NE(cache.lookup(1, std::vector<double>{3.0}, std::vector<double>{0.0}).iterate, nullptr);

  // Identical loads replace in place instead of growing the cache.
  auto newer = std::make_shared<admm::WarmStartIterate>();
  newer->beta = 42.0;
  cache.insert(1, {3.0}, {0.0}, newer);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_DOUBLE_EQ(
      cache.lookup(1, std::vector<double>{3.0}, std::vector<double>{0.0}).iterate->beta, 42.0);
}

TEST(SolutionCache, EvictingTheInsertKeysOwnSoleEntryIsSafe) {
  // Regression: at capacity, inserting different loads under a key whose
  // sole entry is the global LRU victim must evict that entry (erasing the
  // key's bucket) and then insert cleanly — not write through a dangling
  // bucket reference.
  CacheOptions options;
  options.capacity = 1;
  options.max_distance = 0.01;
  SolutionCache cache(options);
  auto iterate = std::make_shared<admm::WarmStartIterate>();

  cache.insert(5, {1.0}, {0.0}, iterate);
  cache.insert(5, {2.0}, {0.0}, iterate);  // evicts {1.0}, the same key's bucket
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.lookup(5, std::vector<double>{1.0}, std::vector<double>{0.0}).iterate, nullptr);
  EXPECT_NE(cache.lookup(5, std::vector<double>{2.0}, std::vector<double>{0.0}).iterate, nullptr);
}

TEST(NetworkFingerprint, InvariantToLoadsSensitiveToStructure) {
  const auto net = grid::load_embedded_case("case9");
  auto loaded = net;
  for (auto& bus : loaded.buses) bus.pd *= 1.5;
  EXPECT_EQ(grid::network_fingerprint(net), grid::network_fingerprint(loaded));

  auto rerated = net;
  rerated.branches[0].rate *= 0.5;
  EXPECT_NE(grid::network_fingerprint(net), grid::network_fingerprint(rerated));

  const auto net14 = grid::load_embedded_case("case14");
  EXPECT_NE(grid::network_fingerprint(net), grid::network_fingerprint(net14));
}

TEST(OpfService, FacadeServesScaledAndContingencyRequests) {
  serve::ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.05;
  opf::OpfService service("case9", options);

  auto scaled_future = service.solve_scaled(1.03);
  auto outage_future = service.solve_contingency(4);
  const auto scaled_result = scaled_future.get();
  const auto outage_result = outage_future.get();
  EXPECT_TRUE(scaled_result.converged);
  EXPECT_TRUE(outage_result.converged);
  EXPECT_GT(scaled_result.objective, 0.0);
  // The outage solves a different structural key: never the same batch.
  EXPECT_NE(scaled_result.batch_id, outage_result.batch_id);

  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GE(stats.p95_latency, stats.p50_latency);
}

// ---------------------------------------------------------------------------
// SLO observability layer (DESIGN.md §11): request timelines, burn-rate
// monitor wiring, the exposition endpoint, and the disabled-path guarantees.
// ---------------------------------------------------------------------------

std::string serve_http_get(int port, const std::string& request_line) {
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

TEST(SolveService, TimelineStagesTelescopeAndFeedStageHistograms) {
  // With the SLO layer on, every fulfilled request carries a complete
  // monotone timeline whose stage durations telescope to exactly the
  // admit->fulfill total (the stamps are shared, so nothing can drift), and
  // each stage's latency lands in its per-stage histogram.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.01;
  options.cache.capacity = 0;
  options.slo = true;
  SolveService service(net, params, options);

  const std::vector<double> factors = {0.97, 1.0, 1.03};
  std::vector<std::future<SolveResult>> futures;
  for (const double f : factors) {
    SolveRequest request;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) {
    const auto result = future.get();
    const auto& tl = result.timeline;
    EXPECT_TRUE(tl.complete());
    EXPECT_GT(tl.total_seconds(), 0.0);
    double stage_sum = 0.0;
    for (int st = 0; st < RequestTimeline::kStageCount; ++st) {
      EXPECT_GE(tl.stage_seconds(st), 0.0) << RequestTimeline::stage_name(st);
      stage_sum += tl.stage_seconds(st);
    }
    // Telescoping is exact at nanosecond resolution; the double sum only
    // re-rounds it.
    EXPECT_NEAR(stage_sum, tl.total_seconds(), 1e-12);
    const auto stamps = tl.stamps();
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      EXPECT_GE(stamps[i], stamps[i - 1]) << "stamp " << i;
    }
  }
  service.drain();

  const std::string prom = service.metrics().expose_prometheus();
  for (int st = 0; st < RequestTimeline::kStageCount; ++st) {
    const std::string needle = std::string("serve_stage_") +
                               RequestTimeline::stage_name(st) + "_seconds_count 3";
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST(SolveService, ExpoEndpointsAgreeWithServiceStats) {
  // /metrics, /healthz, and /slo answer from the same counters, watchdog,
  // and monitor the in-process accessors read — scrape a live service and
  // cross-check against stats().
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.01;
  options.cache.capacity = 0;
  options.slo = true;
  options.expo_port = 0;  // ephemeral loopback port
  SolveService service(net, params, options);
  ASSERT_NE(service.expo(), nullptr);
  ASSERT_GT(service.expo()->port(), 0);

  std::vector<std::future<SolveResult>> futures;
  for (const double f : {0.96, 1.0, 1.04, 1.08}) {
    SolveRequest request;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) future.get();
  service.drain();
  const auto stats = service.stats();

  const std::string metrics =
      serve_http_get(service.expo()->port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("serve_requests_submitted_total " +
                         std::to_string(stats.submitted)),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_requests_completed_total " +
                         std::to_string(stats.completed)),
            std::string::npos);

  // stats() reads the registry /metrics renders: every counter equals its
  // series.
  const std::pair<std::string, std::uint64_t> counters[] = {
      {"serve_requests_submitted_total", stats.submitted},
      {"serve_requests_shed_total", stats.shed},
      {"serve_requests_drain_shed_total", stats.drain_shed},
      {"serve_deadline_shed_total", stats.deadline_shed},
      {"serve_requests_completed_total", stats.completed},
      {"serve_requests_failed_total", stats.failed},
      {"serve_retries_total", stats.retries},
      {"serve_bisections_total", stats.bisections},
      {"serve_escalation_retries_total", stats.escalation_retries},
      {"serve_escalation_recovered_total", stats.escalation_recovered},
      {"serve_quarantine_transitions_total", stats.quarantine_transitions},
      {"serve_engine_admm_completed_total", stats.completed_admm},
      {"serve_engine_escalated_admm_completed_total", stats.completed_escalated_admm},
      {"serve_engine_ipm_completed_total", stats.completed_ipm},
      {"serve_engine_ipm_attempts_total", stats.ipm_attempts},
      {"serve_engine_ipm_failures_total", stats.ipm_failures},
      {"serve_batches_total", stats.batches},
      {"serve_batch_occupancy_sum", stats.batched_requests},
      {"serve_latency_seconds_count", stats.latency_samples},
      {"serve_shard_0_batches_total", stats.per_shard.at(0).batches},
      {"serve_shard_0_requests_total", stats.per_shard.at(0).requests},
      {"serve_shard_0_launches_total", stats.per_shard.at(0).launch_stats.launches},
      {"serve_shard_0_blocks_total", stats.per_shard.at(0).launch_stats.blocks},
      {"serve_shard_0_quarantines_total", stats.per_shard.at(0).quarantines},
  };
  for (const auto& [name, value] : counters) {
    EXPECT_NE(metrics.find("\n" + name + " " + std::to_string(value) + "\n"), std::string::npos)
        << name << " != " << value;
  }
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_GT(stats.launch_stats.launches, 0u);
  // The latency quantiles are the histogram's, as the JSONL snapshot prints
  // them.
  const std::string snapshot = service.metrics().snapshot_json();
  const auto json_field = [&snapshot](const std::string& key) {
    const auto at = snapshot.find("\"" + key + "\": ");
    if (at == std::string::npos) return std::string("(missing)");
    const auto begin = at + key.size() + 4;
    return snapshot.substr(begin, snapshot.find_first_of(",}", begin) - begin);
  };
  const auto printed = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return std::string(buf);
  };
  EXPECT_EQ(json_field("serve_latency_seconds_p50"), printed(stats.p50_latency));
  EXPECT_EQ(json_field("serve_latency_seconds_p95"), printed(stats.p95_latency));
  EXPECT_EQ(json_field("serve_latency_seconds_p99"), printed(stats.p99_latency));

  // Every thread is idle post-drain, and idle threads are always healthy.
  const std::string healthz =
      serve_http_get(service.expo()->port(), "GET /healthz HTTP/1.1");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"healthy\": true"), std::string::npos);

  const std::string slo = serve_http_get(service.expo()->port(), "GET /slo HTTP/1.1");
  EXPECT_NE(slo.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(slo.find("\"healthy\": true"), std::string::npos);

  EXPECT_EQ(service.expo()->requests_served(), 3u);
}

TEST(SolveService, SloLayerPreservesBitIdenticalSolves) {
  // The SLO layer only observes: the same requests through an slo=true and
  // an slo=false service produce bit-identical solutions and identical
  // iteration counts.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);
  const std::vector<double> factors = {0.95, 1.0, 1.06};

  auto run = [&](bool slo) {
    ServiceOptions options;
    options.max_batch_size = static_cast<int>(factors.size());
    options.batching_window_seconds = 0.25;  // coalesce all three either way
    options.cache.capacity = 0;
    options.slo = slo;
    SolveService service(net, params, options);
    std::vector<std::future<SolveResult>> futures;
    for (const double f : factors) {
      SolveRequest request;
      request.pd = scaled(loads.pd, f);
      request.qd = scaled(loads.qd, f);
      futures.push_back(service.submit(std::move(request)));
    }
    std::vector<SolveResult> results;
    for (auto& future : futures) results.push_back(future.get());
    return results;
  };

  const auto with_slo = run(true);
  const auto without_slo = run(false);
  ASSERT_EQ(with_slo.size(), without_slo.size());
  for (std::size_t i = 0; i < with_slo.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(with_slo[i].solution.vm, without_slo[i].solution.vm);
    EXPECT_EQ(with_slo[i].solution.va, without_slo[i].solution.va);
    EXPECT_EQ(with_slo[i].solution.pg, without_slo[i].solution.pg);
    EXPECT_EQ(with_slo[i].solution.qg, without_slo[i].solution.qg);
    EXPECT_EQ(with_slo[i].objective, without_slo[i].objective);
    EXPECT_EQ(with_slo[i].stats.inner_iterations, without_slo[i].stats.inner_iterations);
    // The observing service stamped full timelines; the plain one left
    // everything past the unconditional admit stamp at zero.
    EXPECT_TRUE(with_slo[i].timeline.complete());
    EXPECT_FALSE(without_slo[i].timeline.complete());
    EXPECT_EQ(without_slo[i].timeline.solve_ns, 0u);
  }
}

TEST(SolveService, DisabledSloLayerIsInertAndAllocationFree) {
  // slo=false must not construct a monitor, an endpoint, or stage
  // histograms — the construction counter across a full service lifecycle
  // stays flat.
  const auto before = obs::SloMonitor::allocations();
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);
  {
    ServiceOptions options;
    options.max_batch_size = 2;
    options.batching_window_seconds = 0.01;
    options.cache.capacity = 0;
    SolveService service(net, params, options);
    EXPECT_EQ(service.slo(), nullptr);
    EXPECT_EQ(service.expo(), nullptr);
    std::vector<std::future<SolveResult>> futures;
    for (const double f : {0.98, 1.02}) {
      SolveRequest request;
      request.pd = scaled(loads.pd, f);
      request.qd = scaled(loads.qd, f);
      futures.push_back(service.submit(std::move(request)));
    }
    for (auto& future : futures) EXPECT_TRUE(future.get().converged);
    service.drain();
    EXPECT_EQ(service.metrics().expose_prometheus().find("serve_stage_"),
              std::string::npos);
  }
  EXPECT_EQ(obs::SloMonitor::allocations(), before);
}

TEST(MetricsDump, CapturesDetachedRegistriesAndWritesJsonl) {
  // A standalone dump (no env, no atexit): attach a registry, render it,
  // detach it — the captured final snapshot must survive the registry.
  obs::MetricsRegistry registry;
  registry.counter("dump_probe_total").inc(7);
  obs::MetricsDump dump;
  EXPECT_TRUE(dump.env_path().empty());
  dump.attach("serve_test", &registry);

  const std::string live = dump.render(/*jsonl=*/true);
  EXPECT_NE(live.find("\"registry\": \"serve_test\""), std::string::npos);
  EXPECT_NE(live.find("dump_probe_total"), std::string::npos);

  const std::string path = ::testing::TempDir() + "gridadmm_dump_test.jsonl";
  std::remove(path.c_str());
  EXPECT_TRUE(dump.write_file(path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line.front(), '{');
  EXPECT_NE(line.find("serve_test"), std::string::npos);
  std::remove(path.c_str());

  dump.detach(&registry);
  const std::string captured = dump.render(/*jsonl=*/true);
  EXPECT_NE(captured.find("\"registry\": \"serve_test\""), std::string::npos);
  EXPECT_NE(captured.find("dump_probe_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault tolerance (ISSUE 9 / DESIGN.md §12): poison isolation, transient
// retries, deadlines, and shard quarantine.
// ---------------------------------------------------------------------------

/// Arms the process-wide FaultInjector for one test scope and guarantees
/// disarm on every exit path, so a failing assertion cannot leak faults
/// into later tests.
struct FaultScope {
  explicit FaultScope(const device::FaultPlan& plan) {
    device::FaultInjector::instance().configure(plan);
  }
  ~FaultScope() { device::FaultInjector::instance().disable(); }
};

/// Loads that drive the fused iterate non-finite: they pass the submit-time
/// finiteness validation (1e308 is finite) but overflow inside the solve,
/// tripping BatchAdmmSolver's non-finite-residual trap — a permanent
/// NumericalError with no slot attribution, exactly the poison the
/// bisection machinery exists for.
SolveRequest poison_request(const grid::Network& net) {
  SolveRequest request;
  request.pd.assign(static_cast<std::size_t>(net.num_buses()), 1e308);
  request.qd.assign(static_cast<std::size_t>(net.num_buses()), 1e308);
  return request;
}

TEST(SolveService, PoisonRequestFailsAloneWhileCoBatchedRequestsConverge) {
  // One poison request coalesced with three healthy ones: the fused batch
  // fails batch-wide, the dispatcher bisects, and exactly the poison
  // future gets the NumericalError while the healthy three converge.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);
  auto clock = std::make_shared<ManualClock>();

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 3600.0;  // hold the batch open; drain flushes
  options.clock = clock;
  options.cache.capacity = 0;
  SolveService service(net, params, options);

  std::vector<std::future<SolveResult>> healthy;
  for (const double f : {0.95, 1.0, 1.05}) {
    SolveRequest request;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    healthy.push_back(service.submit(std::move(request)));
  }
  auto poisoned = service.submit(poison_request(net));
  service.drain();  // flushes all four as one micro-batch

  for (auto& future : healthy) {
    const auto result = future.get();  // must not throw
    EXPECT_TRUE(result.converged);
  }
  EXPECT_THROW(poisoned.get(), NumericalError);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_GE(stats.bisections, 1u);  // the 4-wide batch split at least once
  EXPECT_EQ(stats.deadline_shed, 0u);
}

TEST(SolveService, TransientFaultRetriesToBitIdenticalResults) {
  // A single injected transient launch failure (launch=1.0, limit=1) makes
  // the first fused attempt throw TransientDeviceError; the retry re-runs
  // the identical group from the identical seeds, so every result is
  // bit-identical to the faults-off run.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);
  const std::vector<double> factors = {0.96, 1.0, 1.04};

  auto run = [&]() {
    auto clock = std::make_shared<ManualClock>();
    ServiceOptions options;
    options.max_batch_size = static_cast<int>(factors.size());
    options.batching_window_seconds = 3600.0;
    options.clock = clock;
    options.cache.capacity = 0;
    options.retry_backoff_seconds = 0.0;  // no need to sleep in tests
    SolveService service(net, params, options);
    std::vector<std::future<SolveResult>> futures;
    for (const double f : factors) {
      SolveRequest request;
      request.pd = scaled(loads.pd, f);
      request.qd = scaled(loads.qd, f);
      futures.push_back(service.submit(std::move(request)));
    }
    service.drain();
    std::vector<SolveResult> results;
    for (auto& future : futures) results.push_back(future.get());
    const auto stats = service.stats();
    return std::make_pair(std::move(results), stats);
  };

  const auto clean = run();
  device::FaultPlan plan;
  plan.launch_fail_probability = 1.0;  // the very first launch fails...
  plan.limit = 1;                      // ...and nothing after it
  std::pair<std::vector<SolveResult>, ServiceStats> faulty;
  {
    FaultScope faults(plan);
    faulty = run();
    const auto counters = device::FaultInjector::instance().counters();
    EXPECT_EQ(counters.launch_failures, 1u);
  }

  EXPECT_EQ(clean.second.retries, 0u);
  EXPECT_EQ(faulty.second.retries, 1u);  // one transient failure, one re-attempt
  ASSERT_EQ(clean.first.size(), faulty.first.size());
  for (std::size_t i = 0; i < clean.first.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_TRUE(faulty.first[i].converged);
    EXPECT_EQ(faulty.first[i].solution.vm, clean.first[i].solution.vm);
    EXPECT_EQ(faulty.first[i].solution.va, clean.first[i].solution.va);
    EXPECT_EQ(faulty.first[i].solution.pg, clean.first[i].solution.pg);
    EXPECT_EQ(faulty.first[i].solution.qg, clean.first[i].solution.qg);
    EXPECT_EQ(faulty.first[i].objective, clean.first[i].objective);
    EXPECT_EQ(faulty.first[i].stats.inner_iterations, clean.first[i].stats.inner_iterations);
    EXPECT_EQ(faulty.first[i].solve_attempts, 2);
    EXPECT_EQ(clean.first[i].solve_attempts, 1);
  }
}

TEST(SolveService, LedgerBalancesUnderConcurrentSubmittersWithFaultsOn) {
  // Concurrent submitters against a fault-injecting service: every accepted
  // future resolves (value or typed error) and the service's ledger
  // balances exactly — completed + failed == submitted, with capacity
  // sheds accounted on the side. No future is ever lost.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  device::FaultPlan plan;
  plan.seed = 7;
  plan.launch_fail_probability = 0.002;  // a few percent per fused attempt
  plan.cooldown = 50;
  FaultScope faults(plan);

  ServiceOptions options;
  options.max_batch_size = 4;
  options.max_queue_depth = 8;  // small: concurrent bursts do shed
  options.batching_window_seconds = 0.001;
  options.cache.capacity = 0;
  options.max_retries = 1;
  options.retry_backoff_seconds = 0.0;
  SolveService service(net, params, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> completed{0}, failed{0}, shed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SolveRequest request;
        const double f = 0.9 + 0.01 * static_cast<double>(t * kPerThread + i);
        request.pd = scaled(loads.pd, f);
        request.qd = scaled(loads.qd, f);
        std::future<SolveResult> future;
        try {
          future = service.submit(std::move(request));
        } catch (const CapacityError&) {
          ++shed;
          continue;
        }
        try {
          future.get();
          ++completed;
        } catch (const GridError&) {
          ++failed;
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(completed + failed + shed, kThreads * kPerThread);  // no lost future
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(completed + failed));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
  EXPECT_EQ(stats.failed, static_cast<std::uint64_t>(failed));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.deadline_shed, 0u);
  // The ledger identity the chaos-smoke CI step asserts:
  EXPECT_EQ(stats.completed + stats.failed + stats.deadline_shed, stats.submitted);
}

TEST(SolveService, DeadlineShedsAtAdmissionAndAtDispatchPickup) {
  // First rung: a request already expired at submit is rejected
  // synchronously. Second rung: a request that expires while the batching
  // window holds it is shed with DeadlineError at dispatch pickup. Neither
  // counts as a capacity shed.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  auto clock = std::make_shared<ManualClock>(/*start=*/10.0);

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 3600.0;
  options.clock = clock;
  options.cache.capacity = 0;
  options.slo = true;
  SolveService service(net, params, options);

  // Admission rung: deadline 5.0 < now 10.0.
  SolveRequest expired;
  expired.deadline = 5.0;
  EXPECT_THROW(service.submit(std::move(expired)), DeadlineError);

  // Pickup rung: deadline 12.0 is alive at submit (now 10.0); the held
  // batch dispatches only after the clock passes it.
  SolveRequest queued;
  queued.deadline = 12.0;
  auto shed_future = service.submit(std::move(queued));
  // A deadline-free companion proves the shed is per-request, not batch-wide.
  auto alive_future = service.submit(SolveRequest{});
  clock->advance(5.0);  // now 15.0 > 12.0
  service.drain();

  EXPECT_THROW(shed_future.get(), DeadlineError);
  EXPECT_TRUE(alive_future.get().converged);

  const auto stats = service.stats();
  EXPECT_EQ(stats.deadline_shed, 2u);
  EXPECT_EQ(stats.shed, 0u);       // deadline sheds are not capacity sheds
  EXPECT_EQ(stats.submitted, 2u);  // the admission shed never entered the queue
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);     // a deadline shed is not a solve failure
  EXPECT_EQ(stats.completed + stats.failed + /*pickup sheds*/ 1u, stats.submitted);
  // The SLO monitor counts them in the separate deadline bucket, never in
  // the shed burn.
  ASSERT_NE(service.slo(), nullptr);
  EXPECT_EQ(service.slo()->window_deadline_shed(3600.0, clock->now()), 2u);
  EXPECT_EQ(service.slo()->window_shed(3600.0, clock->now()), 0u);
}

TEST(SolveService, QuarantineTripsRedistributesAndHalfOpenRecovers) {
  // Shard 1 fails every launch until the injector's limit exhausts: its
  // consecutive batch failures trip the circuit breaker, queued work
  // drains on shard 0, and after the backoff a half-open probe batch
  // re-admits shard 1 to healthy.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  device::FaultPlan plan;
  plan.launch_fail_probability = 1.0;
  plan.shard = 1;  // only shard 1's device fails
  plan.limit = 2;  // exactly the threshold: exhausted by the time it trips
  FaultScope faults(plan);

  ServiceOptions options;
  options.num_devices = 2;
  options.max_batch_size = 1;  // one request per batch: many chances to trip
  options.max_queue_depth = 64;
  options.batching_window_seconds = 0.0;
  options.cache.capacity = 0;
  options.max_retries = 0;  // every injected failure is an exhausted batch
  options.retry_backoff_seconds = 0.0;
  options.quarantine_threshold = 2;
  options.quarantine_backoff_seconds = 0.05;
  SolveService service(net, params, options);

  auto submit_one = [&](double f) {
    SolveRequest request;
    request.pd = scaled(loads.pd, f);
    request.qd = scaled(loads.qd, f);
    return service.submit(std::move(request));
  };

  // Wave 1: enough single-request batches that shard 1 (which fails in
  // microseconds and comes back for more) eats at least two of them.
  std::vector<std::future<SolveResult>> wave1;
  for (int i = 0; i < 12; ++i) wave1.push_back(submit_one(0.9 + 0.01 * i));
  int wave1_completed = 0, wave1_failed = 0;
  for (auto& future : wave1) {
    try {
      future.get();
      ++wave1_completed;
    } catch (const TransientDeviceError&) {
      ++wave1_failed;
    }
  }
  EXPECT_EQ(wave1_completed + wave1_failed, 12);
  // Redistribution: despite shard 1 failing every launch until the limit,
  // only the two breaker-tripping batches fail — the rest of the queue
  // drained on shard 0 (or on shard 1 after its recovery).
  EXPECT_EQ(wave1_failed, 2);

  auto stats = service.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_GE(stats.per_shard[1].quarantines, 1u);        // the breaker tripped
  EXPECT_GE(stats.quarantine_transitions, 1u);
  EXPECT_GT(stats.per_shard[0].requests, 0u);           // healthy shard kept serving
  EXPECT_EQ(stats.per_shard[0].requests + stats.per_shard[1].requests, 12u);

  // Give the backoff time to elapse, then feed probe batches until shard 1
  // takes one half-open probe and recovers (the injector limit is long
  // exhausted, so the probe succeeds).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  bool recovered = false;
  for (int nudge = 0; nudge < 50 && !recovered; ++nudge) {
    try {
      EXPECT_TRUE(submit_one(1.0 + 0.001 * nudge).get().converged);
    } catch (const TransientDeviceError&) {
      // A half-open probe that drew one more injected fault: the breaker
      // re-quarantines and a later nudge retries the recovery.
    }
    stats = service.stats();
    recovered = stats.per_shard[1].state == 0 && stats.per_shard[1].quarantines >= 1;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered) << "shard 1 never recovered to healthy via half-open probe";
  // quarantined -> half-open -> healthy is at least three transitions.
  EXPECT_GE(stats.quarantine_transitions, 3u);
  EXPECT_EQ(stats.per_shard[1].consecutive_failures, 0);
}

TEST(SolveService, EscalationRungRecoversStalledRequestSolo) {
  // A request whose own controls give it a hopeless iteration budget stalls
  // and gets flagged by should_escalate; the degraded-mode rung re-solves
  // it solo with a boosted budget and the future carries the recovery.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  ServiceOptions options;
  options.max_batch_size = 2;
  options.batching_window_seconds = 0.01;
  options.cache.capacity = 0;
  options.escalation_retry = true;
  options.escalation_budget_boost = 1000.0;  // 2x1 starved -> 2000x1000 boosted
  options.convergence_sample_interval = 1;  // the rung needs trajectories
  SolveService service(net, params, options);

  SolveRequest starved;
  // One inner iteration yields a single-sample trajectory: too little
  // evidence of progress, so should_escalate flags it deterministically.
  starved.controls.max_inner_iterations = 1;
  starved.controls.max_outer_iterations = 1;
  const auto result = service.submit(std::move(starved)).get();
  EXPECT_TRUE(result.escalated);
  EXPECT_TRUE(result.converged);  // the boosted solo retry finished the job

  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.escalation_retries, 1u);
  EXPECT_EQ(stats.escalation_recovered, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

/// The case30 stress recipe (scenario::StressCorpusOptions defaults) phrased
/// as a serve request: uniformly scaled loads plus a per-request iteration
/// budget tight enough that both ADMM rungs fail, while the warm-started
/// MiniIPM fallback converges.
SolveRequest stress_request(const grid::Network& net) {
  const scenario::StressCorpusOptions corpus;
  SolveRequest request;
  for (const auto& bus : net.buses) {
    request.pd.push_back(bus.pd * corpus.load_scale);
    request.qd.push_back(bus.qd * corpus.load_scale);
  }
  request.controls.max_inner_iterations = corpus.base_inner_budget;
  request.controls.max_outer_iterations = corpus.outer_budget;
  return request;
}

TEST(SolveService, StressRequestDefeatsPureAdmmButIpmRungRescues) {
  // The tentpole acceptance: a stress request that demonstrably defeats the
  // pure-ADMM ladder completes converged through the MiniIPM rung, with the
  // rescue attributed (engine, escalated, stats split) and the objective
  // agreeing with a direct MiniIPM solve of the same scenario to 1e-4.
  const auto net = grid::load_embedded_case("case30");
  const auto params = admm::params_for_case("case30", net.num_buses());

  auto run = [&](bool fallback) {
    ServiceOptions options;
    options.max_batch_size = 2;
    options.batching_window_seconds = 0.01;
    options.cache.capacity = 0;
    options.escalation_retry = true;
    options.convergence_sample_interval = 8;
    options.engine_fallback = fallback;
    SolveService service(net, params, options);
    auto result = service.submit(stress_request(net)).get();
    service.drain();
    auto stats = service.stats();
    return std::make_pair(std::move(result), std::move(stats));
  };

  // Router off: both ADMM rungs exhaust their budgets and the future is
  // fulfilled with a non-converged result — the gap the router closes.
  const auto pure = run(false);
  EXPECT_FALSE(pure.first.converged);
  EXPECT_EQ(pure.first.engine, SolveEngine::kAdmm);
  EXPECT_EQ(pure.second.completed, 1u);
  EXPECT_EQ(pure.second.ipm_attempts, 0u);

  // Router on: same request, rescued by the IPM rung.
  const auto routed = run(true);
  EXPECT_TRUE(routed.first.converged);
  EXPECT_TRUE(routed.first.escalated);
  EXPECT_EQ(routed.first.engine, SolveEngine::kIpm);
  EXPECT_LT(routed.first.max_violation, 1e-5);
  EXPECT_EQ(routed.second.completed, 1u);
  EXPECT_EQ(routed.second.completed_ipm, 1u);
  EXPECT_EQ(routed.second.completed_admm, 0u);
  EXPECT_EQ(routed.second.ipm_attempts, 1u);
  EXPECT_EQ(routed.second.ipm_failures, 0u);
  EXPECT_EQ(routed.second.completed_admm + routed.second.completed_escalated_admm +
                routed.second.completed_ipm,
            routed.second.completed);

  // Objective agreement with the direct MiniIPM path on the same scenario.
  scenario::ScenarioSet set(net);
  scenario::StressCorpusOptions corpus;
  corpus.max_outages = 0;
  set.add_stress_corpus(corpus);
  const auto direct = scenario::solve_scenario_ipm(set.network(), set[0]);
  EXPECT_NEAR(routed.first.objective, direct.quality.objective,
              1e-4 * std::abs(direct.quality.objective));
}

TEST(SolveService, IpmRungFailureSurfacesTypedConvergenceError) {
  // A request no engine can solve (hopeless loads within the finiteness
  // envelope plus a starved ADMM budget) must fail the future with the
  // typed ConvergenceError from the IPM rung — never a silently
  // non-converged "success".
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  ServiceOptions options;
  options.max_batch_size = 2;
  options.batching_window_seconds = 0.01;
  options.cache.capacity = 0;
  options.engine_fallback = true;
  SolveService service(net, params, options);

  SolveRequest hopeless;
  hopeless.pd = scaled(loads.pd, 10.0);
  hopeless.qd = scaled(loads.qd, 10.0);
  hopeless.controls.max_inner_iterations = 20;
  hopeless.controls.max_outer_iterations = 2;
  auto future = service.submit(std::move(hopeless));
  EXPECT_THROW(future.get(), ConvergenceError);
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.ipm_attempts, 1u);
  EXPECT_EQ(stats.ipm_failures, 1u);
  // The ledger holds with the failure attributed to the fallback engine.
  EXPECT_EQ(stats.completed + stats.failed + stats.deadline_shed, stats.submitted);
}

TEST(SolveService, DeadlineExpiredAtEscalationPickupShedsInsteadOfRescuing) {
  // Satellite of the router: a request whose deadline passes during the
  // fused ADMM solve is shed as a deadline miss at escalation pickup — the
  // rescue must not burn IPM time on an answer nobody can use.
  const auto net = grid::load_embedded_case("case30");
  const auto params = admm::params_for_case("case30", net.num_buses());
  auto clock = std::make_shared<SteadyClock>();

  ServiceOptions options;
  options.max_batch_size = 2;
  options.batching_window_seconds = 0.001;
  options.cache.capacity = 0;
  options.engine_fallback = true;
  options.clock = clock;
  SolveService service(net, params, options);

  // The stressed rung-1 solve takes well over 40 ms; admission and dispatch
  // pickup happen within a few ms. The deadline lands in between.
  SolveRequest request = stress_request(net);
  request.deadline = clock->now() + 0.04;
  auto future = service.submit(std::move(request));
  try {
    future.get();
    FAIL() << "expected DeadlineError";
  } catch (const DeadlineError& e) {
    EXPECT_NE(std::string(e.what()).find("escalation pickup"), std::string::npos) << e.what();
  }
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.ipm_attempts, 0u);  // the rescue never started
  EXPECT_EQ(stats.completed + stats.failed + stats.deadline_shed, stats.submitted);
}

TEST(SolveService, EngineSplitSumsUnderConcurrentSubmittersWithFaultsOn) {
  // Four concurrent submitters, faults armed, full ladder enabled, and a
  // mix of healthy and starved requests: the ledger balances and the
  // per-engine completion split sums exactly to completed — counted both
  // from the service stats and independently from the results themselves.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);

  device::FaultPlan plan;
  plan.seed = 11;
  plan.launch_fail_probability = 0.002;
  plan.cooldown = 50;
  FaultScope faults(plan);

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.001;
  options.cache.capacity = 0;
  options.max_retries = 1;
  options.retry_backoff_seconds = 0.0;
  options.escalation_retry = true;
  options.escalation_budget_boost = 1000.0;
  options.convergence_sample_interval = 1;
  options.engine_fallback = true;
  SolveService service(net, params, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::atomic<int> completed{0}, failed{0};
  std::atomic<int> by_engine[3] = {{0}, {0}, {0}};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SolveRequest request;
        const double f = 0.9 + 0.01 * static_cast<double>(t * kPerThread + i);
        request.pd = scaled(loads.pd, f);
        request.qd = scaled(loads.qd, f);
        if (i % 2 == 1) {
          // Starved budget: stalls in the fused batch, flagged by
          // should_escalate, recovered by the boosted solo rung.
          request.controls.max_inner_iterations = 1;
          request.controls.max_outer_iterations = 1;
        }
        try {
          const auto result = service.submit(std::move(request)).get();
          ++completed;
          ++by_engine[static_cast<int>(result.engine)];
          EXPECT_EQ(result.escalated, result.engine != SolveEngine::kAdmm);
        } catch (const GridError&) {
          ++failed;
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(completed + failed, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
  EXPECT_EQ(stats.completed + stats.failed + stats.deadline_shed, stats.submitted);
  // Engine split: stats agree with the per-result attribution, and sum
  // exactly to completed.
  EXPECT_EQ(stats.completed_admm, static_cast<std::uint64_t>(by_engine[0].load()));
  EXPECT_EQ(stats.completed_escalated_admm, static_cast<std::uint64_t>(by_engine[1].load()));
  EXPECT_EQ(stats.completed_ipm, static_cast<std::uint64_t>(by_engine[2].load()));
  EXPECT_EQ(stats.completed_admm + stats.completed_escalated_admm + stats.completed_ipm,
            stats.completed);
  EXPECT_GE(stats.ipm_attempts, stats.completed_ipm + stats.ipm_failures);
  // The starved half really exercised the ladder.
  EXPECT_GT(stats.completed_escalated_admm + stats.completed_ipm, 0u);
}

TEST(SolveService, DisabledRouterIsBitIdenticalAndBuildsNoFallbackEngine) {
  // engine_fallback=false must leave the serving path untouched: results
  // bit-identical to a router-enabled service on healthy load (the router
  // only ever runs on non-converged slots), and the fallback engine is
  // never even constructed — the IpmSolver construction counter stays flat
  // across the whole service lifecycle.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto loads = base_loads(net);
  const std::vector<double> factors = {0.95, 1.0, 1.06};

  auto run = [&](bool fallback) {
    ServiceOptions options;
    options.max_batch_size = static_cast<int>(factors.size());
    options.batching_window_seconds = 0.25;
    options.cache.capacity = 0;
    options.engine_fallback = fallback;
    SolveService service(net, params, options);
    std::vector<std::future<SolveResult>> futures;
    for (const double f : factors) {
      SolveRequest request;
      request.pd = scaled(loads.pd, f);
      request.qd = scaled(loads.qd, f);
      futures.push_back(service.submit(std::move(request)));
    }
    std::vector<SolveResult> results;
    for (auto& future : futures) results.push_back(future.get());
    service.drain();
    const auto stats = service.stats();
    return std::make_pair(std::move(results), stats);
  };

  const auto with_router = run(true);
  const auto before = ipm::IpmSolver::allocations();
  const auto without_router = run(false);
  EXPECT_EQ(ipm::IpmSolver::allocations(), before);  // no engine built

  ASSERT_EQ(with_router.first.size(), without_router.first.size());
  for (std::size_t i = 0; i < with_router.first.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_TRUE(without_router.first[i].converged);
    EXPECT_EQ(without_router.first[i].engine, SolveEngine::kAdmm);
    EXPECT_FALSE(without_router.first[i].escalated);
    EXPECT_EQ(with_router.first[i].solution.vm, without_router.first[i].solution.vm);
    EXPECT_EQ(with_router.first[i].solution.va, without_router.first[i].solution.va);
    EXPECT_EQ(with_router.first[i].solution.pg, without_router.first[i].solution.pg);
    EXPECT_EQ(with_router.first[i].solution.qg, without_router.first[i].solution.qg);
    EXPECT_EQ(with_router.first[i].objective, without_router.first[i].objective);
    EXPECT_EQ(with_router.first[i].stats.inner_iterations,
              without_router.first[i].stats.inner_iterations);
  }
  EXPECT_EQ(without_router.second.completed_admm, without_router.second.completed);
  EXPECT_EQ(without_router.second.ipm_attempts, 0u);
  EXPECT_EQ(without_router.second.completed_escalated_admm, 0u);
  EXPECT_EQ(without_router.second.completed_ipm, 0u);
}

TEST(SolveService, FaultsOffPathHasNoRetryTelemetry) {
  // With the injector disarmed, the whole fault-tolerance layer is inert:
  // no retries, no bisections, no quarantines, and the per-shard breaker
  // stays healthy. (Bit-identity of results is covered by
  // BatchedRequestsMatchDirectSolves and TransientFaultRetriesToBitIdenticalResults.)
  ASSERT_FALSE(device::FaultInjector::enabled());
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  ServiceOptions options;
  options.max_batch_size = 4;
  options.batching_window_seconds = 0.01;
  options.cache.capacity = 0;
  SolveService service(net, params, options);
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(service.submit(SolveRequest{}));
  for (auto& future : futures) EXPECT_TRUE(future.get().converged);

  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.bisections, 0u);
  EXPECT_EQ(stats.quarantine_transitions, 0u);
  EXPECT_EQ(stats.deadline_shed, 0u);
  for (const auto& shard : stats.per_shard) {
    EXPECT_EQ(shard.state, 0);
    EXPECT_EQ(shard.quarantines, 0u);
  }
}

TEST(SolveService, IntervalSnapshotsAppendParseableMetricsLines) {
  // metrics_snapshot_path + a short interval: the maintenance thread (and
  // the destructor's final pass) append one JSON object per line.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const std::string path = ::testing::TempDir() + "gridadmm_snapshot_test.jsonl";
  std::remove(path.c_str());
  {
    ServiceOptions options;
    options.max_batch_size = 2;
    options.batching_window_seconds = 0.01;
    options.cache.capacity = 0;
    options.metrics_snapshot_path = path;
    options.metrics_snapshot_interval_seconds = 0.05;
    SolveService service(net, params, options);
    EXPECT_TRUE(service.submit(SolveRequest{}).get().converged);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }  // destructor appends the final snapshot
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::size_t parseable = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty() && line.front() == '{' && line.back() == '}' &&
        line.find("serve_requests_submitted_total") != std::string::npos) {
      ++parseable;
    }
  }
  EXPECT_GE(parseable, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gridadmm::serve
