// Open-loop SLO load generation: Poisson arrivals against the solve
// service, per-request stage timelines, and burn-rate verdicts.
//
// The generator is OPEN-LOOP: requests are submitted on a precomputed
// exponential-inter-arrival schedule regardless of how fast earlier ones
// complete, and each request's latency is measured from its INTENDED
// arrival instant — not from when the submitting thread got around to it.
// A closed-loop generator (wait for a reply, then send) silently stops
// offering load exactly when the service is slow, hiding the queueing it
// should be measuring (coordinated omission); the intended-arrival basis
// here charges schedule slip to the service.
//
// Protocol per offered-load point (requests/sec, multi-tenant mix of the
// base case, base-case contingencies, and a second case):
//   - run the schedule for --duration seconds, count sheds (CapacityError)
//     as offered-but-rejected,
//   - report end-to-end p50/p95/p99 from intended arrival (ms), per-stage
//     p50/p95/p99 from the RequestTimeline (us), shed rate, and the
//     monitor's burn-rate verdict at the end of the run.
//
// One JSON record per load point (bench "serve_slo"); guarded by
// scripts/perf_guard.py against BENCH_serve_slo.json and validated by
// scripts/slo_check.py in CI.
//
//   ./bench_serve_slo [--rates=20,60,120] [--duration=S] [--shards=N]
//                     [--ceiling-ms=X] [--expo-port=P] [--linger=S]
//                     [--faults=SPEC] [--deadline-ms=X] [--stress]
//                     [--smoke] [--trace=PATH]
//
// --expo-port=P (>= 0) serves /metrics, /healthz, and /slo while the
// bench runs; --linger=S keeps the service (and endpoint) alive S seconds
// after the sweep so an external scraper (the CI curl check) can probe it.
//
// --faults=SPEC arms device::FaultInjector with a deterministic fault plan
// (see src/device/fault.hpp for the grammar) for the chaos-smoke CI step:
// the run then also proves the ledger — every offered request is accounted
// as completed, shed, failed, or deadline-shed, with zero lost futures.
// --deadline-ms=X stamps each request with an absolute deadline X ms after
// its INTENDED arrival, so schedule slip and queueing burn deadline budget
// exactly like they burn latency.
//
// --stress adds a case30 stress tenant (the scenario::StressCorpusOptions
// recipe: uniformly scaled loads plus per-request iteration caps that
// defeat the fused ADMM) and enables the engine router's MiniIPM rung
// (DESIGN.md §13). The JSON then also reports the per-engine completion
// split and the IPM rescue rate; scripts/slo_check.py --expect-escalation
// asserts at least one rescue happened and the split sums to completed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "device/fault.hpp"
#include "grid/cases.hpp"
#include "scenario/scenario_set.hpp"
#include "serve/service.hpp"

namespace {

using namespace gridadmm;

/// One tenant of the multi-tenant mix: a case plus an optional outage.
struct Tenant {
  std::shared_ptr<const grid::Network> network;  ///< null = the base case
  int outage_branch = -1;
  double weight = 1.0;
  /// Stress tenant (--stress): loads pinned at the calibrated stress scale
  /// (no per-arrival jitter — the corpus is tuned to defeat ADMM at exactly
  /// this point) plus per-request iteration caps.
  bool stress = false;
  double load_scale = 1.0;
  gridadmm::scenario::ScenarioControls controls;
};

struct Arrival {
  double at_seconds = 0.0;  ///< intended arrival, relative to run start
  std::size_t tenant = 0;
  double load_factor = 1.0;
};

struct RequestOutcome {
  bool shed = false;           ///< CapacityError at submit
  bool deadline_shed = false;  ///< DeadlineError (admission or pickup)
  bool failed = false;         ///< typed solve error on the future
  double intended_latency_seconds = 0.0;  ///< intended arrival -> fulfill
  serve::RequestTimeline timeline;
};

double quantile_of(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using bench::split_csv;
  const Options opts(argc, argv);
  const bool smoke = bench::smoke_mode(opts);
  std::printf("# Serve SLO: open-loop Poisson load vs declared objectives%s\n",
              smoke ? " — SMOKE mode" : "");

  std::vector<double> rates;
  for (const auto& r : split_csv(opts.get("rates", smoke ? "20,60,120" : "20,60,120,240"))) {
    rates.push_back(std::stod(r));
  }
  const double duration = opts.get_double("duration", smoke ? 2.0 : 10.0);
  const int shards = std::max(1, opts.get_int("shards", bench::env_int("GRIDADMM_SHARDS", 1)));
  const double ceiling_ms = opts.get_double("ceiling-ms", 250.0);
  const int expo_port = opts.get_int("expo-port", -1);
  const double linger = opts.get_double("linger", 0.0);
  const double deadline_ms = opts.get_double("deadline-ms", 0.0);
  const bool stress = opts.get_bool("stress", false);
  const std::string faults_spec = opts.get("faults", "");
  const bench::TraceGuard trace_guard(opts);

  if (!faults_spec.empty()) {
    device::FaultInjector::instance().configure(
        device::FaultInjector::parse_spec(faults_spec));
    std::printf("# fault plan armed: %s\n", faults_spec.c_str());
  }

  // Multi-tenant mix: intact case9 (the bulk), two case9 N-1
  // contingencies, and case14 — distinct fingerprints, so the dispatcher
  // must keep per-tenant batches apart under interleaved arrivals.
  const auto base = grid::load_case("case9");
  const auto second = std::make_shared<grid::Network>(grid::load_case("case14"));
  std::vector<int> safe_outages;  // first two non-bridge branches of case9
  for (int b = 0; b < base.num_branches() && safe_outages.size() < 2; ++b) {
    if (!grid::is_bridge(base, b)) safe_outages.push_back(b);
  }
  std::vector<Tenant> tenants;
  tenants.push_back({nullptr, -1, 0.6});
  for (const int b : safe_outages) tenants.push_back({nullptr, b, 0.1});
  tenants.push_back({second, -1, 0.2});
  if (stress) {
    // The calibrated ADMM-defeating corpus as a tenant: every request from
    // it goes down the ladder to the IPM rung.
    const scenario::StressCorpusOptions corpus;
    Tenant hard;
    hard.network = std::make_shared<grid::Network>(grid::load_case("case30"));
    hard.weight = 0.08;
    hard.stress = true;
    hard.load_scale = corpus.load_scale;
    hard.controls.max_inner_iterations = corpus.base_inner_budget;
    hard.controls.max_outer_iterations = corpus.outer_budget;
    tenants.push_back(std::move(hard));
    std::printf("# stress tenant armed: case30 x%.2f, caps %d/%d — engine router on\n",
                corpus.load_scale, corpus.base_inner_budget, corpus.outer_budget);
  }
  double total_weight = 0.0;
  for (const auto& t : tenants) total_weight += t.weight;

  auto params = admm::params_for_case("case9", base.num_buses());

  serve::ServiceOptions service_options;
  service_options.max_batch_size = 16;
  service_options.batching_window_seconds = 0.002;
  service_options.max_queue_depth = 256;
  service_options.cache.capacity = 128;
  service_options.num_devices = shards;
  service_options.slo = true;
  service_options.slo_objectives.latency_ceiling_seconds = ceiling_ms * 1e-3;
  service_options.slo_objectives.latency_budget_fraction = 0.01;
  service_options.slo_objectives.shed_budget_fraction = 0.05;
  // Bench runs last seconds, not minutes: judge burn over windows that fit
  // inside the run so the verdict reflects this run, not an empty window.
  service_options.slo_objectives.fast_window_seconds = std::max(1.0, duration / 4.0);
  service_options.slo_objectives.slow_window_seconds = std::max(2.0, duration);
  service_options.expo_port = expo_port;
  // The MiniIPM rung for anything the fused ADMM leaves non-converged.
  service_options.engine_fallback = stress;
  serve::SolveService service(base, params, service_options);
  if (service.expo() != nullptr) {
    std::printf("# exposition endpoint: %s\n", service.expo()->url().c_str());
  }

  Table table({"rate (req/s)", "offered", "shed", "shed rate", "failed", "ddl shed",
               "retries", "p50 (ms)", "p95 (ms)", "p99 (ms)", "stage_solve p95 (us)",
               "healthy"});
  for (const double rate : rates) {
    // One service serves the whole sweep: fault-tolerance counters are
    // cumulative, so report per-load-point deltas against this snapshot.
    const serve::ServiceStats before = service.stats();
    // Precompute the whole arrival schedule (deterministic per rate): the
    // submit loop then only sleeps and fires, nothing data-dependent.
    Rng rng(0x51011234ULL ^ static_cast<std::uint64_t>(rate * 1000));
    std::vector<Arrival> schedule;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / rate;  // exponential inter-arrival
      if (t >= duration) break;
      Arrival arrival;
      arrival.at_seconds = t;
      double pick = rng.uniform(0.0, total_weight);
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        pick -= tenants[i].weight;
        if (pick <= 0.0 || i + 1 == tenants.size()) {
          arrival.tenant = i;
          break;
        }
      }
      arrival.load_factor = rng.uniform(0.95, 1.05);
      schedule.push_back(arrival);
    }

    std::vector<RequestOutcome> outcomes(schedule.size());
    std::vector<double> slip_seconds(schedule.size(), 0.0);
    std::vector<std::pair<std::size_t, std::future<serve::SolveResult>>> in_flight;
    in_flight.reserve(schedule.size());

    const auto start = std::chrono::steady_clock::now();
    // The service's default telemetry clock is steady-epoch seconds: an
    // absolute request deadline lives on the same timebase.
    const double start_epoch =
        std::chrono::duration<double>(start.time_since_epoch()).count();
    const auto elapsed = [&start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    };
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& arrival = schedule[i];
      // Open loop: sleep until the INTENDED instant, never longer because
      // a previous request is still outstanding.
      double now = elapsed();
      if (arrival.at_seconds > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(arrival.at_seconds - now));
        now = elapsed();
      }
      // Schedule slip: how late this submit actually fired. Charged to the
      // request's latency below — measuring from the intended arrival is
      // what defeats coordinated omission.
      slip_seconds[i] = std::max(0.0, now - arrival.at_seconds);
      const Tenant& tenant = tenants[arrival.tenant];
      serve::SolveRequest request;
      request.network = tenant.network;
      request.outage_branch = tenant.outage_branch;
      const grid::Network& net = tenant.network != nullptr ? *tenant.network : base;
      // Stress requests pin the calibrated scale; everything else jitters.
      const double factor = tenant.stress ? tenant.load_scale : arrival.load_factor;
      request.controls = tenant.controls;
      request.pd.reserve(static_cast<std::size_t>(net.num_buses()));
      request.qd.reserve(static_cast<std::size_t>(net.num_buses()));
      for (const auto& bus : net.buses) {
        request.pd.push_back(bus.pd * factor);
        request.qd.push_back(bus.qd * factor);
      }
      if (deadline_ms > 0.0) {
        // Deadline anchored to the INTENDED arrival: schedule slip burns
        // deadline budget exactly like it burns measured latency.
        request.deadline = start_epoch + arrival.at_seconds + deadline_ms * 1e-3;
      }
      try {
        in_flight.emplace_back(i, service.submit(std::move(request)));
      } catch (const CapacityError&) {
        outcomes[i].shed = true;
      } catch (const DeadlineError&) {
        outcomes[i].deadline_shed = true;  // expired before admission
      }
    }
    for (auto& [index, future] : in_flight) {
      try {
        serve::SolveResult result = future.get();
        outcomes[index].timeline = result.timeline;
        // Intended-arrival latency = submit slip + the service-measured
        // end-to-end time (both on monotonic clocks).
        outcomes[index].intended_latency_seconds = slip_seconds[index] + result.total_seconds;
      } catch (const DeadlineError&) {
        outcomes[index].deadline_shed = true;  // expired at dispatch pickup
      } catch (const GridError&) {
        outcomes[index].failed = true;  // typed solve error (chaos runs)
      }
    }

    std::vector<double> end_to_end_ms;
    std::vector<double> stage_us[serve::RequestTimeline::kStageCount];
    std::size_t shed = 0, ddl_shed = 0, failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].shed) {
        ++shed;
        continue;
      }
      if (outcomes[i].deadline_shed) {
        ++ddl_shed;
        continue;
      }
      if (outcomes[i].failed) {
        ++failed;
        continue;
      }
      end_to_end_ms.push_back(outcomes[i].intended_latency_seconds * 1e3);
      for (int st = 0; st < serve::RequestTimeline::kStageCount; ++st) {
        stage_us[st].push_back(outcomes[i].timeline.stage_seconds(st) * 1e6);
      }
    }
    const double shed_rate =
        schedule.empty() ? 0.0 : static_cast<double>(shed) / static_cast<double>(schedule.size());
    const double p50 = quantile_of(end_to_end_ms, 0.50);
    const double p95 = quantile_of(end_to_end_ms, 0.95);
    const double p99 = quantile_of(end_to_end_ms, 0.99);
    // Evaluate at the service's own telemetry clock so the verdict reads
    // the same windows the monitor recorded into.
    const auto verdict =
        service.slo()->evaluate(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now().time_since_epoch())
                                    .count());

    // Per-load-point fault-tolerance deltas (the service is shared across
    // the sweep). completed counts futures that returned a value.
    const std::size_t completed =
        outcomes.size() >= shed + ddl_shed + failed
            ? outcomes.size() - shed - ddl_shed - failed
            : 0;
    // Every future is ready, and the service records a request's facts
    // before its future: the deltas (ledger, engine split) are exact.
    const serve::ServiceStats after = service.stats();
    std::uint64_t shard_quarantines = 0;
    int quarantined_now = 0;
    for (std::size_t d = 0; d < after.per_shard.size(); ++d) {
      const std::uint64_t prev =
          d < before.per_shard.size() ? before.per_shard[d].quarantines : 0;
      shard_quarantines += after.per_shard[d].quarantines - prev;
      if (after.per_shard[d].state != 0) ++quarantined_now;
    }

    table.add_row({Table::fixed(rate, 0), std::to_string(schedule.size()),
                   std::to_string(shed), Table::fixed(shed_rate, 3),
                   std::to_string(failed), std::to_string(ddl_shed),
                   std::to_string(after.retries - before.retries), Table::fixed(p50, 2),
                   Table::fixed(p95, 2), Table::fixed(p99, 2),
                   Table::fixed(quantile_of(stage_us[4], 0.95), 0),
                   verdict.healthy ? "yes" : "NO"});

    bench::JsonRecord record("serve_slo", shards);
    record.field("rate", rate)
        .field("case_mix", stress ? "case9+case9n1+case14+case30stress"
                                  : "case9+case9n1+case14")
        .field("engine_fallback", stress)
        .field("duration_seconds", duration)
        .field("offered", static_cast<long long>(schedule.size()))
        .field("shed", static_cast<long long>(shed))
        .field("shed_rate", shed_rate)
        .field("completed", static_cast<long long>(completed))
        .field("failed", static_cast<long long>(failed))
        .field("deadline_shed", static_cast<long long>(ddl_shed))
        .field("retries", static_cast<long long>(after.retries - before.retries))
        .field("completed_admm",
               static_cast<long long>(after.completed_admm - before.completed_admm))
        .field("completed_ipm",
               static_cast<long long>(after.completed_ipm - before.completed_ipm))
        .field("ipm_attempts",
               static_cast<long long>(after.ipm_attempts - before.ipm_attempts))
        .field("ipm_failures",
               static_cast<long long>(after.ipm_failures - before.ipm_failures))
        .field("rescue_rate",
               completed > 0 ? static_cast<double>(after.completed_ipm -
                                                   before.completed_ipm) /
                                   static_cast<double>(completed)
                             : 0.0)
        .field("bisections", static_cast<long long>(after.bisections - before.bisections))
        .field("quarantine_transitions",
               static_cast<long long>(after.quarantine_transitions -
                                      before.quarantine_transitions))
        .field("shard_quarantines", static_cast<long long>(shard_quarantines))
        .field("quarantined_shards_now", static_cast<long long>(quarantined_now))
        .field("p50_ms", p50)
        .field("p95_ms", p95)
        .field("p99_ms", p99)
        .field("slo_healthy", verdict.healthy)
        .field("latency_burn_fast", verdict.latency.fast_burn)
        .field("latency_burn_slow", verdict.latency.slow_burn)
        .field("shed_burn_fast", verdict.shed.fast_burn);
    for (int st = 0; st < serve::RequestTimeline::kStageCount; ++st) {
      const std::string name = std::string("stage_") +
                               serve::RequestTimeline::stage_name(st) + "_p95_us";
      record.field(name, quantile_of(stage_us[st], 0.95));
    }
    record.emit();
  }

  if (!faults_spec.empty()) {
    const auto counters = device::FaultInjector::instance().counters();
    device::FaultInjector::instance().disable();
    std::printf("# injector: %llu events, %llu launch failures, %llu latency spikes, "
                "%llu alloc failures\n",
                static_cast<unsigned long long>(counters.events_seen),
                static_cast<unsigned long long>(counters.launch_failures),
                static_cast<unsigned long long>(counters.latency_spikes),
                static_cast<unsigned long long>(counters.alloc_failures));
  }

  std::printf("\n");
  table.print();

  if (linger > 0.0) {
    std::printf("# lingering %.1f s for external scrapers...\n", linger);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
  }
  return 0;
}
