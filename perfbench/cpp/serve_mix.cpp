// serve-mix: open-loop Poisson arrivals against serve::SolveService with a
// multi-tenant mix (case9, two case9 N-1 outages, case14), loads +-5%.
// Latency runs from each request's INTENDED arrival to its fulfilment, so
// a stall is charged to every request it delays.
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "admm/params.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "grid/cases.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using namespace gridadmm;

constexpr double kRate = 60.0;            // requests per second
constexpr int kDeviceWorkers = 2;         // + load generator, dispatcher, shard worker
constexpr double kWarmupSeconds = 3.0;    // fills the warm-start cache
constexpr int kMinMeasured = 1000;        // p99 keeps >= 10 samples beyond it
// Idle time before the set-up. Right after a CPU-heavy process (a screen or
// a horizon) the service's six threads start in a placement where every
// wake-up crosses vCPUs: 7.1 vs 3.7 ms of CPU and 15-21 vs 5.5 ms p50 per
// request, for the whole run. 5 s of idleness was enough for the state to
// decay in every trial.
constexpr double kSettleSeconds = 5.0;
constexpr int kCheckEvery = 10;           // re-evaluate every 10th measured result
// A traced request records ~1,100 events (fused phases, launches, worker
// spans), 900 of them on the shard thread; 200 keep that thread's ring
// (2^18 events) from wrapping with room to spare (300 wrapped at seed 3).
constexpr int kTracedRequests = 200;

struct Tenant {
  std::shared_ptr<const grid::Network> network;  ///< null = the base case9
  int outage_branch = -1;
  double weight = 0.0;
};

struct Arrival {
  double at_s = 0.0;  ///< intended arrival, relative to the segment start
  std::size_t tenant = 0;
  double load_factor = 1.0;
  serve::SolveRequest request;  ///< moved into submit()
};

struct Inputs {
  grid::Network base;
  std::vector<Tenant> tenants;
  std::vector<Arrival> warmup, measured, traced;
};

/// Open-loop Poisson schedule of `count` arrivals (or, with count < 0, all
/// arrivals before `duration_s`).
std::vector<Arrival> make_schedule(Rng& rng, const Inputs& in, int count, double duration_s) {
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / kRate;
    if (count >= 0 ? static_cast<int>(out.size()) >= count : t >= duration_s) break;
    Arrival a;
    a.at_s = t;
    double pick = rng.uniform();
    for (std::size_t i = 0; i < in.tenants.size(); ++i) {
      pick -= in.tenants[i].weight;
      if (pick <= 0.0 || i + 1 == in.tenants.size()) {
        a.tenant = i;
        break;
      }
    }
    const double factor = rng.uniform(0.95, 1.05);
    a.load_factor = factor;
    const Tenant& tenant = in.tenants[a.tenant];
    const grid::Network& net = tenant.network != nullptr ? *tenant.network : in.base;
    a.request.network = tenant.network;
    a.request.outage_branch = tenant.outage_branch;
    a.request.pd.reserve(net.buses.size());
    a.request.qd.reserve(net.buses.size());
    for (const auto& bus : net.buses) {
      a.request.pd.push_back(bus.pd * factor);
      a.request.qd.push_back(bus.qd * factor);
    }
    out.push_back(std::move(a));
  }
  return out;
}

Inputs make_inputs(std::uint64_t seed, int measured, bool traced) {
  Inputs in;
  in.base = grid::load_case("case9");
  const auto second = std::make_shared<const grid::Network>(grid::load_case("case14"));
  in.tenants.push_back({nullptr, -1, 0.6});
  int outages = 0;
  for (int b = 0; b < in.base.num_branches() && outages < 2; ++b) {
    if (grid::is_bridge(in.base, b)) continue;
    in.tenants.push_back({nullptr, b, 0.1});
    ++outages;
  }
  in.tenants.push_back({second, -1, 0.2});
  std::uint64_t state = seed;
  Rng rng(splitmix64(state));
  in.warmup = make_schedule(rng, in, -1, kWarmupSeconds);
  in.measured = make_schedule(rng, in, measured, 0.0);
  if (traced) in.traced = make_schedule(rng, in, kTracedRequests, 0.0);
  return in;
}

/// Default options (cache on, 2 ms window, 1 device, SLO and tracing off)
/// with an explicit worker count. A traced run turns the SLO layer on, which
/// stamps every request's stage timeline without the tracer.
serve::ServiceOptions service_options(bool traced_run) {
  serve::ServiceOptions options;
  options.device_workers = kDeviceWorkers;
  options.slo = traced_run;
  return options;
}

/// Everything a serve run builds before its first request.
struct ServeSetup {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<serve::SolveService> service;
};

std::unique_ptr<ServeSetup> set_up(std::uint64_t seed, int measured, bool traced) {
  auto setup = std::make_unique<ServeSetup>();
  setup->in = std::make_unique<Inputs>(make_inputs(seed, measured, traced));
  setup->service = std::make_unique<serve::SolveService>(
      setup->in->base, admm::params_for_case("case9", setup->in->base.num_buses()),
      service_options(traced));
  return setup;
}

struct Outcome {
  bool failed = false;  ///< shed, typed error, or not converged
  double latency_s = 0.0;
  double slip_s = 0.0;
  double submit_us = 0.0;
  serve::SolveResult result;
};

struct SegmentCost {
  double cpu_s = 0.0;  ///< process CPU time from the first arrival to the last result
  Switches switches;
};

/// Fires `schedule` open-loop, then collects every future.
std::vector<Outcome> run_segment(serve::SolveService& service, std::vector<Arrival>& schedule,
                                 std::uint64_t first_id, SegmentCost* cost = nullptr) {
  const double cpu0 = cpu_s();
  const Switches switches0 = switches();
  std::vector<Outcome> outcomes(schedule.size());
  std::vector<std::future<serve::SolveResult>> futures(schedule.size());
  std::vector<bool> submitted(schedule.size(), false);
  const double start = now_s();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double due = start + schedule[i].at_s;
    const double wait = due - now_s();
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    const double t0 = now_s();
    outcomes[i].slip_s = std::max(0.0, t0 - due);
    try {
      const obs::TraceSpan span("serve.submit", "req", first_id + i);
      futures[i] = service.submit(std::move(schedule[i].request));
      submitted[i] = true;
    } catch (const GridError&) {
      outcomes[i].failed = true;  // shed at admission
    }
    outcomes[i].submit_us = (now_s() - t0) * 1e6;
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!submitted[i]) continue;
    try {
      outcomes[i].result = futures[i].get();
      // Intended arrival -> fulfilment, both on the steady clock: the submit
      // slip plus the service's submit -> fulfilled time.
      outcomes[i].latency_s = outcomes[i].slip_s + outcomes[i].result.total_seconds;
      outcomes[i].failed = !outcomes[i].result.converged;
    } catch (const GridError&) {
      outcomes[i].failed = true;
    }
  }
  if (cost != nullptr) {
    const Switches switches1 = switches();
    cost->cpu_s = cpu_s() - cpu0;
    cost->switches = {switches1.voluntary - switches0.voluntary,
                      switches1.involuntary - switches0.involuntary};
  }
  return outcomes;
}

void write_segment(Json& out, const char* key, const std::vector<Outcome>& outcomes,
                   const std::vector<Arrival>& schedule, const Inputs& in, bool timelines,
                   std::uint64_t first_id) {
  std::vector<double> latency, slip, submit, occupancy, cache_hit, batch, inner, outer;
  std::vector<int> failed;
  std::vector<double> stage[serve::RequestTimeline::kStageCount];
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const auto& r = o.result;
    failed.push_back(o.failed ? 1 : 0);
    latency.push_back(o.latency_s);
    slip.push_back(o.slip_s);
    submit.push_back(o.submit_us);
    occupancy.push_back(r.batch_occupancy);
    cache_hit.push_back(r.cache_hit ? 1.0 : 0.0);
    batch.push_back(static_cast<double>(r.batch_id));
    inner.push_back(r.stats.inner_iterations);
    outer.push_back(r.stats.outer_iterations);
    if (timelines) {
      for (int st = 0; st < serve::RequestTimeline::kStageCount; ++st) {
        stage[st].push_back(r.timeline.stage_seconds(st));
      }
    }
  }
  out.begin_object(key)
      .array("failed", failed)
      .array("latency_s", latency)
      .array("slip_s", slip)
      .array("submit_us", submit)
      .array("batch_occupancy", occupancy)
      .array("cache_hit", cache_hit)
      .array("batch_id", batch)
      .array("inner_iterations", inner)
      .array("outer_iterations", outer);
  if (timelines) {
    out.begin_object("stage_s");
    for (int st = 0; st < serve::RequestTimeline::kStageCount; ++st) {
      out.array(serve::RequestTimeline::stage_name(st), stage[st]);
    }
    out.end_object();
  }
  // Outside the timed path: re-evaluate a sample of returned solutions on
  // the request's own network (outage removed, loads set).
  std::vector<double> reported_objective, reported_violation, eval_objective, eval_violation;
  std::vector<double> eval_ms;
  for (std::size_t i = 0; i < outcomes.size(); i += kCheckEvery) {
    const Outcome& o = outcomes[i];
    if (o.failed) continue;
    const Arrival& a = schedule[i];
    const Tenant& tenant = in.tenants[a.tenant];
    const grid::Network& base = tenant.network != nullptr ? *tenant.network : in.base;
    grid::Network net = tenant.outage_branch >= 0
                            ? grid::network_without_branch(base, tenant.outage_branch)
                            : base;
    for (auto& bus : net.buses) {
      bus.pd *= a.load_factor;
      bus.qd *= a.load_factor;
    }
    const obs::TraceSpan span("grid.evaluate", "req", first_id + i);
    const double t0 = now_s();
    const auto quality = grid::evaluate_solution(net, o.result.solution);
    eval_ms.push_back((now_s() - t0) * 1e3);
    reported_objective.push_back(o.result.objective);
    reported_violation.push_back(o.result.max_violation);
    eval_objective.push_back(quality.objective);
    eval_violation.push_back(quality.max_violation);
  }
  out.array("reported_objective", reported_objective)
      .array("reported_violation", reported_violation)
      .array("eval_objective", eval_objective)
      .array("eval_violation", eval_violation)
      .array("evaluate_ms", eval_ms)
      .end_object();
}

/// Service counter deltas over one segment.
void write_counters(Json& out, const char* key, const serve::ServiceStats& a,
                    const serve::ServiceStats& b) {
  out.begin_object(key)
      .field("shed", b.shed - a.shed)
      .field("retries", b.retries - a.retries)
      .field("batches", b.batches - a.batches)
      .end_object();
}

}  // namespace

SetUp run_serve(const Config& cfg, Json& out) {
  const int measured = std::max(kMinMeasured, static_cast<int>(std::lround(kRate * cfg.seconds)));
  const SetUp setup = [seed = cfg.seed, measured, traced = cfg.trace] {
    const double t0 = now_s();
    const auto built = set_up(seed, measured, traced);
    return now_s() - t0;  // `built` is torn down after the clock stops
  };

  std::this_thread::sleep_for(std::chrono::duration<double>(kSettleSeconds));

  // ---- Set-up: inputs (tenants and the whole arrival schedule) and the
  // service.
  const double setup_t0 = now_s();
  const auto kept = set_up(cfg.seed, measured, cfg.trace);
  const double first_setup_s = now_s() - setup_t0;
  const auto& in = kept->in;
  const auto& service = kept->service;
  out.field("rate", kRate)
      .field("device_workers", kDeviceWorkers)
      .field("first_setup_s", first_setup_s);

  // ---- Warm-up segment (discarded), then the measured segment.
  std::uint64_t next_id = 1;
  const double warm_t0 = now_s();
  const auto warm = run_segment(*service, in->warmup, next_id);
  next_id += in->warmup.size();
  out.field("warmup_s", now_s() - warm_t0).field("warmup_requests", static_cast<int>(warm.size()));
  const auto measured_before = service->stats();
  SegmentCost cost;
  const auto outcomes = run_segment(*service, in->measured, next_id, &cost);
  out.field("measured_cpu_s", cost.cpu_s)
      .field("measured_voluntary_switches", static_cast<std::int64_t>(cost.switches.voluntary))
      .field("measured_involuntary_switches",
             static_cast<std::int64_t>(cost.switches.involuntary));
  write_segment(out, "measured", outcomes, in->measured, *in, cfg.trace, next_id);
  next_id += in->measured.size();
  write_counters(out, "measured_counters", measured_before, service->stats());

  if (!cfg.trace) return setup;

  // ---- Traced segment: the same rate and mix, fresh arrivals.
  probe_launch(kDeviceWorkers, out);
  obs::Tracer::instance().clear();
  obs::Tracer::instance().enable(1 << 18);
  const double section_t0 = now_s();
  double build_ms = 0.0;
  {
    const obs::TraceSpan span("grid.build", "req", next_id);
    const double t0 = now_s();
    const auto case9 = grid::load_case("case9");
    const auto case14 = grid::load_case("case14");
    build_ms = (now_s() - t0) * 1e3;
  }
  const auto traced_before = service->stats();
  const auto device_before = service->device().stats();
  const double segment_t0 = now_s();
  const auto traced = run_segment(*service, in->traced, next_id);
  const double segment_s = now_s() - segment_t0;
  const auto launches = service->device().stats() - device_before;
  write_segment(out, "traced", traced, in->traced, *in, true, next_id);
  write_counters(out, "traced_counters", traced_before, service->stats());
  out.field("traced_section_s", now_s() - section_t0)
      .field("traced_segment_s", segment_s)
      .field("grid_build_ms", build_ms)
      .begin_object("device")
      .field("launches", launches.launches)
      .field("blocks", launches.blocks)
      .field("busy_s", launches.busy_seconds)
      .end_object();
  obs::Tracer::instance().disable();
  out.field("trace_events", static_cast<std::int64_t>(obs::Tracer::instance().event_count()))
      .field("trace_dropped", obs::Tracer::instance().dropped())
      .field("trace_written", obs::Tracer::instance().write_file(cfg.trace_path));
  return setup;
}

}  // namespace perfbench
