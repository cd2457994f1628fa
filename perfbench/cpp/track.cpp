// track-1354: the paper's warm-start tracking experiment (Section IV-C) on
// the synthetic 1354pegase case, through opf::TrackingSimulator::run.
#include <memory>
#include <vector>

#include "admm/params.hpp"
#include "admm/solver.hpp"
#include "bench.hpp"
#include "device/device.hpp"
#include "grid/solution.hpp"
#include "grid/synthetic.hpp"
#include "obs/trace.hpp"
#include "opf/tracking.hpp"

namespace perfbench {
namespace {

using namespace gridadmm;

constexpr const char* kCase = "1354pegase";
constexpr int kWorkers = 3;  // + the launching thread, which sleeps during launches
constexpr int kPeriods = 10;

admm::AdmmParams track_params(int num_buses) {
  auto params = admm::params_for_case(kCase, num_buses);
  // The figure harnesses' reduced budget (bench/bench_tracking_common.hpp).
  params.max_inner_iterations = 1000;
  params.max_outer_iterations = 12;
  return params;
}

opf::TrackingOptions track_options(int variant, bool run_ipm) {
  opf::TrackingOptions options;
  options.periods = kPeriods;
  options.max_drift = 0.05;
  options.ramp_fraction = 0.02;
  options.profile_seed = 7 + static_cast<std::uint64_t>(variant);
  options.run_ipm = run_ipm;
  return options;
}

void write_periods(Json& out, const std::vector<opf::PeriodRecord>& records) {
  out.begin_array("periods");
  for (const auto& rec : records) {
    out.begin_object()
        .field("period", rec.period)
        .field("load_scale", rec.load_scale)
        .field("seconds", rec.admm_seconds)
        .field("iterations", rec.admm_iterations)
        .field("objective", rec.admm_objective)
        .field("violation", rec.admm_violation)
        .field("converged", rec.admm_converged)
        .field("ipm_objective", rec.ipm_objective)
        .field("ipm_violation", rec.ipm_violation)
        .field("ipm_converged", rec.ipm_converged)
        .end_object();
  }
  out.end_array();
}

/// Branches solved by one plain TRON call per ADMM iteration; each rated
/// branch instead runs one TRON call per augmented-Lagrangian iteration.
int unrated_branches(const grid::Network& net) {
  int count = 0;
  for (const auto& branch : net.branches) count += branch.on && branch.rate <= 0.0 ? 1 : 0;
  return count;
}

/// Everything a track run builds before its first horizon.
struct TrackSetup {
  grid::Network net;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<opf::TrackingSimulator> sim;
};

std::unique_ptr<TrackSetup> set_up(const opf::TrackingOptions& options) {
  auto setup = std::make_unique<TrackSetup>();
  setup->net = grid::make_synthetic_case(kCase);
  setup->dev = std::make_unique<device::Device>(kWorkers);
  setup->sim = std::make_unique<opf::TrackingSimulator>(
      setup->net, track_params(setup->net.num_buses()), options, setup->dev.get());
  return setup;
}

void write_launches(Json& out, const char* key, const device::LaunchStats& stats) {
  out.begin_object(key)
      .field("launches", stats.launches)
      .field("blocks", stats.blocks)
      .field("busy_s", stats.busy_seconds)
      .end_object();
}

}  // namespace

SetUp run_track(const Config& cfg, Json& out) {
  const int variant = static_cast<int>(cfg.seed % kVariants);
  const auto options = track_options(variant, /*run_ipm=*/false);
  const SetUp setup = [options] {
    const double t0 = now_s();
    const auto built = set_up(options);
    return now_s() - t0;  // `built` is torn down after the clock stops
  };

  // ---- Set-up: inputs, device, simulator.
  const double setup_t0 = now_s();
  const auto kept = set_up(options);
  const double first_setup_s = now_s() - setup_t0;
  const grid::Network& net = kept->net;
  const auto& dev = kept->dev;
  const auto& sim = kept->sim;
  const auto params = track_params(net.num_buses());

  // ---- Warm-up (discarded): a two-period horizon at a 100 x 2 budget runs
  // every kernel of the measured path on the same device.
  double warmup_s = 0.0;
  {
    auto capped = params;
    capped.max_inner_iterations = 100;
    capped.max_outer_iterations = 2;
    auto short_options = options;
    short_options.periods = 2;
    const double t0 = now_s();
    opf::TrackingSimulator warm(net, capped, short_options, dev.get());
    warm.run();
    warmup_s = now_s() - t0;
  }

  out.field("case", kCase)
      .field("variant", variant)
      .field("profile_seed", options.profile_seed)
      .field("device_workers", kWorkers)
      .field("branches", net.num_branches())
      .field("first_setup_s", first_setup_s)
      .field("warmup_s", warmup_s);

  // ---- Measured horizons: at least one; another only while it is expected
  // to end inside the time budget. A traced run measures one traced horizon.
  const auto run_horizon = [&](Json& json) {
    const auto before = dev->stats();
    const double c0 = cpu_s();
    const double t0 = now_s();
    const auto records = sim->run();
    const double wall = now_s() - t0;
    json.begin_object().field("wall_s", wall).field("cpu_s", cpu_s() - c0);
    write_launches(json, "device", dev->stats() - before);
    write_periods(json, records);
    json.end_object();
    return wall;
  };
  if (!cfg.trace) {
    out.begin_array("horizons");
    const double start = now_s();
    double last = 0.0;
    do {
      last = run_horizon(out);
    } while (now_s() - start + last <= cfg.seconds);
    out.end_array();
    return setup;
  }

  // ---- Traced run. TrackingSimulator returns no AdmmStats, so the cold
  // period is first solved directly through AdmmSolver::solve, untraced: its
  // time is also the base of the trace overhead (the traced horizon below
  // repeats the same cold solve as its period 1).
  probe_launch(kWorkers, out);
  {
    const auto& profile = sim->load_profile();
    std::vector<double> pd, qd;
    for (const auto& bus : net.buses) {
      pd.push_back(bus.pd * profile[0]);
      qd.push_back(bus.qd * profile[0]);
    }
    const auto before = dev->stats();
    admm::AdmmSolver solver(net, params, dev.get());
    solver.set_loads(pd, qd);
    const admm::AdmmStats stats = solver.solve();
    const double t0 = now_s();
    const auto quality = grid::evaluate_solution(solver.network(), solver.solution());
    const double evaluate_ms = (now_s() - t0) * 1e3;
    out.begin_object("cold_admm")
        .field("converged", stats.converged)
        .field("outer_iterations", stats.outer_iterations)
        .field("inner_iterations", stats.inner_iterations)
        .field("solve_s", stats.solve_seconds)
        .field("objective", quality.objective)
        .field("violation", quality.max_violation)
        .field("grid_evaluate_ms", evaluate_ms)
        .field("tron_iterations", stats.branch.tron_iterations)
        .field("cg_iterations", stats.branch.cg_iterations)
        .field("auglag_iterations", stats.branch.auglag_iterations)
        .field("function_evals", stats.branch.function_evals)
        .field("tron_failures", stats.branch.failures)
        .field("tron_solves", static_cast<std::int64_t>(stats.inner_iterations) *
                                      unrated_branches(net) +
                                  stats.branch.auglag_iterations);
    write_launches(out, "device", dev->stats() - before);
    out.end_object();
  }

  obs::Tracer::instance().clear();
  obs::Tracer::instance().enable(1 << 18);
  const double section_t0 = now_s();
  {
    const obs::TraceSpan span("grid.build", "horizon", 1);
    const double t0 = now_s();
    const auto fresh = grid::make_synthetic_case(kCase);
    out.field("grid_build_ms", (now_s() - t0) * 1e3);
  }
  out.begin_array("traced_horizons");
  {
    const obs::TraceSpan span("opf.run", "horizon", 1);
    run_horizon(out);
  }
  out.end_array();
  out.field("traced_section_s", now_s() - section_t0);
  obs::Tracer::instance().disable();
  out.field("trace_events", static_cast<std::int64_t>(obs::Tracer::instance().event_count()))
      .field("trace_dropped", obs::Tracer::instance().dropped())
      .field("trace_written", obs::Tracer::instance().write_file(cfg.trace_path));
  return setup;
}

void reference_track(int variant, Json& out) {
  const auto net = grid::make_synthetic_case(kCase);
  auto options = track_options(variant, /*run_ipm=*/true);
  options.ipm.max_iterations = 200;  // the figure harnesses' reduced budget
  device::Device dev(kWorkers);
  opf::TrackingSimulator sim(net, track_params(net.num_buses()), options, &dev);
  const auto records = sim.run();
  out.field("case", kCase).field("variant", variant).field("profile_seed", options.profile_seed);
  write_periods(out, records);
}

}  // namespace perfbench
