// screen-case14: a contingency-and-uncertainty screen of case14 through the
// fused batch engine. One screen is scenario::BatchAdmmSolver construct ->
// solve -> solutions() over 64 scenarios: every non-bridge N-1 outage plus
// stochastic-load scenarios.
#include <memory>
#include <optional>
#include <vector>

#include "admm/params.hpp"
#include "bench.hpp"
#include "device/device.hpp"
#include "grid/cases.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "obs/trace.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/ipm_engine.hpp"
#include "scenario/scenario_set.hpp"

namespace perfbench {
namespace {

using namespace gridadmm;

constexpr const char* kCase = "case14";
constexpr int kWorkers = 3;  // + the launching thread, which sleeps during launches
constexpr int kScenarios = 64;
constexpr double kSigma = 0.05;

scenario::ScenarioSet make_set(const grid::Network& net, int variant) {
  scenario::ScenarioSet set(net);
  const int outages = set.add_n1_contingencies();
  set.add_stochastic_load(kScenarios - outages, kSigma,
                          0x5C2EE0000ULL + static_cast<std::uint64_t>(variant));
  return set;
}

/// The scenario's own network: the outage branch removed, its loads set.
grid::Network scenario_network(const grid::Network& base, const scenario::Scenario& sc) {
  grid::Network net = sc.outage_branch >= 0 ? grid::network_without_branch(base, sc.outage_branch)
                                            : base;
  for (std::size_t i = 0; i < net.buses.size(); ++i) {
    net.buses[i].pd = sc.pd[i];
    net.buses[i].qd = sc.qd[i];
  }
  return net;
}

/// Everything a screen run builds before its first screen.
struct ScreenSetup {
  grid::Network net;
  std::optional<scenario::ScenarioSet> set;
  std::unique_ptr<device::Device> dev;
};

std::unique_ptr<ScreenSetup> set_up(int variant) {
  auto setup = std::make_unique<ScreenSetup>();
  setup->net = grid::load_case(kCase);
  setup->set.emplace(make_set(setup->net, variant));
  setup->dev = std::make_unique<device::Device>(kWorkers);
  return setup;
}

struct Screen {
  double construct_s = 0.0, solve_s = 0.0, extract_s = 0.0, wall_s = 0.0, cpu_s = 0.0;
  scenario::ScenarioReport report;
  std::vector<grid::OpfSolution> solutions;
};

Screen run_screen_once(const scenario::ScenarioSet& set, const admm::AdmmParams& params,
                       device::Device& dev, std::uint64_t id) {
  Screen screen;
  const double c0 = cpu_s();
  const double t0 = now_s();
  std::optional<scenario::BatchAdmmSolver> solver;
  {
    const obs::TraceSpan span("scenario.construct", "screen", id);
    solver.emplace(set, params, &dev);
  }
  const double t1 = now_s();
  {
    const obs::TraceSpan span("scenario.solve", "screen", id);
    screen.report = solver->solve();
  }
  const double t2 = now_s();
  {
    const obs::TraceSpan span("scenario.extract", "screen", id);
    screen.solutions = solver->solutions();
  }
  const double t3 = now_s();
  screen.construct_s = t1 - t0;
  screen.solve_s = t2 - t1;
  screen.extract_s = t3 - t2;
  screen.wall_s = t3 - t0;
  screen.cpu_s = cpu_s() - c0;
  return screen;
}

void write_screen(Json& out, const Screen& screen, const scenario::ScenarioSet& set) {
  const auto& r = screen.report;
  std::vector<double> objective, violation;
  std::vector<int> inner, outer, converged;
  std::int64_t tron_solves = r.branch.auglag_iterations;
  for (const auto& rec : r.records) {
    objective.push_back(rec.objective);
    violation.push_back(rec.max_violation);
    inner.push_back(rec.inner_iterations);
    outer.push_back(rec.outer_iterations);
    converged.push_back(rec.converged ? 1 : 0);
    // Plain TRON calls: one per unrated in-service branch per iteration
    // (rated branches are counted by their augmented-Lagrangian iterations).
    int unrated = 0;
    const auto& sc = set[rec.index];
    for (int l = 0; l < set.network().num_branches(); ++l) {
      const auto& branch = set.network().branches[static_cast<std::size_t>(l)];
      unrated += branch.on && branch.rate <= 0.0 && l != sc.outage_branch ? 1 : 0;
    }
    tron_solves += static_cast<std::int64_t>(rec.inner_iterations) * unrated;
  }
  out.begin_object()
      .field("construct_s", screen.construct_s)
      .field("solve_s", screen.solve_s)
      .field("extract_s", screen.extract_s)
      .field("wall_s", screen.wall_s)
      .field("cpu_s", screen.cpu_s)
      .field("loop_s", r.solve_seconds)
      .field("fused_steps", r.fused_steps)
      .field("launches", r.launch_stats.launches)
      .field("blocks", r.launch_stats.blocks)
      .field("busy_s", r.launch_stats.busy_seconds)
      .field("tron_iterations", r.branch.tron_iterations)
      .field("cg_iterations", r.branch.cg_iterations)
      .field("function_evals", r.branch.function_evals)
      .field("tron_failures", r.branch.failures)
      .field("tron_solves", tron_solves);
  out.begin_object("phases_s")
      .field("generator", r.phases.generator_seconds)
      .field("branch", r.phases.branch_seconds)
      .field("bus", r.phases.bus_seconds)
      .field("zy", r.phases.zy_seconds)
      .field("residual", r.phases.residual_seconds)
      .field("outer", r.phases.outer_seconds)
      .end_object();
  out.array("objective", objective)
      .array("violation", violation)
      .array("inner_iterations", inner)
      .array("outer_iterations", outer)
      .array("converged", converged)
      .end_object();
}

}  // namespace

SetUp run_screen(const Config& cfg, Json& out) {
  const int variant = static_cast<int>(cfg.seed % kVariants);
  const SetUp setup = [variant] {
    const double t0 = now_s();
    const auto built = set_up(variant);
    return now_s() - t0;  // `built` is torn down after the clock stops
  };

  // ---- Set-up: inputs and device.
  const double setup_t0 = now_s();
  const auto kept = set_up(variant);
  const double first_setup_s = now_s() - setup_t0;
  const grid::Network& net = kept->net;
  const auto& set = kept->set;
  const auto& dev = kept->dev;
  const auto params = admm::params_for_case(kCase, net.num_buses());

  // ---- Warm-up (discarded): one full screen.
  const double warm_t0 = now_s();
  run_screen_once(*set, params, *dev, 0);
  const double warmup_s = now_s() - warm_t0;

  out.field("case", kCase)
      .field("variant", variant)
      .field("scenarios", set->size())
      .field("device_workers", kWorkers)
      .field("first_setup_s", first_setup_s)
      .field("warmup_s", warmup_s);

  // ---- Measured screens, back to back (a traced run takes a fixed few as
  // the overhead base).
  std::uint64_t id = 1;
  std::optional<Screen> first;
  out.begin_array("screens");
  const double start = now_s();
  while (true) {
    Screen screen = run_screen_once(*set, params, *dev, id++);
    write_screen(out, screen, *set);
    if (!first) first = std::move(screen);
    const bool done = cfg.trace ? id > 5 : now_s() - start >= cfg.seconds;
    if (done && id > 3) break;
  }
  out.end_array();

  // ---- Outside the timed path: re-evaluate what solutions() returned on
  // each scenario's own network.
  std::vector<double> eval_objective, eval_violation, eval_ms;
  for (int s = 0; s < set->size(); ++s) {
    const auto scenario_net = scenario_network(net, (*set)[s]);
    const double t0 = now_s();
    const auto quality =
        grid::evaluate_solution(scenario_net, first->solutions[static_cast<std::size_t>(s)]);
    eval_ms.push_back((now_s() - t0) * 1e3);
    eval_objective.push_back(quality.objective);
    eval_violation.push_back(quality.max_violation);
  }
  out.begin_object("extract_check")
      .array("objective", eval_objective)
      .array("violation", eval_violation)
      .field("evaluate_ms_p50", median(eval_ms))
      .end_object();

  if (!cfg.trace) return setup;

  // ---- Traced section.
  probe_launch(kWorkers, out);
  obs::Tracer::instance().clear();
  obs::Tracer::instance().enable(1 << 18);
  const double section_t0 = now_s();
  double build_ms = 0.0;
  {
    const obs::TraceSpan span("grid.build", "screen", id);
    const double t0 = now_s();
    const auto fresh = make_set(grid::load_case(kCase), variant);
    build_ms = (now_s() - t0) * 1e3;
  }
  const auto before = dev->stats();
  out.begin_array("traced_screens");
  for (int k = 0; k < 3; ++k) {
    const std::uint64_t screen_id = id++;
    const Screen screen = run_screen_once(*set, params, *dev, screen_id);
    write_screen(out, screen, *set);
    const obs::TraceSpan span("grid.evaluate", "screen", screen_id);
    for (int s = 0; s < set->size(); ++s) {
      grid::evaluate_solution(scenario_network(net, (*set)[s]),
                              screen.solutions[static_cast<std::size_t>(s)]);
    }
  }
  out.end_array();
  const auto launches = dev->stats() - before;
  out.field("traced_section_s", now_s() - section_t0)
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

void reference_screen(int variant, Json& out) {
  const auto net = grid::load_case(kCase);
  const auto set = make_set(net, variant);
  std::vector<double> objective, violation;
  for (int s = 0; s < set.size(); ++s) {
    const auto result = scenario::solve_scenario_ipm(net, set[s]);
    objective.push_back(result.quality.objective);
    violation.push_back(result.quality.max_violation);
  }
  out.field("case", kCase)
      .field("variant", variant)
      .array("objective", objective)
      .array("violation", violation);
}

}  // namespace perfbench
