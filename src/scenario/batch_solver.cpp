#include "scenario/batch_solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "admm/step_kernels.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "scenario/batch_kernels.hpp"

namespace gridadmm::scenario {

namespace {

/// Swaps a reusable evaluation copy's loads for the scenario's.
void apply_scenario_loads(grid::Network& net, const Scenario& sc) {
  for (int i = 0; i < net.num_buses(); ++i) {
    net.buses[static_cast<std::size_t>(i)].pd = sc.pd[static_cast<std::size_t>(i)];
    net.buses[static_cast<std::size_t>(i)].qd = sc.qd[static_cast<std::size_t>(i)];
  }
}

/// Quality against the network the scenario is actually constrained by:
/// `eval_net` (base topology, loads already swapped in) for load-only
/// scenarios, a reduced copy when a branch is outaged. Outages were
/// bridge-screened by ScenarioSet::add, so the re-check is skipped.
grid::SolutionQuality scenario_quality(const grid::Network& eval_net, const Scenario& sc,
                                       const grid::OpfSolution& sol) {
  if (sc.outage_branch < 0) return grid::evaluate_solution(eval_net, sol);
  return grid::evaluate_solution(
      grid::network_without_branch(eval_net, sc.outage_branch, /*check_connectivity=*/false),
      sol);
}

/// One record shape for both engines, so their reports cannot drift.
ScenarioRecord make_record(int index, const Scenario& sc, const admm::AdmmStats& stats,
                           const grid::SolutionQuality& quality) {
  ScenarioRecord rec;
  rec.index = index;
  rec.name = sc.name;
  rec.kind = sc.kind;
  rec.converged = stats.converged;
  rec.outer_iterations = stats.outer_iterations;
  rec.inner_iterations = stats.inner_iterations;
  rec.primal_residual = stats.primal_residual;
  rec.dual_residual = stats.dual_residual;
  rec.objective = quality.objective;
  rec.max_violation = quality.max_violation;
  rec.seconds = stats.solve_seconds;
  return rec;
}

}  // namespace

BatchAdmmSolver::BatchAdmmSolver(const ScenarioSet& set, admm::AdmmParams params,
                                 device::Device* dev)
    : net_(set.network()),
      params_(params),
      devs_({dev != nullptr ? dev : &device::default_device()}),
      scenarios_(set.scenarios()),
      waves_(set.waves()),
      model_(admm::build_component_model(net_, params_)),
      mview_(admm::make_model_view(model_)),
      cold_(admm::make_cold_start(net_, model_)) {
  require(!scenarios_.empty(), "BatchAdmmSolver: scenario set is empty");
  admm::require_positive_budgets(params_, "BatchAdmmSolver");
}

BatchAdmmSolver::BatchAdmmSolver(const ScenarioSet& set, admm::AdmmParams params,
                                 device::DevicePool& pool)
    : BatchAdmmSolver(set, params, &pool.device(0)) {
  devs_.clear();
  for (int d = 0; d < pool.size(); ++d) devs_.push_back(&pool.device(d));
}

admm::AdmmParams effective_params(const admm::AdmmParams& base, const ScenarioControls& controls) {
  admm::AdmmParams p = base;
  if (controls.primal_tolerance >= 0.0) p.primal_tolerance = controls.primal_tolerance;
  if (controls.dual_tolerance >= 0.0) p.dual_tolerance = controls.dual_tolerance;
  if (controls.outer_tolerance >= 0.0) p.outer_tolerance = controls.outer_tolerance;
  if (controls.max_inner_iterations >= 0) p.max_inner_iterations = controls.max_inner_iterations;
  if (controls.max_outer_iterations >= 0) p.max_outer_iterations = controls.max_outer_iterations;
  return p;
}

void BatchAdmmSolver::ensure_storage() {
  if (!shards_.empty()) return;
  plan_ = BatchPlan::create(scenarios_, waves_, num_shards());
  shards_.resize(devs_.size());
  for (int d = 0; d < num_shards(); ++d) {
    Shard& shard = shards_[static_cast<std::size_t>(d)];
    shard.dev = devs_[static_cast<std::size_t>(d)];
    const int capacity = plan_.shard_capacity[static_cast<std::size_t>(d)];
    shard.states.reserve(static_cast<std::size_t>(plan_.num_buffers()));
    shard.views.resize(static_cast<std::size_t>(plan_.num_buffers()));
    for (int b = 0; b < plan_.num_buffers(); ++b) {
      shard.states.push_back(admm::BatchAdmmState::zeros(model_, capacity));
      auto& views = shard.views[static_cast<std::size_t>(b)];
      views.reserve(static_cast<std::size_t>(capacity));
      for (int slot = 0; slot < capacity; ++slot) {
        views.push_back(shard.states[static_cast<std::size_t>(b)].view(model_, slot));
      }
    }
  }
}

void BatchAdmmSolver::set_beta(int s, double value) {
  // Two live copies: beta_ is the host truth (controller seed, chain
  // inheritance, exports), the scenario's current view feeds the kernels.
  beta_[static_cast<std::size_t>(s)] = value;
  Shard& shard = shards_[static_cast<std::size_t>(plan_.shard_of[static_cast<std::size_t>(s)])];
  const auto slot = static_cast<std::size_t>(plan_.slot_of[static_cast<std::size_t>(s)]);
  shard.views[static_cast<std::size_t>(plan_.buffer_of(s))][slot].beta = value;
}

admm::WarmStartIterate BatchAdmmSolver::solve_base(ScenarioReport& report) {
  WallTimer base_timer;
  admm::AdmmSolver base(net_, params_, devs_.front());
  base.solve();
  report.base_solve_seconds = base_timer.seconds();
  return base.export_iterate();
}

void BatchAdmmSolver::stage_buffer(Shard& shard, int buf, std::span<const int> globals,
                                   const admm::WarmStartIterate* base,
                                   const BatchSolveOptions& options) {
  if (globals.empty()) return;
  admm::BatchAdmmState& state = shard.states[static_cast<std::size_t>(buf)];
  // Host staging arrays mirror the device buffers exactly, so each upload
  // stays one bulk transfer.
  const auto C = static_cast<std::size_t>(state.num_scenarios);
  const auto np = static_cast<std::size_t>(model_.num_pairs);
  const auto nb = static_cast<std::size_t>(model_.num_buses);
  const auto ng = static_cast<std::size_t>(model_.num_gens);
  const auto nl = static_cast<std::size_t>(model_.num_branches);
  /// Writes one scenario's slice into a host staging array.
  const auto scatter = [](std::span<const double> src, std::vector<double>& dst, int slot) {
    const auto off = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(slot) * src.size());
    std::copy(src.begin(), src.end(), dst.begin() + off);
  };

  // Chained slots need no iterate staging: the wave loop's on-device chain
  // copy overwrites every iterate array before a kernel reads them, and
  // their beta is set by the chain inheritance. When the whole wave is
  // chained — every tracking wave after the first — the 12 iterate uploads
  // are skipped entirely; only the per-scenario problem data (loads, pg
  // bounds, outage masks) is staged.
  bool stage_iterates = false;
  for (const int s : globals) {
    const bool seeded = !options.initial_iterates.empty() &&
                        options.initial_iterates[static_cast<std::size_t>(s)] != nullptr;
    if (scenarios_[static_cast<std::size_t>(s)].chain_from < 0 || seeded) {
      stage_iterates = true;
      break;
    }
  }

  const std::size_t iterate_cells = stage_iterates ? C : 0;
  std::vector<double> hu(iterate_cells * np, 0.0), hw(iterate_cells * nb, 0.0),
      htheta(iterate_cells * nb, 0.0);
  std::vector<double> hv(iterate_cells * np, 0.0), hz(iterate_cells * np, 0.0),
      hy(iterate_cells * np, 0.0), hlz(iterate_cells * np, 0.0);
  std::vector<double> hpg(iterate_cells * ng, 0.0), hqg(iterate_cells * ng, 0.0);
  std::vector<double> hbx(iterate_cells * 4 * nl, 0.0), hbs(iterate_cells * 2 * nl, 0.0),
      hblam(iterate_cells * 2 * nl, 0.0);
  std::vector<double> hpd(C * nb, 0.0), hqd(C * nb, 0.0);
  std::vector<double> hpmin(C * ng, 0.0), hpmax(C * ng, 0.0);
  std::vector<unsigned char> hactive(C * nl, 1);

  for (const int s : globals) {
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    const int slot = plan_.slot_of[static_cast<std::size_t>(s)];
    const auto slot0 = static_cast<std::size_t>(slot);
    const admm::WarmStartIterate* iterate =
        options.initial_iterates.empty()
            ? nullptr
            : options.initial_iterates[static_cast<std::size_t>(s)];
    // Cold-start template by default; the base fan-out (chain roots only)
    // or an externally-supplied iterate overrides the full iterate through
    // the same copy path (one WarmStartIterate shape for both, so the base
    // warm start cannot diverge from the cache warm start). Either keeps
    // prepare_warm_start semantics: the escalated beta survives the warm
    // start.
    const admm::WarmStartIterate* seed = iterate;
    if (seed == nullptr && base != nullptr && sc.chain_from < 0) seed = base;
    if (sc.chain_from >= 0 && iterate == nullptr) {
      // Chained: iterate arrives via the on-device chain copy; beta via
      // chain inheritance in the wave loop.
    } else if (seed != nullptr) {
      scatter(seed->u, hu, slot);
      scatter(seed->v, hv, slot);
      scatter(seed->z, hz, slot);
      scatter(seed->y, hy, slot);
      scatter(seed->lz, hlz, slot);
      scatter(seed->bus_w, hw, slot);
      scatter(seed->bus_theta, htheta, slot);
      scatter(seed->gen_pg, hpg, slot);
      scatter(seed->gen_qg, hqg, slot);
      scatter(seed->branch_x, hbx, slot);
      scatter(seed->branch_s, hbs, slot);
      scatter(seed->branch_lambda, hblam, slot);
      set_beta(s, std::max(seed->beta, params_.beta0));
    } else {
      // One cold-start template serves every slot: it depends only on
      // bounds and topology, not on loads. Shared with
      // AdmmSolver::cold_start so the batch cold start cannot drift from
      // the sequential one. v starts as a copy of u; z, y, lz,
      // branch_lambda stay zero. Chained slots are overwritten on device
      // by the wave loop's chain copy before they run.
      scatter(cold_.u, hu, slot);
      scatter(cold_.u, hv, slot);
      scatter(cold_.w, hw, slot);
      scatter(cold_.pg, hpg, slot);
      scatter(cold_.qg, hqg, slot);
      scatter(cold_.branch_x, hbx, slot);
      scatter(cold_.branch_s, hbs, slot);
      set_beta(s, params_.beta0);
    }

    scatter(sc.pd, hpd, slot);
    scatter(sc.qd, hqd, slot);
    for (std::size_t g = 0; g < ng; ++g) {
      hpmin[slot0 * ng + g] = net_.generators[g].pmin;
      hpmax[slot0 * ng + g] = net_.generators[g].pmax;
    }

    // Outage zeroing runs last so no warm start can reintroduce values on
    // an outaged branch: its pairs and variables stay at zero, every
    // kernel skips them, and they contribute nothing to residuals.
    if (sc.outage_branch >= 0) {
      const auto l = static_cast<std::size_t>(sc.outage_branch);
      hactive[slot0 * nl + l] = 0;
      const auto pair_base =
          static_cast<std::size_t>(admm::branch_pair_base(model_.num_gens, sc.outage_branch));
      for (std::size_t t = 0; t < 8; ++t) {
        for (auto* arr : {&hu, &hv, &hz, &hy, &hlz}) (*arr)[slot0 * np + pair_base + t] = 0.0;
      }
      for (std::size_t a = 0; a < 4; ++a) hbx[slot0 * 4 * nl + 4 * l + a] = 0.0;
      for (std::size_t a = 0; a < 2; ++a) {
        hbs[slot0 * 2 * nl + 2 * l + a] = 0.0;
        hblam[slot0 * 2 * nl + 2 * l + a] = 0.0;
      }
    }
  }

  if (stage_iterates) {
    state.v.upload(hv);
    state.z.upload(hz);
    state.y.upload(hy);
    state.lz.upload(hlz);
    state.branch_lambda.upload(hblam);
    state.u.upload(hu);
    state.bus_w.upload(hw);
    state.bus_theta.upload(htheta);
    state.gen_pg.upload(hpg);
    state.gen_qg.upload(hqg);
    state.branch_x.upload(hbx);
    state.branch_s.upload(hbs);
  }
  state.pd.upload(hpd);
  state.qd.upload(hqd);
  state.pmin.upload(hpmin);
  state.pmax.upload(hpmax);
  state.branch_active.upload(hactive);
}

void BatchAdmmSolver::run_shard_wave(int shard_id, int wave_index,
                                     const BatchSolveOptions& options) {
  Shard& shard = shards_[static_cast<std::size_t>(shard_id)];
  const auto& wave =
      plan_.wave_shards[static_cast<std::size_t>(wave_index)][static_cast<std::size_t>(shard_id)];
  if (wave.empty()) return;
  WallTimer wave_timer;
  const obs::TraceSpan wave_span("solver.wave", "wave", static_cast<std::uint64_t>(wave_index),
                                 "scenarios", static_cast<std::uint64_t>(wave.size()));

  const int buf = wave_index % 2;
  admm::BatchAdmmState& dst_state = shard.states[static_cast<std::size_t>(buf)];

  std::vector<ChainLink> links;
  std::vector<RampLink> ramps;
  for (const int s : wave) {
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    if (sc.chain_from < 0) continue;
    const int dst_slot = plan_.slot_of[static_cast<std::size_t>(s)];
    const int src_slot = plan_.slot_of[static_cast<std::size_t>(sc.chain_from)];
    links.push_back({dst_slot, src_slot});
    if (sc.ramp_fraction > 0.0) ramps.push_back({dst_slot, src_slot, sc.ramp_fraction});
  }
  obs::PhaseTimer chain_timer;
  if (!links.empty()) {
    // Parents ran in wave d - 1, whose buffer is still resident.
    const admm::BatchAdmmState& src_state =
        shard.states[static_cast<std::size_t>((wave_index + 1) % 2)];
    batch_chain_state(*shard.dev, model_, src_state, dst_state, links);
    for (const int s : wave) {
      const auto& sc = scenarios_[static_cast<std::size_t>(s)];
      if (sc.chain_from < 0) continue;
      // prepare_warm_start semantics.
      set_beta(s, std::max(beta_[static_cast<std::size_t>(sc.chain_from)], params_.beta0));
    }
    if (!ramps.empty()) batch_apply_ramp(*shard.dev, model_, src_state, dst_state, ramps);
  }
  shard.phases.chain_seconds += chain_timer.take("fused.chain");

  run_fused(shard, buf, wave, options);

  const double wave_seconds = wave_timer.seconds();
  for (const int s : wave) {
    ctrl_[static_cast<std::size_t>(s)].stats().solve_seconds = wave_seconds;
  }
}

void BatchAdmmSolver::run_fused(Shard& shard, int buf, std::span<const int> wave,
                                const BatchSolveOptions& options) {
  std::vector<int> active(wave.begin(), wave.end());
  for (const int s : active) {
    // Termination knobs resolve against the batch-wide params, exactly as
    // solve_sequential resolves them. Batch solves record no residual history.
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    ctrl_[static_cast<std::size_t>(s)] =
        admm::LoopControl(effective_params(params_, sc.controls),
                          beta_[static_cast<std::size_t>(s)], false, sc.name);
  }

  const int lanes = shard.dev->workers();
  const std::span<const admm::ScenarioView> views = shard.views[static_cast<std::size_t>(buf)];
  // Per-step scratch lives outside the loop so the hot path performs no
  // allocations once capacities are reached.
  device::AlignedVector<double> partial_primal, partial_dual, partial_z;
  std::vector<int> next_active, slots, outer_slots, outer_scenarios;
  // Phase attribution and the trace come from ONE clock read per boundary:
  // take(name) returns the seconds accumulated into PhaseBreakdown and
  // emits the span over the identical interval, so the two cannot drift.
  obs::PhaseTimer phase_timer;
  const auto take_phase = [&phase_timer](double& accumulator, const char* name) {
    accumulator += phase_timer.take(name);
  };
  // Convergence sampling (observation-only; see BatchSolveOptions).
  const int sample_interval = options.convergence_sample_interval;
  const auto sample = [this](int s) {
    const auto& stats = ctrl_[static_cast<std::size_t>(s)].stats();
    auto& trajectory = traj_[static_cast<std::size_t>(s)];
    obs::ConvergenceSample point;
    point.inner_iteration = stats.inner_iterations;
    point.outer_iteration = stats.outer_iterations;
    point.primal_residual = stats.primal_residual;
    point.dual_residual = stats.dual_residual;
    point.beta = beta_[static_cast<std::size_t>(s)];
    point.tron_iterations = tron_accum_[static_cast<std::size_t>(s)];
    trajectory.samples.push_back(point);
  };

  while (!active.empty()) {
    ++shard.fused_steps;
    phase_timer.reset();
    const int n = static_cast<int>(active.size());
    const int row = admm::reduce_row_stride(n);
    const auto cells = static_cast<std::size_t>(lanes) * static_cast<std::size_t>(row);
    partial_primal.resize(cells);
    partial_dual.resize(cells);
    partial_z.resize(cells);
    if (sample_interval > 0) shard.tron_partial.resize(cells);
    slots.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      slots[static_cast<std::size_t>(j)] =
          plan_.slot_of[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])];
    }
    take_phase(shard.phases.residual_seconds, "fused.pack");

    // One fused step: every active scenario advances one inner iteration
    // with two launches on this shard's device, the x-update and the
    // v-update (admm/step_kernels.hpp).
    admm::update_x(*shard.dev, mview_, params_, views, slots, shard.branch_lanes,
                   &shard.branch_stats,
                   sample_interval > 0 ? std::span<std::uint64_t>(shard.tron_partial)
                                       : std::span<std::uint64_t>{},
                   row);
    take_phase(shard.phases.branch_seconds, "fused.branch");
    admm::update_v(*shard.dev, mview_, params_.two_level, views, slots, partial_primal,
                   partial_dual, partial_z, row);
    take_phase(shard.phases.bus_seconds, "fused.bus");

    next_active.clear();
    outer_slots.clear();
    outer_scenarios.clear();
    for (int j = 0; j < n; ++j) {
      const int s = active[static_cast<std::size_t>(j)];
      auto& control = ctrl_[static_cast<std::size_t>(s)];
      // A non-finite residual throws here and aborts the whole batch like a
      // device-side trap: the shared reduction rows can no longer be
      // trusted, and the serving layer isolates the poison scenario by
      // bisection (DESIGN.md §12).
      const auto next = control.end_inner(admm::collect_slot_max(partial_primal, j, row, lanes),
                                          admm::collect_slot_max(partial_dual, j, row, lanes));
      if (sample_interval > 0) {
        // Per-slot TRON attribution: sum this step's lane partials (sums
        // are order-free, so the attribution is deterministic).
        std::uint64_t step_tron = 0;
        for (int lane = 0; lane < lanes; ++lane) {
          step_tron += shard.tron_partial[static_cast<std::size_t>(lane) * row +
                                          static_cast<std::size_t>(j)];
        }
        tron_accum_[static_cast<std::size_t>(s)] += step_tron;
        if (control.stats().inner_iterations % sample_interval == 0) sample(s);
      }
      if (next == admm::LoopControl::Next::kInner) {
        next_active.push_back(s);
      } else if (next == admm::LoopControl::Next::kOuter) {
        outer_slots.push_back(slots[static_cast<std::size_t>(j)]);
        outer_scenarios.push_back(s);
        if (control.end_outer(admm::collect_slot_max(partial_z, j, row, lanes))) {
          next_active.push_back(s);
        }
      }
    }
    take_phase(shard.phases.residual_seconds, "fused.residual");

    // Every ended outer iteration, converged or not, gets the multiplier
    // update at the beta it ran with; the escalated beta applies after it,
    // as in AdmmSolver::solve.
    if (!outer_slots.empty()) {
      admm::update_outer_multiplier(*shard.dev, mview_, views, outer_slots,
                                    params_.lambda_bound);
    }
    take_phase(shard.phases.outer_seconds, "fused.outer");
    for (const int s : outer_scenarios) set_beta(s, ctrl_[static_cast<std::size_t>(s)].beta());

    active.swap(next_active);
  }

  if (sample_interval > 0) {
    // Retirement capture: every scenario's trajectory ends with its final
    // state even when the interval does not divide its iteration count.
    for (const int s : wave) {
      const auto& stats = ctrl_[static_cast<std::size_t>(s)].stats();
      auto& trajectory = traj_[static_cast<std::size_t>(s)];
      trajectory.scenario = s;
      trajectory.converged = stats.converged;
      trajectory.hit_iteration_cap = !stats.converged;
      if (trajectory.samples.empty() ||
          trajectory.samples.back().inner_iteration != stats.inner_iterations) {
        sample(s);
      }
    }
  }
}

void BatchAdmmSolver::evaluate_shard(int shard_id, int buf, std::span<const int> globals,
                                     ScenarioReport& report, grid::Network& eval_net) {
  if (globals.empty()) return;
  const admm::BatchAdmmState& state =
      shards_[static_cast<std::size_t>(shard_id)].states[static_cast<std::size_t>(buf)];
  const auto w = state.bus_w.to_host();
  const auto theta = state.bus_theta.to_host();
  const auto pg = state.gen_pg.to_host();
  const auto qg = state.gen_qg.to_host();
  const auto nb = static_cast<std::size_t>(model_.num_buses);
  const auto ng = static_cast<std::size_t>(model_.num_gens);
  for (const int s : globals) {
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    const auto slot = static_cast<std::size_t>(plan_.slot_of[static_cast<std::size_t>(s)]);
    auto& sol = solutions_[static_cast<std::size_t>(s)];
    sol = admm::to_solution(net_, std::span(w).subspan(slot * nb, nb),
                            std::span(theta).subspan(slot * nb, nb),
                            std::span(pg).subspan(slot * ng, ng),
                            std::span(qg).subspan(slot * ng, ng));
    apply_scenario_loads(eval_net, sc);
    report.records[static_cast<std::size_t>(s)] =
        make_record(s, sc, ctrl_[static_cast<std::size_t>(s)].stats(),
                    scenario_quality(eval_net, sc, sol));
  }
}

ScenarioReport BatchAdmmSolver::solve(const BatchSolveOptions& options) {
  WallTimer total;
  ScenarioReport report;
  const int S = num_scenarios();
  const obs::TraceSpan solve_span("solver.solve", "scenarios", static_cast<std::uint64_t>(S),
                                  "shards", static_cast<std::uint64_t>(num_shards()));
  ensure_storage();
  report.num_shards = num_shards();
  ctrl_.assign(static_cast<std::size_t>(S), admm::LoopControl{});
  beta_.assign(static_cast<std::size_t>(S), 0.0);
  report.records.assign(static_cast<std::size_t>(S), ScenarioRecord{});
  for (auto& shard : shards_) {
    shard.branch_stats = admm::BranchUpdateStats{};
    shard.phases = PhaseBreakdown{};
    shard.fused_steps = 0;
  }
  solutions_.assign(static_cast<std::size_t>(S), grid::OpfSolution{});
  if (options.convergence_sample_interval > 0) {
    traj_.assign(static_cast<std::size_t>(S), obs::ConvergenceTrajectory{});
    tron_accum_.assign(static_cast<std::size_t>(S), 0);
  } else {
    traj_.clear();
    tron_accum_.clear();
  }

  if (!options.initial_iterates.empty()) {
    require(static_cast<int>(options.initial_iterates.size()) == S,
            "BatchAdmmSolver::solve: initial_iterates must have one slot per scenario");
    for (int s = 0; s < S; ++s) {
      const auto* it = options.initial_iterates[static_cast<std::size_t>(s)];
      if (it == nullptr) continue;
      admm::require_matches(*it, model_, "BatchAdmmSolver::solve");
      require(scenarios_[static_cast<std::size_t>(s)].chain_from < 0,
              "BatchAdmmSolver::solve: a chained scenario cannot take an initial iterate");
    }
  }

  // ---- Plan done; execute: base solve, then stage/run/capture per wave ----
  admm::WarmStartIterate base;
  const admm::WarmStartIterate* base_ptr = nullptr;
  if (options.warm_start_from_base) {
    base = solve_base(report);
    base_ptr = &base;
  }

  std::vector<device::LaunchStats> launches_before;
  launches_before.reserve(devs_.size());
  for (const auto* dev : devs_) launches_before.push_back(dev->stats());

  grid::Network eval_net = net_;  // one reusable copy; loads swapped per scenario
  std::uint64_t loop_transfers = 0;
  double fused_seconds = 0.0;

  // Runs every shard's slice of a wave concurrently, one thread per
  // non-trivial shard; shard 0 runs on the calling thread. Shards touch
  // disjoint scenarios and their own devices, so the only shared state is
  // the per-scenario bookkeeping each thread owns a disjoint slice of.
  auto run_wave = [&](int wave_index) {
    if (num_shards() == 1) {
      run_shard_wave(0, wave_index, options);
      return;
    }
    const auto& wave_shards = plan_.wave_shards[static_cast<std::size_t>(wave_index)];
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_shards() - 1));
    for (int d = 1; d < num_shards(); ++d) {
      if (wave_shards[static_cast<std::size_t>(d)].empty()) continue;
      threads.emplace_back([&, d] {
        try {
          run_shard_wave(d, wave_index, options);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    try {
      run_shard_wave(0, wave_index, options);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    for (auto& thread : threads) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  };

  for (int wave_index = 0; wave_index < plan_.num_waves(); ++wave_index) {
    // Staging reuses the buffer wave_index - 2 ran in; its results were
    // captured at that wave's end. The base fan-out seeds chain roots, all
    // of which are in wave 0. Staging and capture transfers stay outside
    // the iteration-transfer accounting window.
    const int buf = wave_index % 2;
    const auto& wave_shards = plan_.wave_shards[static_cast<std::size_t>(wave_index)];
    for (int d = 0; d < num_shards(); ++d) {
      stage_buffer(shards_[static_cast<std::size_t>(d)], buf,
                   wave_shards[static_cast<std::size_t>(d)],
                   wave_index == 0 ? base_ptr : nullptr, options);
    }
    const auto transfers_before = device::transfer_stats();
    WallTimer wave_timer;
    run_wave(wave_index);
    fused_seconds += wave_timer.seconds();
    const auto transfers_after = device::transfer_stats();
    loop_transfers += (transfers_after.host_to_device - transfers_before.host_to_device) +
                      (transfers_after.device_to_host - transfers_before.device_to_host);
    for (int d = 0; d < num_shards(); ++d) {
      evaluate_shard(d, buf, wave_shards[static_cast<std::size_t>(d)], report, eval_net);
    }
  }
  report.solve_seconds = fused_seconds;
  report.transfers_during_iterations = loop_transfers;

  report.shard_launches.clear();
  report.shard_launches.reserve(devs_.size());
  for (std::size_t d = 0; d < devs_.size(); ++d) {
    report.shard_launches.push_back(devs_[d]->stats() - launches_before[d]);
    report.launch_stats += report.shard_launches.back();
  }

  report.stats.reserve(static_cast<std::size_t>(S));
  for (const auto& control : ctrl_) report.stats.push_back(control.stats());
  if (options.convergence_sample_interval > 0) report.convergence = traj_;
  for (const auto& shard : shards_) {
    report.branch += shard.branch_stats;
    report.phases += shard.phases;
    report.fused_steps += shard.fused_steps;
  }
  report.total_seconds = total.seconds();
  solved_ = true;
  return report;
}

const grid::OpfSolution& BatchAdmmSolver::solution(int s) const {
  require(s >= 0 && s < num_scenarios(), "BatchAdmmSolver::solution: scenario out of range");
  require(solved_, "BatchAdmmSolver::solution: valid only after solve()");
  return solutions_[static_cast<std::size_t>(s)];
}

admm::WarmStartIterate BatchAdmmSolver::export_iterate(int s) const {
  require(s >= 0 && s < num_scenarios(), "BatchAdmmSolver::export_iterate: scenario out of range");
  require(solved_, "BatchAdmmSolver::export_iterate: valid only after solve()");
  require(plan_.wave_of[static_cast<std::size_t>(s)] >= plan_.num_waves() - 2,
          "BatchAdmmSolver::export_iterate: scenario's wave buffer was reused (only the last "
          "two waves stay resident)");
  const Shard& shard =
      shards_[static_cast<std::size_t>(plan_.shard_of[static_cast<std::size_t>(s)])];
  return shard.states[static_cast<std::size_t>(plan_.buffer_of(s))].export_slot(
      model_, plan_.slot_of[static_cast<std::size_t>(s)], beta_[static_cast<std::size_t>(s)]);
}

const std::vector<grid::OpfSolution>& BatchAdmmSolver::solutions() const {
  require(solved_, "BatchAdmmSolver::solutions: valid only after solve()");
  return solutions_;
}

ScenarioReport solve_sequential(const ScenarioSet& set, const admm::AdmmParams& params,
                                device::Device* dev) {
  device::Device* device = dev != nullptr ? dev : &device::default_device();
  const auto& net = set.network();
  const int S = set.size();
  require(S > 0, "solve_sequential: scenario set is empty");

  WallTimer total;
  ScenarioReport report;
  report.records.reserve(static_cast<std::size_t>(S));
  report.stats.reserve(static_cast<std::size_t>(S));
  // A solver is retained only while unconstructed children still need it,
  // so tracking chains hold O(live parents) solver states, not O(S).
  std::vector<int> children_left(static_cast<std::size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    if (set[s].chain_from >= 0) ++children_left[static_cast<std::size_t>(set[s].chain_from)];
  }
  std::vector<std::unique_ptr<admm::AdmmSolver>> solvers(static_cast<std::size_t>(S));
  grid::Network eval_net = net;  // one reusable copy; loads swapped per scenario

  // Explicit snapshot rather than a function-scope LaunchStatsScope: the
  // scope's destructor would run after `return report` has already copied
  // the (then still zero) launch_stats when NRVO is not performed.
  const device::LaunchStats launches_before = device->stats();
  WallTimer solve_timer;
  for (int s = 0; s < S; ++s) {
    const auto& sc = set[s];
    std::unique_ptr<admm::AdmmSolver> solver;
    if (sc.outage_branch >= 0) {
      solver = std::make_unique<admm::AdmmSolver>(
          grid::network_without_branch(net, sc.outage_branch), params, device);
      solver->set_loads(sc.pd, sc.qd);
    } else if (sc.chain_from >= 0) {
      // Warm start from a copy of the parent's solver (full iterate kept).
      solver =
          std::make_unique<admm::AdmmSolver>(*solvers[static_cast<std::size_t>(sc.chain_from)]);
      const int ng = net.num_generators();
      std::vector<double> pmin(static_cast<std::size_t>(ng)), pmax(static_cast<std::size_t>(ng));
      const auto prev_pg = solver->solution().pg;
      for (int g = 0; g < ng; ++g) {
        const auto& gen = net.generators[static_cast<std::size_t>(g)];
        if (sc.ramp_fraction > 0.0) {
          const double ramp = sc.ramp_fraction * gen.pmax;
          pmin[static_cast<std::size_t>(g)] =
              std::max(gen.pmin, prev_pg[static_cast<std::size_t>(g)] - ramp);
          pmax[static_cast<std::size_t>(g)] =
              std::min(gen.pmax, prev_pg[static_cast<std::size_t>(g)] + ramp);
        } else {
          pmin[static_cast<std::size_t>(g)] = gen.pmin;
          pmax[static_cast<std::size_t>(g)] = gen.pmax;
        }
      }
      solver->set_generator_pg_bounds(pmin, pmax);
      solver->set_loads(sc.pd, sc.qd);
      solver->prepare_warm_start();
      const auto parent = static_cast<std::size_t>(sc.chain_from);
      if (--children_left[parent] == 0) solvers[parent].reset();
    } else {
      solver = std::make_unique<admm::AdmmSolver>(net, params, device);
      solver->set_loads(sc.pd, sc.qd);
    }
    // Heterogeneous termination knobs resolve against the batch-wide base
    // params — not a chained parent's possibly-overridden copy — exactly as
    // the batch engine does, so the assignment is unconditional.
    solver->params() = effective_params(params, sc.controls);

    auto stats = solver->solve();
    const auto sol = solver->solution();
    apply_scenario_loads(eval_net, sc);
    report.branch += stats.branch;
    report.records.push_back(make_record(s, sc, stats, scenario_quality(eval_net, sc, sol)));
    report.stats.push_back(std::move(stats));
    if (children_left[static_cast<std::size_t>(s)] > 0) {
      solvers[static_cast<std::size_t>(s)] = std::move(solver);
    }
  }
  report.solve_seconds = solve_timer.seconds();
  report.launch_stats = device->stats() - launches_before;
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace gridadmm::scenario
