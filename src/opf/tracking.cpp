#include "opf/tracking.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "grid/solution.hpp"
#include "obs/trace.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::opf {

TrackingSimulator::TrackingSimulator(grid::Network net, admm::AdmmParams params,
                                     TrackingOptions options, device::Device* dev)
    : net_(std::move(net)), params_(params), options_(options),
      dev_(dev != nullptr ? dev : &device::default_device()) {
  grid::LoadProfileSpec spec;
  spec.periods = options_.periods;
  spec.max_drift = options_.max_drift;
  spec.seed = options_.profile_seed;
  profile_ = grid::make_load_profile(spec);
  base_pd_.reserve(net_.buses.size());
  base_qd_.reserve(net_.buses.size());
  for (const auto& bus : net_.buses) {
    base_pd_.push_back(bus.pd);
    base_qd_.push_back(bus.qd);
  }
}

std::vector<PeriodRecord> TrackingSimulator::run() {
  const int ng = net_.num_generators();
  std::vector<double> pmin0(ng), pmax0(ng), ramp(ng);
  for (int g = 0; g < ng; ++g) {
    pmin0[g] = net_.generators[g].pmin;
    pmax0[g] = net_.generators[g].pmax;
    ramp[g] = options_.ramp_fraction * net_.generators[g].pmax;
  }

  admm::AdmmSolver admm_solver(net_, params_, dev_);
  ipm::AcopfNlp nlp(net_);
  ipm::IpmSolver ipm_solver(nlp, options_.ipm);

  std::vector<double> pd(net_.buses.size()), qd(net_.buses.size());
  std::vector<double> pmin(ng), pmax(ng);
  std::vector<double> admm_prev_pg, ipm_prev_pg;

  if (options_.trace) obs::Tracer::instance().enable();
  std::vector<PeriodRecord> records;
  records.reserve(static_cast<std::size_t>(options_.periods));
  for (int t = 0; t < options_.periods; ++t) {
    const obs::TraceSpan period_span("tracking.period", "period",
                                     static_cast<std::uint64_t>(t + 1));
    PeriodRecord rec;
    rec.period = t + 1;
    rec.load_scale = profile_[t];
    for (std::size_t i = 0; i < pd.size(); ++i) {
      pd[i] = base_pd_[i] * profile_[t];
      qd[i] = base_qd_[i] * profile_[t];
    }

    // ---- ADMM ----
    {
      auto ramp_bounds = [&](const std::vector<double>& prev) {
        for (int g = 0; g < ng; ++g) {
          pmin[g] = t == 0 ? pmin0[g] : std::max(pmin0[g], prev[g] - ramp[g]);
          pmax[g] = t == 0 ? pmax0[g] : std::min(pmax0[g], prev[g] + ramp[g]);
        }
      };
      ramp_bounds(admm_prev_pg);
      admm_solver.set_loads(pd, qd);
      admm_solver.set_generator_pg_bounds(pmin, pmax);
      if (t > 0) admm_solver.prepare_warm_start();
      const auto stats = admm_solver.solve();
      const auto sol = admm_solver.solution();
      const auto quality = grid::evaluate_solution(admm_solver.network(), sol);
      rec.admm_seconds = stats.solve_seconds;
      rec.admm_iterations = stats.inner_iterations;
      rec.admm_objective = quality.objective;
      rec.admm_violation = quality.max_violation;
      rec.admm_converged = stats.converged;
      admm_prev_pg = sol.pg;
    }

    // ---- Interior-point baseline ----
    if (options_.run_ipm) {
      for (int g = 0; g < ng; ++g) {
        const double prev = t == 0 ? 0.0 : ipm_prev_pg[g];
        pmin[g] = t == 0 ? pmin0[g] : std::max(pmin0[g], prev - ramp[g]);
        pmax[g] = t == 0 ? pmax0[g] : std::min(pmax0[g], prev + ramp[g]);
      }
      nlp.set_loads(pd, qd);
      nlp.set_pg_bounds(pmin, pmax);
      ipm_solver.options().warm_start = t > 0;
      const auto result = ipm_solver.solve();
      const auto sol = nlp.unpack(ipm_solver.primal());
      const auto quality = grid::evaluate_solution(nlp.network(), sol);
      rec.ipm_seconds = result.solve_seconds;
      rec.ipm_iterations = result.iterations;
      rec.ipm_objective = quality.objective;
      rec.ipm_violation = quality.max_violation;
      rec.ipm_converged = result.status == ipm::IpmStatus::kOptimal;
      ipm_prev_pg = sol.pg;
      if (rec.ipm_converged) {
        rec.relative_gap = grid::relative_gap(rec.admm_objective, rec.ipm_objective);
      }
    }

    log::info("tracking period ", rec.period, ": scale=", rec.load_scale,
              " admm=", rec.admm_seconds, "s (", rec.admm_iterations, " it)",
              options_.run_ipm ? " ipm=" : "", options_.run_ipm ? std::to_string(rec.ipm_seconds) : "");
    records.push_back(rec);
  }
  return records;
}

namespace {

/// Shared implementation: builds the per-profile tracking set, solves it
/// with the caller's solver (single-device or sharded), and reshapes the
/// report into per-profile period records.
BatchTrackingResult run_batched_tracking_impl(const grid::Network& net,
                                              const admm::AdmmParams& params,
                                              const TrackingOptions& options, int num_profiles,
                                              device::Device* dev, device::DevicePool* pool) {
  require(num_profiles > 0, "run_batched_tracking: num_profiles must be positive");

  scenario::ScenarioSet set(net);
  std::vector<int> first_index(static_cast<std::size_t>(num_profiles));
  for (int p = 0; p < num_profiles; ++p) {
    grid::LoadProfileSpec spec;
    spec.periods = options.periods;
    spec.max_drift = options.max_drift;
    spec.seed = options.profile_seed + static_cast<std::uint64_t>(p);
    first_index[static_cast<std::size_t>(p)] =
        set.add_tracking_sequence(spec, options.ramp_fraction);
  }

  // One fused batch per period: wave t holds every profile's period t.
  // Ping-pong keeps only the current and previous period's state resident,
  // so device memory stays O(2 x profiles x case) for any horizon length.
  scenario::BatchSolveOptions solve_options;
  solve_options.ping_pong = options.ping_pong;
  solve_options.layout = options.layout;
  solve_options.trace = options.trace;
  solve_options.convergence_sample_interval = options.convergence_sample_interval;
  if (options.trace) obs::Tracer::instance().enable();
  const obs::TraceSpan tracking_span("tracking.batched", "profiles",
                                     static_cast<std::uint64_t>(num_profiles), "periods",
                                     static_cast<std::uint64_t>(options.periods));
  BatchTrackingResult result;
  if (pool != nullptr) {
    scenario::BatchAdmmSolver solver(set, params, *pool);
    result.report = solver.solve(solve_options);
  } else {
    scenario::BatchAdmmSolver solver(set, params, dev);
    result.report = solver.solve(solve_options);
  }

  result.profiles.assign(static_cast<std::size_t>(num_profiles), {});
  for (int p = 0; p < num_profiles; ++p) {
    auto& periods = result.profiles[static_cast<std::size_t>(p)];
    periods.reserve(static_cast<std::size_t>(options.periods));
    for (int t = 0; t < options.periods; ++t) {
      const auto& rec = result.report.records[static_cast<std::size_t>(
          first_index[static_cast<std::size_t>(p)] + t)];
      PeriodRecord period;
      period.period = t + 1;
      period.load_scale = set[rec.index].load_scale;
      period.admm_seconds = rec.seconds;  // shared: the period's fused wave
      period.admm_iterations = rec.inner_iterations;
      period.admm_objective = rec.objective;
      period.admm_violation = rec.max_violation;
      period.admm_converged = rec.converged;
      periods.push_back(period);
    }
  }
  return result;
}

}  // namespace

BatchTrackingResult run_batched_tracking(const grid::Network& net,
                                         const admm::AdmmParams& params,
                                         const TrackingOptions& options, int num_profiles,
                                         device::Device* dev) {
  return run_batched_tracking_impl(net, params, options, num_profiles, dev, nullptr);
}

BatchTrackingResult run_batched_tracking(const grid::Network& net,
                                         const admm::AdmmParams& params,
                                         const TrackingOptions& options, int num_profiles,
                                         device::DevicePool& pool) {
  return run_batched_tracking_impl(net, params, options, num_profiles, nullptr, &pool);
}

}  // namespace gridadmm::opf
