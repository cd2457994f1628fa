// Tests of the warm-start tracking driver (paper Section IV-C).
#include <gtest/gtest.h>

#include <cmath>

#include "device/buffer.hpp"
#include "device/pool.hpp"
#include "grid/cases.hpp"
#include "opf/tracking.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::opf {
namespace {

TEST(Tracking, ProducesOneRecordPerPeriod) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 5;
  options.run_ipm = false;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);
  const auto records = sim.run();
  ASSERT_EQ(records.size(), 5u);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(records[t].period, t + 1);
    EXPECT_TRUE(records[t].admm_converged) << "period " << t + 1;
    EXPECT_LT(records[t].admm_violation, 1e-2);
  }
  EXPECT_DOUBLE_EQ(records[0].load_scale, 1.0);
}

TEST(Tracking, WarmPeriodsAreCheaperThanColdStart) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 6;
  options.run_ipm = false;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);
  const auto records = sim.run();
  // The paper's Figure 1 claim: warm-started periods take far fewer
  // iterations than the cold first period.
  for (std::size_t t = 1; t < records.size(); ++t) {
    EXPECT_LT(records[t].admm_iterations, records[0].admm_iterations)
        << "period " << t + 1;
  }
}

/// The one-profile tracking set the simulator's options describe.
scenario::ScenarioSet tracking_set(const grid::Network& net, const TrackingOptions& options) {
  scenario::ScenarioSet set(net);
  grid::LoadProfileSpec spec;
  spec.periods = options.periods;
  spec.max_drift = options.max_drift;
  spec.seed = options.profile_seed;
  set.add_tracking_sequence(spec, options.ramp_fraction);
  return set;
}

TEST(Tracking, SimulatorMatchesSequentialTrackingSet) {
  // The simulator's ADMM half (its own warm-start chain and host-side ramp
  // bounds) reproduces the sequential reference of the same tracking set.
  // At a 0.5% ramp some case14 generators sit on their ramp limit, so the
  // ramp bounds shape the answer; on case9 none does.
  for (const char* name : {"case9", "case14"}) {
    SCOPED_TRACE(name);
    const auto net = grid::load_embedded_case(name);
    const auto params = admm::params_for_case(name, net.num_buses());
    TrackingOptions options;
    options.periods = 5;
    options.ramp_fraction = 0.005;
    options.run_ipm = false;
    TrackingSimulator sim(net, params, options);
    const auto records = sim.run();
    const auto sequential = scenario::solve_sequential(tracking_set(net, options), params);

    ASSERT_EQ(records.size(), sequential.records.size());
    for (std::size_t t = 0; t < records.size(); ++t) {
      SCOPED_TRACE("period " + std::to_string(t + 1));
      EXPECT_EQ(records[t].admm_iterations, sequential.records[t].inner_iterations);
      EXPECT_EQ(records[t].admm_converged, sequential.records[t].converged);
      EXPECT_DOUBLE_EQ(records[t].admm_objective, sequential.records[t].objective);
    }
  }
}

TEST(Tracking, RampLimitsRestrictDispatchChanges) {
  // A 0.5% ramp binds on case14 (a 2% one never does over these periods),
  // so the check below sees the ramp bounds at work.
  const auto net = grid::load_embedded_case("case14");
  TrackingOptions options;
  options.periods = 5;
  options.ramp_fraction = 0.005;
  const auto set = tracking_set(net, options);
  scenario::BatchAdmmSolver solver(set, admm::params_for_case("case14", net.num_buses()));
  solver.solve();
  const auto& solutions = solver.solutions();
  ASSERT_EQ(solutions.size(), 5u);
  int at_limit = 0;
  for (std::size_t t = 1; t < solutions.size(); ++t) {
    for (int g = 0; g < net.num_generators(); ++g) {
      const double ramp = options.ramp_fraction * net.generators[g].pmax;
      const double change = std::abs(solutions[t].pg[g] - solutions[t - 1].pg[g]);
      EXPECT_LE(change, ramp + 1e-6) << "gen " << g << " period " << t + 1;
      if (change > 0.999 * ramp) ++at_limit;
    }
  }
  EXPECT_GT(at_limit, 0);
}

TEST(Tracking, BaselineComparisonFillsGapColumn) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 3;
  options.run_ipm = true;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);
  const auto records = sim.run();
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.ipm_converged);
    EXPECT_LT(rec.relative_gap, 0.02);
    EXPECT_GT(rec.ipm_objective, 0.0);
  }
}

TEST(Tracking, BatchedTrackingMatchesSequentialAndCapsMemory) {
  // Batched tracking must reproduce the sequential warm-start chain of the
  // same profiles period for period, and its live batch-state footprint
  // must stay constant in the number of periods.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  TrackingOptions options;
  options.periods = 5;
  options.run_ipm = false;
  const auto live_before = device::allocation_stats().live_bytes;
  device::reset_allocation_peak();
  const auto batched = run_batched_tracking(net, params, options, 2);
  const auto peak = device::allocation_stats().peak_bytes - live_before;

  // The same tracking set, solved scenario by scenario.
  scenario::ScenarioSet set(net);
  for (int p = 0; p < 2; ++p) {
    grid::LoadProfileSpec spec;
    spec.periods = options.periods;
    spec.max_drift = options.max_drift;
    spec.seed = options.profile_seed + static_cast<std::uint64_t>(p);
    set.add_tracking_sequence(spec, options.ramp_fraction);
  }
  const auto sequential = scenario::solve_sequential(set, params);

  ASSERT_EQ(batched.profiles.size(), 2u);
  for (std::size_t p = 0; p < batched.profiles.size(); ++p) {
    ASSERT_EQ(batched.profiles[p].size(), 5u);
    for (std::size_t t = 0; t < batched.profiles[p].size(); ++t) {
      SCOPED_TRACE("profile " + std::to_string(p) + " period " + std::to_string(t));
      const auto& reference = sequential.records[p * 5 + t];
      EXPECT_EQ(batched.profiles[p][t].admm_iterations, reference.inner_iterations);
      EXPECT_EQ(batched.profiles[p][t].admm_converged, reference.converged);
      EXPECT_DOUBLE_EQ(batched.profiles[p][t].admm_objective, reference.objective);
    }
  }

  // Doubling the horizon must not grow the peak.
  TrackingOptions longer = options;
  longer.periods = 10;
  const auto live_before_long = device::allocation_stats().live_bytes;
  device::reset_allocation_peak();
  run_batched_tracking(net, params, longer, 2);
  const auto long_peak = device::allocation_stats().peak_bytes - live_before_long;
  EXPECT_EQ(long_peak, peak);
}

TEST(Tracking, BatchedTrackingOverDevicePoolMatchesSingleDevice) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  TrackingOptions options;
  options.periods = 4;
  options.run_ipm = false;
  const auto single = run_batched_tracking(net, params, options, 3);
  device::DevicePool pool(2, 2);
  const auto sharded = run_batched_tracking(net, params, options, 3, pool);
  ASSERT_EQ(sharded.profiles.size(), single.profiles.size());
  for (std::size_t p = 0; p < sharded.profiles.size(); ++p) {
    for (std::size_t t = 0; t < sharded.profiles[p].size(); ++t) {
      SCOPED_TRACE("profile " + std::to_string(p) + " period " + std::to_string(t));
      EXPECT_EQ(sharded.profiles[p][t].admm_iterations, single.profiles[p][t].admm_iterations);
      EXPECT_LT(
          std::abs(sharded.profiles[p][t].admm_objective - single.profiles[p][t].admm_objective) /
              single.profiles[p][t].admm_objective,
          1e-6);
    }
  }
  EXPECT_EQ(sharded.report.num_shards, 2);
}

}  // namespace
}  // namespace gridadmm::opf
