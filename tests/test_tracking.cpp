// Tests of the warm-start tracking driver (paper Section IV-C).
#include <gtest/gtest.h>

#include <cmath>

#include "device/buffer.hpp"
#include "device/pool.hpp"
#include "grid/cases.hpp"
#include "opf/tracking.hpp"

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

TEST(Tracking, RampLimitsRestrictDispatchChanges) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 4;
  options.run_ipm = false;
  options.ramp_fraction = 0.02;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);

  // Re-run manually to capture dispatch: use the solver API directly.
  admm::AdmmSolver solver(net, admm::params_for_case("case9", 9));
  std::vector<double> prev_pg;
  const auto& profile = sim.load_profile();
  std::vector<double> pd(net.num_buses()), qd(net.num_buses());
  std::vector<double> pmin(net.num_generators()), pmax(net.num_generators());
  for (int t = 0; t < options.periods; ++t) {
    for (int i = 0; i < net.num_buses(); ++i) {
      pd[i] = net.buses[i].pd * profile[t];
      qd[i] = net.buses[i].qd * profile[t];
    }
    for (int g = 0; g < net.num_generators(); ++g) {
      const double ramp = options.ramp_fraction * net.generators[g].pmax;
      pmin[g] = t == 0 ? net.generators[g].pmin
                       : std::max(net.generators[g].pmin, prev_pg[g] - ramp);
      pmax[g] = t == 0 ? net.generators[g].pmax
                       : std::min(net.generators[g].pmax, prev_pg[g] + ramp);
    }
    solver.set_loads(pd, qd);
    solver.set_generator_pg_bounds(pmin, pmax);
    if (t > 0) solver.prepare_warm_start();
    solver.solve();
    const auto pg = solver.solution().pg;
    if (t > 0) {
      for (int g = 0; g < net.num_generators(); ++g) {
        const double ramp = options.ramp_fraction * net.generators[g].pmax;
        EXPECT_LE(std::abs(pg[g] - prev_pg[g]), ramp + 1e-6)
            << "gen " << g << " period " << t + 1;
      }
    }
    prev_pg = pg;
  }
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

TEST(Tracking, BatchedPingPongMatchesPersistentLayoutAndCapsMemory) {
  // run_batched_tracking defaults to ping-pong wave memory; the records
  // must be identical to the persistent layout, and the live batch-state
  // footprint must stay constant in the number of periods.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  TrackingOptions flat_options;
  flat_options.periods = 5;
  flat_options.run_ipm = false;
  flat_options.ping_pong = false;
  const auto flat = run_batched_tracking(net, params, flat_options, 2);

  TrackingOptions pp_options = flat_options;
  pp_options.ping_pong = true;
  const auto live_before = device::allocation_stats().live_bytes;
  device::reset_allocation_peak();
  const auto pp = run_batched_tracking(net, params, pp_options, 2);
  const auto pp_peak = device::allocation_stats().peak_bytes - live_before;

  ASSERT_EQ(pp.profiles.size(), flat.profiles.size());
  for (std::size_t p = 0; p < pp.profiles.size(); ++p) {
    ASSERT_EQ(pp.profiles[p].size(), flat.profiles[p].size());
    for (std::size_t t = 0; t < pp.profiles[p].size(); ++t) {
      SCOPED_TRACE("profile " + std::to_string(p) + " period " + std::to_string(t));
      EXPECT_EQ(pp.profiles[p][t].admm_iterations, flat.profiles[p][t].admm_iterations);
      EXPECT_EQ(pp.profiles[p][t].admm_converged, flat.profiles[p][t].admm_converged);
      EXPECT_LT(std::abs(pp.profiles[p][t].admm_objective - flat.profiles[p][t].admm_objective) /
                    flat.profiles[p][t].admm_objective,
                1e-6);
    }
  }

  // Doubling the horizon must not grow the ping-pong peak.
  TrackingOptions longer = pp_options;
  longer.periods = 10;
  const auto live_before_long = device::allocation_stats().live_bytes;
  device::reset_allocation_peak();
  run_batched_tracking(net, params, longer, 2);
  const auto long_peak = device::allocation_stats().peak_bytes - live_before_long;
  EXPECT_EQ(long_peak, pp_peak);
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
