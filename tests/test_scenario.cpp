// Scenario generation: determinism, N-1 topology rules, chaining structure.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "grid/cases.hpp"
#include "grid/network.hpp"
#include "scenario/ipm_engine.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::scenario {
namespace {

grid::Network two_triangles_with_bridge() {
  // Buses 0-1-2 and 3-4-5 form triangles joined only by branch 2-3: that
  // branch is a bridge, every triangle edge is not.
  grid::Network net;
  net.name = "bridge6";
  for (int i = 0; i < 6; ++i) {
    grid::Bus bus;
    bus.id = i + 1;
    bus.type = i == 0 ? grid::BusType::kRef : grid::BusType::kPQ;
    bus.pd = 10.0;
    bus.qd = 2.0;
    net.buses.push_back(bus);
  }
  auto link = [&](int a, int b) {
    grid::Branch br;
    br.from = a;
    br.to = b;
    br.r = 0.01;
    br.x = 0.1;
    net.branches.push_back(br);
  };
  link(0, 1);
  link(1, 2);
  link(2, 0);
  link(2, 3);  // the bridge (branch index 3)
  link(3, 4);
  link(4, 5);
  link(5, 3);
  grid::Generator gen;
  gen.bus = 0;
  gen.pmax = 100.0;
  gen.qmin = -50.0;
  gen.qmax = 50.0;
  gen.c1 = 10.0;
  net.generators.push_back(gen);
  net.finalize();
  return net;
}

TEST(Scenario, StochasticGenerationIsDeterministicPerSeed) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet a(net);
  a.add_stochastic_load(4, 0.05, 42);
  ScenarioSet b(net);
  b.add_stochastic_load(4, 0.05, 42);
  ASSERT_EQ(a.size(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a[s].pd, b[s].pd);
    EXPECT_EQ(a[s].qd, b[s].qd);
  }
  // A different seed must produce different loads.
  ScenarioSet c(net);
  c.add_stochastic_load(4, 0.05, 43);
  EXPECT_NE(a[0].pd, c[0].pd);
}

TEST(Scenario, StochasticPerturbationsPreservePowerFactor) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  set.add_stochastic_load(1, 0.05, 7);
  for (int i = 0; i < net.num_buses(); ++i) {
    if (net.buses[i].pd == 0.0) continue;
    const double factor = set[0].pd[i] / net.buses[i].pd;
    EXPECT_NEAR(set[0].qd[i], net.buses[i].qd * factor, 1e-12);
  }
}

TEST(Scenario, LoadScaleSpansTheRequestedRange) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  set.add_load_scale(5, 0.9, 1.1);
  ASSERT_EQ(set.size(), 5);
  EXPECT_DOUBLE_EQ(set[0].load_scale, 0.9);
  EXPECT_DOUBLE_EQ(set[2].load_scale, 1.0);
  EXPECT_DOUBLE_EQ(set[4].load_scale, 1.1);
  for (int i = 0; i < net.num_buses(); ++i) {
    EXPECT_NEAR(set[0].pd[i], 0.9 * net.buses[i].pd, 1e-12);
  }
}

TEST(Scenario, N1DropsExactlyOneInServiceBranchEach) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  const int appended = set.add_n1_contingencies();
  EXPECT_GT(appended, 0);
  std::vector<bool> seen(static_cast<std::size_t>(net.num_branches()), false);
  for (int s = 0; s < set.size(); ++s) {
    const auto& sc = set[s];
    EXPECT_EQ(sc.kind, ScenarioKind::kContingency);
    ASSERT_GE(sc.outage_branch, 0);
    ASSERT_LT(sc.outage_branch, net.num_branches());
    EXPECT_TRUE(net.branches[sc.outage_branch].on);
    EXPECT_FALSE(seen[static_cast<std::size_t>(sc.outage_branch)]) << "duplicate outage";
    seen[static_cast<std::size_t>(sc.outage_branch)] = true;
    // Removing the branch must keep the network connected.
    EXPECT_NO_THROW(grid::network_without_branch(net, sc.outage_branch));
  }
}

TEST(Scenario, N1SkipsBridges) {
  const auto net = two_triangles_with_bridge();
  EXPECT_TRUE(grid::is_bridge(net, 3));
  EXPECT_FALSE(grid::is_bridge(net, 0));
  ScenarioSet set(net);
  const int appended = set.add_n1_contingencies();
  EXPECT_EQ(appended, 6);  // 7 branches, one bridge
  for (int s = 0; s < set.size(); ++s) EXPECT_NE(set[s].outage_branch, 3);
}

TEST(Scenario, AddRejectsBridgeOutage) {
  const auto net = two_triangles_with_bridge();
  ScenarioSet set(net);
  Scenario bridge_outage;
  bridge_outage.outage_branch = 3;  // the bridge
  EXPECT_THROW(set.add(bridge_outage), GridError);
  Scenario ring_outage;
  ring_outage.outage_branch = 0;
  EXPECT_NO_THROW(set.add(ring_outage));
}

TEST(Scenario, NetworkWithoutBranchRejectsBridgeRemoval) {
  const auto net = two_triangles_with_bridge();
  EXPECT_THROW(grid::network_without_branch(net, 3), GridError);
  const auto reduced = grid::network_without_branch(net, 0);
  EXPECT_EQ(reduced.num_branches(), net.num_branches() - 1);
  EXPECT_EQ(reduced.num_buses(), net.num_buses());
}

TEST(Scenario, TrackingSequenceChainsPeriodToPeriod) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  grid::LoadProfileSpec spec;
  spec.periods = 5;
  const int first = set.add_tracking_sequence(spec, 0.02);
  ASSERT_EQ(set.size(), 5);
  EXPECT_EQ(set[first].chain_from, -1);
  EXPECT_DOUBLE_EQ(set[first].ramp_fraction, 0.0);
  for (int t = 1; t < 5; ++t) {
    EXPECT_EQ(set[first + t].chain_from, first + t - 1);
    EXPECT_DOUBLE_EQ(set[first + t].ramp_fraction, 0.02);
  }
  // Waves: one per period, because each period depends on the previous.
  const auto waves = set.waves();
  ASSERT_EQ(waves.size(), 5u);
  for (const auto& wave : waves) EXPECT_EQ(wave.size(), 1u);
}

TEST(Scenario, WavesGroupIndependentScenariosTogether) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  set.add_load_scale(3, 0.95, 1.05);
  grid::LoadProfileSpec spec;
  spec.periods = 3;
  set.add_tracking_sequence(spec, 0.02);
  set.add_tracking_sequence(spec, 0.02);
  const auto waves = set.waves();
  ASSERT_EQ(waves.size(), 3u);
  // Wave 0: the 3 load-scale scenarios plus both sequences' period 0.
  EXPECT_EQ(waves[0].size(), 5u);
  EXPECT_EQ(waves[1].size(), 2u);
  EXPECT_EQ(waves[2].size(), 2u);
}

TEST(Scenario, AddValidatesChainAndOutage) {
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  Scenario bad_chain;
  bad_chain.chain_from = 0;  // no scenario 0 yet
  EXPECT_THROW(set.add(bad_chain), GridError);
  Scenario bad_outage;
  bad_outage.outage_branch = net.num_branches();
  EXPECT_THROW(set.add(bad_outage), GridError);
  Scenario ok;
  EXPECT_EQ(set.add(ok), 0);
  EXPECT_EQ(set[0].pd.size(), static_cast<std::size_t>(net.num_buses()));
}

TEST(Scenario, AddRejectsChainedContingencies) {
  // Chains run on the full topology: the batch engine (branch mask) and the
  // sequential reference (reduced network) would otherwise diverge.
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);
  Scenario outage;
  outage.outage_branch = 1;
  ASSERT_EQ(set.add(outage), 0);

  Scenario chained_with_outage;
  chained_with_outage.chain_from = 0;
  chained_with_outage.outage_branch = 2;
  EXPECT_THROW(set.add(chained_with_outage), GridError);

  Scenario chained_from_outage;
  chained_from_outage.chain_from = 0;  // scenario 0 is a contingency
  EXPECT_THROW(set.add(chained_from_outage), GridError);
}

TEST(Scenario, MalformedInputsRaiseValidationError) {
  // Malformed caller input surfaces as ValidationError at add time instead
  // of NaN-poisoned iterates or out-of-bounds masks downstream.
  const auto net = grid::load_embedded_case("case9");
  ScenarioSet set(net);

  // Negative / non-finite load scale ranges.
  EXPECT_THROW(set.add_load_scale(3, -0.5, 1.0), ValidationError);
  EXPECT_THROW(set.add_load_scale(3, 0.0, 1.0), ValidationError);
  EXPECT_THROW(set.add_load_scale(3, 1.0, 0.5), ValidationError);
  EXPECT_THROW(set.add_load_scale(0, 0.9, 1.1), ValidationError);
  EXPECT_THROW(set.add_load_scale(3, std::nan(""), 1.0), ValidationError);

  // Out-of-range branch index.
  Scenario bad_outage;
  bad_outage.outage_branch = net.num_branches();
  EXPECT_THROW(set.add(bad_outage), ValidationError);
  bad_outage.outage_branch = -7;
  EXPECT_THROW(set.add(bad_outage), ValidationError);

  // Non-finite loads and annotations.
  Scenario nan_load;
  nan_load.pd.assign(static_cast<std::size_t>(net.num_buses()), 0.1);
  nan_load.qd.assign(static_cast<std::size_t>(net.num_buses()), 0.1);
  nan_load.pd[3] = std::nan("");
  EXPECT_THROW(set.add(nan_load), ValidationError);
  Scenario bad_scale;
  bad_scale.load_scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(set.add(bad_scale), ValidationError);
  Scenario bad_ramp;
  bad_ramp.ramp_fraction = -0.5;
  EXPECT_THROW(set.add(bad_ramp), ValidationError);
  Scenario bad_control;
  bad_control.controls.primal_tolerance = std::numeric_limits<double>::infinity();
  EXPECT_THROW(set.add(bad_control), ValidationError);
  Scenario zero_inner;
  zero_inner.controls.max_inner_iterations = 0;
  EXPECT_THROW(set.add(zero_inner), ValidationError);
  Scenario zero_outer;
  zero_outer.controls.max_outer_iterations = 0;
  EXPECT_THROW(set.add(zero_outer), ValidationError);

  // Wrong-size load vectors.
  Scenario short_loads;
  short_loads.pd = {1.0};
  short_loads.qd = {1.0};
  EXPECT_THROW(set.add(short_loads), ValidationError);

  // Other generator arguments.
  EXPECT_THROW(set.add_stochastic_load(2, -0.1, 1), ValidationError);
  grid::LoadProfileSpec spec;
  spec.periods = 3;
  EXPECT_THROW(set.add_tracking_sequence(spec, -1.0), ValidationError);

  // Nothing half-appended by any rejected call.
  EXPECT_TRUE(set.empty());

  // Bounds-checked indexing.
  set.add_base();
  EXPECT_EQ(set[0].kind, ScenarioKind::kBase);
  EXPECT_THROW(static_cast<void>(set[1]), ValidationError);
  EXPECT_THROW(static_cast<void>(set[-1]), ValidationError);
}

TEST(Scenario, StressCorpusStructure) {
  ScenarioSet set(grid::load_embedded_case("case30"));
  StressCorpusOptions options;
  const int appended = set.add_stress_corpus(options);
  ASSERT_EQ(appended, 1 + options.max_outages);
  ASSERT_EQ(set.size(), appended);

  // Scenario 0: the stressed base case — scaled loads, tight budgets.
  const Scenario& base = set[0];
  EXPECT_EQ(base.kind, ScenarioKind::kLoadScale);
  EXPECT_EQ(base.name, "case30/stress-base");
  EXPECT_DOUBLE_EQ(base.load_scale, options.load_scale);
  EXPECT_EQ(base.controls.max_inner_iterations, options.base_inner_budget);
  EXPECT_EQ(base.controls.max_outer_iterations, options.outer_budget);
  EXPECT_EQ(base.outage_branch, -1);

  // Remaining scenarios: stressed N-1 outages over non-bridge branches.
  const auto& net = set.network();
  for (int s = 1; s < set.size(); ++s) {
    const Scenario& sc = set[s];
    EXPECT_EQ(sc.kind, ScenarioKind::kContingency);
    ASSERT_GE(sc.outage_branch, 0);
    ASSERT_LT(sc.outage_branch, net.num_branches());
    EXPECT_TRUE(net.branches[static_cast<std::size_t>(sc.outage_branch)].on);
    EXPECT_FALSE(grid::is_bridge(net, sc.outage_branch));
    EXPECT_DOUBLE_EQ(sc.load_scale, options.load_scale);
    EXPECT_EQ(sc.controls.max_inner_iterations, options.outage_inner_budget);
    EXPECT_EQ(sc.controls.max_outer_iterations, options.outer_budget);
    // Loads carry the stress scale, not the base case's values.
    for (std::size_t b = 0; b < net.buses.size(); ++b) {
      EXPECT_DOUBLE_EQ(sc.pd[b], net.buses[b].pd * options.load_scale);
    }
  }

  // max_outages = 0 appends only the stressed base.
  ScenarioSet base_only(grid::load_embedded_case("case30"));
  StressCorpusOptions no_outages;
  no_outages.max_outages = 0;
  EXPECT_EQ(base_only.add_stress_corpus(no_outages), 1);

  StressCorpusOptions bad;
  bad.load_scale = -1.0;
  EXPECT_THROW(set.add_stress_corpus(bad), ValidationError);
}

TEST(Scenario, IpmEngineSolvesStressScenarioFromTrackingPath) {
  // The tracking path can hand a period that defeats ADMM to the IPM engine
  // directly: solve the stressed base scenario cold.
  ScenarioSet set(grid::load_embedded_case("case30"));
  StressCorpusOptions corpus;
  corpus.max_outages = 0;
  set.add_stress_corpus(corpus);
  const Scenario& sc = set[0];

  const IpmEngineResult cold = solve_scenario_ipm(set.network(), sc);
  EXPECT_EQ(cold.ipm.status, ipm::IpmStatus::kOptimal);
  EXPECT_LT(cold.quality.max_violation, 1e-5);
  EXPECT_GT(cold.quality.objective, 0.0);
}

TEST(Scenario, IpmEngineThrowsTypedErrorOnInfeasibleScenario) {
  ScenarioSet set(grid::load_embedded_case("case9"));
  Scenario sc;
  sc.name = "case9/hopeless";
  sc.kind = ScenarioKind::kLoadScale;
  sc.load_scale = 10.0;
  set.add(sc);
  // Populate scaled loads the way add_load_scale would.
  Scenario stressed = set[0];
  const auto& net = set.network();
  stressed.pd.resize(net.buses.size());
  stressed.qd.resize(net.buses.size());
  for (std::size_t b = 0; b < net.buses.size(); ++b) {
    stressed.pd[b] = net.buses[b].pd * 10.0;
    stressed.qd[b] = net.buses[b].qd * 10.0;
  }
  try {
    solve_scenario_ipm(net, stressed);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("line-search-failure"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, IpmEngineHonorsWallBudget) {
  ScenarioSet set(grid::load_embedded_case("case30"));
  set.add_base();
  IpmEngineOptions options;
  options.ipm.max_wall_seconds = 1e-9;
  try {
    solve_scenario_ipm(set.network(), set[0], options);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("time-budget"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace gridadmm::scenario
