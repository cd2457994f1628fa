// Batched multi-scenario solve versus independent sequential solves: the
// fused engine must reproduce the sequential results while issuing fewer
// kernel launches (the subsystem's reason to exist).
#include <gtest/gtest.h>

#include <cmath>

#include "admm/step_kernels.hpp"
#include "common/error.hpp"
#include "device/buffer.hpp"
#include "device/device.hpp"
#include "device/pool.hpp"
#include "grid/cases.hpp"
#include "opf/tracking.hpp"
#include "scenario/batch_plan.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::scenario {
namespace {

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::abs(b));
}

/// Branch-phase blocks of one single-wave fused loop over `members`: a
/// scenario that ran k inner iterations is active in the first k fused
/// steps, and a step with `active` scenarios launches num_branches *
/// ceil(active / kBranchLanes) branch blocks (one per lockstep group).
std::uint64_t branch_blocks(const ScenarioReport& report, const std::vector<int>& members,
                            int num_branches) {
  constexpr int W = admm::kBranchLanes;
  std::uint64_t blocks = 0;
  for (int step = 0;; ++step) {
    int active = 0;
    for (const int s : members) active += report.records[s].inner_iterations > step ? 1 : 0;
    if (active == 0) return blocks;
    blocks += static_cast<std::uint64_t>(num_branches) * static_cast<std::uint64_t>((active + W - 1) / W);
  }
}

TEST(BatchAdmm, SixteenLoadScenariosMatchSequentialWithFewerLaunches) {
  // The acceptance bar: S=16 case9 load scenarios, per-scenario objectives
  // within 1e-6 relative of sequential AdmmSolver runs, strictly fewer
  // total kernel launches (device::LaunchStats attribution).
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(16, 0.92, 1.08);

  const auto sequential = solve_sequential(set, params);
  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();

  ASSERT_EQ(batched.records.size(), 16u);
  ASSERT_EQ(sequential.records.size(), 16u);
  for (int s = 0; s < 16; ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_TRUE(batched.records[s].converged);
    EXPECT_EQ(batched.records[s].converged, sequential.records[s].converged);
    EXPECT_LT(rel_diff(batched.records[s].objective, sequential.records[s].objective), 1e-6);
    EXPECT_LT(rel_diff(batched.records[s].max_violation, sequential.records[s].max_violation),
              1e-6);
  }
  EXPECT_GT(batched.launch_stats.launches, 0u);
  EXPECT_LT(batched.launch_stats.launches, sequential.launch_stats.launches);
}

TEST(BatchAdmm, OneScenarioBatchIssuesTheSolversLaunchesAndBlocks) {
  // At S = 1 the fused engine and AdmmSolver drive the same launchers over
  // one view, so their launch and block counts are identical.
  const auto net = grid::load_embedded_case("case14");
  const auto params = admm::params_for_case("case14", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(1, 1.03, 1.03);
  device::Device dev(2);
  const auto sequential = solve_sequential(set, params, &dev);
  BatchAdmmSolver solver(set, params, &dev);
  const auto batched = solver.solve();
  EXPECT_EQ(batched.records[0].inner_iterations, sequential.records[0].inner_iterations);
  EXPECT_EQ(batched.launch_stats.launches, sequential.launch_stats.launches);
  EXPECT_EQ(batched.launch_stats.blocks, sequential.launch_stats.blocks);
  EXPECT_EQ(batched.launch_stats.launches,
            2 * static_cast<std::uint64_t>(batched.records[0].inner_iterations) +
                static_cast<std::uint64_t>(batched.records[0].outer_iterations));
}

TEST(BatchAdmm, ControlFlowReplicaMatchesIterationCounts) {
  // Stronger than the objective bar: the per-scenario control-flow replica
  // must walk the exact same iteration sequence as the sequential solver.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(6, 0.95, 1.05);

  const auto sequential = solve_sequential(set, params);
  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_EQ(batched.records[s].inner_iterations, sequential.records[s].inner_iterations);
    EXPECT_EQ(batched.records[s].outer_iterations, sequential.records[s].outer_iterations);
    EXPECT_DOUBLE_EQ(batched.records[s].primal_residual, sequential.records[s].primal_residual);
    EXPECT_DOUBLE_EQ(batched.records[s].dual_residual, sequential.records[s].dual_residual);
  }
}

TEST(BatchAdmm, ContingencyMaskMatchesReducedNetworkSolve) {
  // A masked-out branch in the batch must behave exactly like solving the
  // network with that branch removed (what the sequential reference does).
  const auto net = grid::load_embedded_case("case30");
  const auto params = admm::params_for_case("case30", net.num_buses());
  ScenarioSet set(net);
  ASSERT_GE(set.add_n1_contingencies(4), 2);

  const auto sequential = solve_sequential(set, params);
  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE(set[s].name);
    EXPECT_EQ(batched.records[s].inner_iterations, sequential.records[s].inner_iterations);
    EXPECT_LT(rel_diff(batched.records[s].objective, sequential.records[s].objective), 1e-6);
    EXPECT_LT(rel_diff(batched.records[s].max_violation, sequential.records[s].max_violation),
              1e-6);
  }
}

TEST(BatchAdmm, TrackingChainMatchesSequentialWarmStarts) {
  // Time-coupled sequence: period-to-period warm starts with ramp limits,
  // chained on device, must match the sequential warm-start chain.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  grid::LoadProfileSpec spec;
  spec.periods = 4;
  spec.seed = 11;
  set.add_tracking_sequence(spec, 0.02);

  const auto sequential = solve_sequential(set, params);
  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();
  for (int t = 0; t < 4; ++t) {
    SCOPED_TRACE("period " + std::to_string(t));
    EXPECT_EQ(batched.records[t].inner_iterations, sequential.records[t].inner_iterations);
    EXPECT_LT(rel_diff(batched.records[t].objective, sequential.records[t].objective), 1e-6);
  }
  // Warm-started periods must be cheaper than the cold first period.
  for (int t = 1; t < 4; ++t) {
    EXPECT_LT(batched.records[t].inner_iterations, batched.records[0].inner_iterations);
  }
}

TEST(BatchAdmm, NonConvergedChainParentStillMatchesSequential) {
  // The sequential solver escalates beta even on its final outer iteration;
  // a chained child inherits that beta, so a parent that exhausts its outer
  // budget must still hand the child the identical warm start.
  const auto net = grid::load_embedded_case("case9");
  auto params = admm::params_for_case("case9", net.num_buses());
  params.max_outer_iterations = 2;
  params.max_inner_iterations = 20;  // parent cannot converge in this budget
  ScenarioSet set(net);
  grid::LoadProfileSpec spec;
  spec.periods = 3;
  set.add_tracking_sequence(spec, 0.02);

  const auto sequential = solve_sequential(set, params);
  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();
  ASSERT_FALSE(sequential.records[0].converged);  // the premise of the test
  for (int t = 0; t < 3; ++t) {
    SCOPED_TRACE("period " + std::to_string(t));
    EXPECT_EQ(batched.records[t].inner_iterations, sequential.records[t].inner_iterations);
    EXPECT_DOUBLE_EQ(batched.records[t].primal_residual, sequential.records[t].primal_residual);
    EXPECT_LT(rel_diff(batched.records[t].objective, sequential.records[t].objective), 1e-6);
  }
}

TEST(BatchAdmm, NoTransfersDuringFusedIterations) {
  // The paper's device-residency claim, extended to the batch: staging and
  // evaluation move data, the fused iteration loop does not.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(4, 0.95, 1.05);
  BatchAdmmSolver solver(set, params);
  const auto report = solver.solve();
  EXPECT_EQ(report.transfers_during_iterations, 0u);
}

TEST(BatchAdmm, BaseFanOutWarmStartReducesIterations) {
  // Base-case solution fanned out to all scenarios: every scenario close to
  // the base point should converge in fewer inner iterations than cold.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(6, 0.98, 1.02);

  BatchAdmmSolver cold(set, params);
  const auto cold_report = cold.solve();
  BatchAdmmSolver warm(set, params);
  BatchSolveOptions options;
  options.warm_start_from_base = true;
  const auto warm_report = warm.solve(options);

  ASSERT_EQ(warm_report.records.size(), cold_report.records.size());
  int cold_total = 0, warm_total = 0;
  for (std::size_t s = 0; s < cold_report.records.size(); ++s) {
    EXPECT_TRUE(warm_report.records[s].converged);
    cold_total += cold_report.records[s].inner_iterations;
    warm_total += warm_report.records[s].inner_iterations;
  }
  EXPECT_LT(warm_total, cold_total);
  EXPECT_GT(warm_report.base_solve_seconds, 0.0);
}

TEST(BatchAdmm, MixedFamilyBatchSolvesEveryScenario) {
  // One batch mixing all four scenario families.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_base();
  set.add_load_scale(2, 0.97, 1.03);
  set.add_stochastic_load(2, 0.03, 5);
  set.add_n1_contingencies(2);
  grid::LoadProfileSpec spec;
  spec.periods = 2;
  set.add_tracking_sequence(spec, 0.02);

  BatchAdmmSolver solver(set, params);
  const auto report = solver.solve();
  ASSERT_EQ(report.records.size(), static_cast<std::size_t>(set.size()));
  for (const auto& rec : report.records) {
    SCOPED_TRACE(rec.name);
    EXPECT_TRUE(rec.converged);
    EXPECT_LT(rec.max_violation, 5e-3);
    EXPECT_GT(rec.objective, 0.0);
  }
  EXPECT_EQ(report.num_converged(), set.size());
  EXPECT_GT(report.scenarios_per_second(), 0.0);
}

TEST(BatchAdmm, SolutionSliceDownloadsOnlyOneScenario) {
  // solution(s) must move exactly scenario s's strided slices — four
  // transfers of one scenario's data — not the whole batch state.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(4, 0.95, 1.05);
  BatchAdmmSolver solver(set, params);
  solver.solve();

  device::TransferStatsScope scope;
  const auto sliced = solver.solution(2);
  const auto delta = scope.delta();
  EXPECT_EQ(delta.device_to_host, 4u);  // bus_w, bus_theta, gen_pg, gen_qg
  EXPECT_EQ(delta.host_to_device, 0u);
  const auto expected_bytes =
      sizeof(double) * (2u * static_cast<std::size_t>(net.num_buses()) +
                        2u * static_cast<std::size_t>(net.num_generators()));
  EXPECT_EQ(delta.bytes, expected_bytes);  // one scenario, not S of them

  // And the slice matches the bulk extraction bit for bit.
  const auto all = solver.solutions();
  for (int b = 0; b < net.num_buses(); ++b) {
    EXPECT_DOUBLE_EQ(sliced.vm[static_cast<std::size_t>(b)], all[2].vm[static_cast<std::size_t>(b)]);
    EXPECT_DOUBLE_EQ(sliced.va[static_cast<std::size_t>(b)], all[2].va[static_cast<std::size_t>(b)]);
  }
  for (int g = 0; g < net.num_generators(); ++g) {
    EXPECT_DOUBLE_EQ(sliced.pg[static_cast<std::size_t>(g)], all[2].pg[static_cast<std::size_t>(g)]);
    EXPECT_DOUBLE_EQ(sliced.qg[static_cast<std::size_t>(g)], all[2].qg[static_cast<std::size_t>(g)]);
  }
}

TEST(BatchAdmm, InitialIterateMatchesSingleSolverImportExactly) {
  // A batch slot seeded through BatchSolveOptions::initial_iterates must
  // walk the identical iteration sequence as an AdmmSolver that imports the
  // same WarmStartIterate — the serve layer's cache-hit path equals the
  // paper's single-solver warm start.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  admm::AdmmSolver base(net, params);
  base.solve();
  const auto iterate = base.export_iterate();

  std::vector<double> pd, qd;
  for (const auto& bus : net.buses) {
    pd.push_back(bus.pd * 1.03);
    qd.push_back(bus.qd * 1.03);
  }

  // Reference: single solver, imported iterate, perturbed loads.
  admm::AdmmSolver reference(net, params);
  reference.import_iterate(iterate);
  reference.set_loads(pd, qd);
  const auto reference_stats = reference.solve();

  // Batch: one scenario with the same loads, seeded with the same iterate.
  ScenarioSet set(net);
  Scenario sc;
  sc.name = "perturbed";
  sc.pd = pd;
  sc.qd = qd;
  set.add(std::move(sc));
  BatchAdmmSolver solver(set, params);
  BatchSolveOptions options;
  options.initial_iterates = {&iterate};
  const auto report = solver.solve(options);

  EXPECT_EQ(report.records[0].inner_iterations, reference_stats.inner_iterations);
  EXPECT_EQ(report.records[0].outer_iterations, reference_stats.outer_iterations);
  EXPECT_DOUBLE_EQ(report.records[0].primal_residual, reference_stats.primal_residual);
  EXPECT_DOUBLE_EQ(report.records[0].dual_residual, reference_stats.dual_residual);
  EXPECT_EQ(report.records[0].converged, reference_stats.converged);

  // And the warm start beats a cold start on the same instance.
  BatchAdmmSolver cold(set, params);
  const auto cold_report = cold.solve();
  EXPECT_LT(report.records[0].inner_iterations, cold_report.records[0].inner_iterations);
}

TEST(BatchAdmm, NonFiniteSeededSlotThrowsNumericalError) {
  // Serve's cache-hit entry with one NaN multiplier in a seed: the
  // NaN-sticky residual slots must carry it to the loop controller's trap,
  // or the slot "converges" on a non-finite iterate that serve would cache.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  admm::AdmmSolver base(net, params);
  base.solve();
  const auto healthy = base.export_iterate();
  auto poisoned = healthy;
  poisoned.y[5] = std::nan("");
  ScenarioSet set(net);
  set.add_load_scale(3, 0.98, 1.02);
  BatchAdmmSolver solver(set, params);
  BatchSolveOptions options;
  options.initial_iterates = {&healthy, &poisoned, nullptr};
  EXPECT_THROW(solver.solve(options), NumericalError);
}

TEST(BatchAdmm, ExportedBatchIterateRoundTripsIntoSingleSolver) {
  // export_iterate(s) from a solved batch must seed an AdmmSolver exactly
  // like that scenario's own continuation (the cache-insertion path).
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(3, 0.97, 1.03);
  BatchAdmmSolver solver(set, params);
  solver.solve();

  const auto iterate = solver.export_iterate(1);
  EXPECT_TRUE(iterate.matches(solver.model()));
  admm::AdmmSolver continuation(net, params);
  continuation.import_iterate(iterate);
  continuation.set_loads(set[1].pd, set[1].qd);
  const auto stats = continuation.solve();
  EXPECT_TRUE(stats.converged);
  // Re-solving from the converged iterate beats a cold start on the same
  // instance by a wide margin.
  admm::AdmmSolver cold(net, params);
  cold.set_loads(set[1].pd, set[1].qd);
  const auto cold_stats = cold.solve();
  EXPECT_LT(stats.inner_iterations, cold_stats.inner_iterations / 2);
}

TEST(BatchAdmm, HeterogeneousControlsMatchSequential) {
  // A batch mixing per-scenario termination overrides must replicate the
  // sequential reference with the same overrides, scenario for scenario.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(3, 0.95, 1.05);
  Scenario loose;
  loose.name = "loose";
  loose.load_scale = 1.01;
  // Looser than inner_tolerance_initial (1e-2): exercises the clamp-bound
  // guard in the inexact inner schedule as well as the override plumbing.
  loose.controls.primal_tolerance = 2e-2;
  loose.controls.dual_tolerance = 2e-2;
  loose.controls.outer_tolerance = 2e-2;
  for (const auto& bus : net.buses) {
    loose.pd.push_back(bus.pd * 1.01);
    loose.qd.push_back(bus.qd * 1.01);
  }
  set.add(std::move(loose));
  Scenario capped;
  capped.name = "capped";
  capped.controls.max_inner_iterations = 15;
  capped.controls.max_outer_iterations = 2;
  set.add(std::move(capped));

  const auto sequential = solve_sequential(set, params);
  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE(set[s].name);
    EXPECT_EQ(batched.records[s].inner_iterations, sequential.records[s].inner_iterations);
    EXPECT_EQ(batched.records[s].outer_iterations, sequential.records[s].outer_iterations);
    EXPECT_EQ(batched.records[s].converged, sequential.records[s].converged);
    EXPECT_DOUBLE_EQ(batched.records[s].primal_residual, sequential.records[s].primal_residual);
  }
  // The loose-tolerance scenario really did stop earlier than its twin
  // solved to full accuracy (scenario 1 has a nearby load scale).
  EXPECT_LT(batched.records[3].inner_iterations, batched.records[1].inner_iterations);
  // The capped scenario exhausted its tiny budget without converging.
  EXPECT_FALSE(batched.records[4].converged);
  EXPECT_LE(batched.records[4].inner_iterations, 30);
}

TEST(BatchAdmm, ShardedSolveMatchesSingleDeviceAcrossShardCounts) {
  // The sharded acceptance bar: for 1, 2, and 4 shards the plan/execute
  // pipeline must reproduce the single-device fused solve with identical
  // per-scenario iteration counts and residuals, objectives within 1e-6
  // relative, and per-shard block counts scaling as ~S/D.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(12, 0.92, 1.08);

  BatchAdmmSolver reference(set, params);
  const auto single = reference.solve();
  ASSERT_EQ(single.num_shards, 1);
  ASSERT_EQ(single.shard_launches.size(), 1u);

  for (const int D : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(D) + " shards");
    device::DevicePool pool(D, 2);
    BatchAdmmSolver solver(set, params, pool);
    const auto sharded = solver.solve();

    EXPECT_EQ(sharded.num_shards, D);
    ASSERT_EQ(sharded.records.size(), single.records.size());
    for (int s = 0; s < set.size(); ++s) {
      SCOPED_TRACE("scenario " + std::to_string(s));
      EXPECT_EQ(sharded.records[s].inner_iterations, single.records[s].inner_iterations);
      EXPECT_EQ(sharded.records[s].outer_iterations, single.records[s].outer_iterations);
      EXPECT_EQ(sharded.records[s].converged, single.records[s].converged);
      EXPECT_DOUBLE_EQ(sharded.records[s].primal_residual, single.records[s].primal_residual);
      EXPECT_DOUBLE_EQ(sharded.records[s].dual_residual, single.records[s].dual_residual);
      EXPECT_LT(rel_diff(sharded.records[s].objective, single.records[s].objective), 1e-6);
    }

    // Per-shard launch attribution: one entry per device, summing to the
    // aggregate; block counts partition the single-device work exactly
    // (identical iterate sequences => identical per-scenario work), with
    // each shard carrying ~S/D of it. The branch phase is the exception by
    // construction: its blocks are lockstep groups of each shard's own
    // active scenarios, so they are counted per shard.
    ASSERT_EQ(sharded.shard_launches.size(), static_cast<std::size_t>(D));
    device::LaunchStats sum;
    for (const auto& shard : sharded.shard_launches) sum += shard;
    EXPECT_EQ(sum.launches, sharded.launch_stats.launches);
    EXPECT_EQ(sum.blocks, sharded.launch_stats.blocks);
    std::vector<int> everyone;
    std::vector<std::vector<int>> members(static_cast<std::size_t>(D));
    for (int s = 0; s < set.size(); ++s) {
      everyone.push_back(s);
      members[static_cast<std::size_t>(solver.plan().shard_of[static_cast<std::size_t>(s)])]
          .push_back(s);
    }
    std::uint64_t shard_branch_blocks = 0;
    for (const auto& shard : members) {
      shard_branch_blocks += branch_blocks(sharded, shard, net.num_branches());
    }
    EXPECT_EQ(sum.blocks, single.launch_stats.blocks -
                              branch_blocks(single, everyone, net.num_branches()) +
                              shard_branch_blocks);
    if (D > 1) {
      const auto fair_share = single.launch_stats.blocks / static_cast<std::uint64_t>(D);
      for (const auto& shard : sharded.shard_launches) {
        EXPECT_GT(shard.blocks, 0u);
        EXPECT_LT(shard.blocks, 2 * fair_share);  // ~S/D, not a straggler
      }
    }
  }
}

TEST(BatchAdmm, ShardedContingencyAndHeterogeneousBatchMatchesSequential) {
  // A sharded mixed batch (load scales + N-1 masks + per-scenario
  // controls) must still replicate the sequential reference exactly.
  const auto net = grid::load_embedded_case("case30");
  const auto params = admm::params_for_case("case30", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(3, 0.96, 1.04);
  set.add_n1_contingencies(3);
  Scenario capped;
  capped.name = "capped";
  capped.controls.max_inner_iterations = 12;
  capped.controls.max_outer_iterations = 2;
  set.add(std::move(capped));

  const auto sequential = solve_sequential(set, params);
  device::DevicePool pool(2, 2);
  BatchAdmmSolver solver(set, params, pool);
  const auto sharded = solver.solve();
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE(set[s].name);
    EXPECT_EQ(sharded.records[s].inner_iterations, sequential.records[s].inner_iterations);
    EXPECT_EQ(sharded.records[s].converged, sequential.records[s].converged);
    EXPECT_LT(rel_diff(sharded.records[s].objective, sequential.records[s].objective), 1e-6);
  }
}

TEST(BatchAdmm, ShardedTrackingChainsStayOnTheParentShard) {
  // Chained scenarios must follow their root's shard (chaining is an
  // on-device copy), and the sharded chain must match the single-device
  // solve iterate for iterate.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  for (int p = 0; p < 3; ++p) {
    grid::LoadProfileSpec spec;
    spec.periods = 3;
    spec.seed = 11 + static_cast<std::uint64_t>(p);
    set.add_tracking_sequence(spec, 0.02);
  }

  BatchAdmmSolver reference(set, params);
  const auto single = reference.solve();
  device::DevicePool pool(2, 2);
  BatchAdmmSolver solver(set, params, pool);
  const auto sharded = solver.solve();

  const auto& plan = solver.plan();
  for (int s = 0; s < set.size(); ++s) {
    if (set[s].chain_from >= 0) {
      EXPECT_EQ(plan.shard_of[s], plan.shard_of[set[s].chain_from]);
    }
    EXPECT_EQ(sharded.records[s].inner_iterations, single.records[s].inner_iterations);
    EXPECT_LT(rel_diff(sharded.records[s].objective, single.records[s].objective), 1e-6);
  }
}

TEST(BatchPlan, RoundRobinRootsAreDeterministicAndChildrenFollowParents) {
  std::vector<Scenario> scenarios(7);
  // Scenarios 0-3 are roots; 4 chains from 1, 5 from 4, 6 from 3.
  scenarios[4].chain_from = 1;
  scenarios[5].chain_from = 4;
  scenarios[6].chain_from = 3;
  const std::vector<std::vector<int>> waves = {{0, 1, 2, 3}, {4, 6}, {5}};

  const auto plan = BatchPlan::create(scenarios, waves, 3, /*ping_pong=*/false);
  // Roots deal round-robin in scenario order: 0->0, 1->1, 2->2, 3->0.
  EXPECT_EQ(plan.shard_of, (std::vector<int>{0, 1, 2, 0, 1, 1, 0}));
  // Slots are contiguous per shard, in scenario order.
  EXPECT_EQ(plan.slot_of[0], 0);
  EXPECT_EQ(plan.slot_of[3], 1);
  EXPECT_EQ(plan.slot_of[6], 2);
  EXPECT_EQ(plan.slot_of[1], 0);
  EXPECT_EQ(plan.slot_of[4], 1);
  EXPECT_EQ(plan.slot_of[5], 2);
  EXPECT_EQ(plan.shard_capacity, (std::vector<int>{3, 3, 1}));
  // Identical inputs give an identical plan (deterministic assignment).
  const auto again = BatchPlan::create(scenarios, waves, 3, /*ping_pong=*/false);
  EXPECT_EQ(again.shard_of, plan.shard_of);
  EXPECT_EQ(again.slot_of, plan.slot_of);

  // Ping-pong slots are per-wave; capacity is the largest wave per shard.
  const auto pp = BatchPlan::create(scenarios, waves, 3, /*ping_pong=*/true);
  EXPECT_EQ(pp.shard_of, plan.shard_of);
  EXPECT_EQ(pp.shard_capacity, (std::vector<int>{2, 1, 1}));
  EXPECT_EQ(pp.slot_of[0], 0);
  EXPECT_EQ(pp.slot_of[3], 1);  // same wave, same shard as 0
  EXPECT_EQ(pp.slot_of[6], 0);  // wave 1 reuses shard 0's slots
}

TEST(BatchAdmm, PingPongChainedSolveMatchesPersistentPath) {
  // Two-buffer wave memory must not change a single iterate: same
  // iteration counts, residuals, and objectives as the persistent layout,
  // for every period of every profile.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  for (int p = 0; p < 2; ++p) {
    grid::LoadProfileSpec spec;
    spec.periods = 5;
    spec.seed = 3 + static_cast<std::uint64_t>(p);
    set.add_tracking_sequence(spec, 0.02);
  }

  BatchAdmmSolver persistent(set, params);
  const auto flat = persistent.solve();
  BatchAdmmSolver solver(set, params);
  BatchSolveOptions options;
  options.ping_pong = true;
  const auto pp = solver.solve(options);

  ASSERT_EQ(pp.records.size(), flat.records.size());
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_EQ(pp.records[s].inner_iterations, flat.records[s].inner_iterations);
    EXPECT_EQ(pp.records[s].outer_iterations, flat.records[s].outer_iterations);
    EXPECT_DOUBLE_EQ(pp.records[s].primal_residual, flat.records[s].primal_residual);
    EXPECT_LT(rel_diff(pp.records[s].objective, flat.records[s].objective), 1e-6);
  }
  // Captured solutions match the persistent extraction bit for bit.
  const auto flat_solutions = persistent.solutions();
  const auto pp_solutions = solver.solutions();
  for (int s = 0; s < set.size(); ++s) {
    for (int b = 0; b < net.num_buses(); ++b) {
      EXPECT_DOUBLE_EQ(pp_solutions[s].vm[static_cast<std::size_t>(b)],
                       flat_solutions[s].vm[static_cast<std::size_t>(b)]);
    }
  }
  // Last-wave iterates are still resident and exportable; earlier waves
  // have been overwritten by design.
  EXPECT_NO_THROW(solver.export_iterate(set.size() - 1));
  EXPECT_THROW(solver.export_iterate(0), GridError);
}

TEST(BatchAdmm, PingPongHoldsBatchMemoryConstantInHorizonLength) {
  // The memory acceptance bar, via DeviceBuffer allocation accounting:
  // doubling the horizon must not grow peak live batch-state memory in
  // ping-pong mode, while the persistent layout grows linearly.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());

  auto peak_for = [&](int periods, bool ping_pong) {
    ScenarioSet set(net);
    grid::LoadProfileSpec spec;
    spec.periods = periods;
    spec.seed = 5;
    set.add_tracking_sequence(spec, 0.02);
    const auto live_before = device::allocation_stats().live_bytes;
    device::reset_allocation_peak();
    BatchAdmmSolver solver(set, params);
    BatchSolveOptions options;
    options.ping_pong = ping_pong;
    solver.solve(options);
    return device::allocation_stats().peak_bytes - live_before;
  };

  const auto pp4 = peak_for(4, true);
  const auto pp8 = peak_for(8, true);
  const auto flat4 = peak_for(4, false);
  const auto flat8 = peak_for(8, false);
  EXPECT_EQ(pp8, pp4);     // constant in the number of periods
  EXPECT_GT(flat8, flat4); // the persistent layout grows with the horizon...
  EXPECT_GT(flat8, pp8);   // ...and exceeds the two-buffer ping-pong pair
}

TEST(BatchAdmm, SteadyStateSolveAllocatesNoDeviceMemory) {
  // The hot path must not allocate: once storage exists (first solve),
  // re-solving — staging, the fused loop, outer-multiplier launches,
  // evaluation — performs zero device allocations (a [=] lambda that
  // captured the ComponentModel by value would copy its DeviceBuffers here
  // and fail the allocation check).
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(10, 0.95, 1.05);
  BatchAdmmSolver solver(set, params);
  solver.solve();  // allocates shard storage + branch lane workspaces
  const auto before = device::allocation_stats();
  const auto workspaces_before = admm::BranchWorkspace::created();
  const auto report = solver.solve();  // steady state: reuse everything
  const auto after = device::allocation_stats();
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  // The branch phase's host side is covered too: the per-lane TRON
  // workspaces persist in the shard, so a steady-state solve constructs
  // zero of them (the pre-fix engine built one per lane per launch).
  EXPECT_EQ(admm::BranchWorkspace::created(), workspaces_before);
  EXPECT_GT(report.stats[0].outer_iterations, 1);  // outer launches ran in the window
}

TEST(BatchAdmm, LockstepBatchMatchesSequentialBitForBitAcrossShards) {
  // The lockstep branch kernel's acceptance bar: with lockstep TRON over
  // scenario lanes the batch engine must reproduce S independent
  // single-scenario solves (one-lane TRON per branch) bit for bit —
  // identical per-scenario iteration counts, residual doubles, and
  // objectives — across 1/2/4 shards. S = 13 leaves partly filled lockstep
  // groups.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  set.add_load_scale(13, 0.92, 1.08);

  const auto sequential = solve_sequential(set, params);

  for (const int D : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(D) + " shards");
    device::DevicePool pool(D, 1);
    BatchAdmmSolver solver(set, params, pool);
    const auto batched = solver.solve();
    for (int s = 0; s < set.size(); ++s) {
      SCOPED_TRACE("scenario " + std::to_string(s));
      EXPECT_EQ(batched.records[s].inner_iterations, sequential.records[s].inner_iterations);
      EXPECT_EQ(batched.records[s].outer_iterations, sequential.records[s].outer_iterations);
      EXPECT_EQ(batched.records[s].converged, sequential.records[s].converged);
      EXPECT_DOUBLE_EQ(batched.records[s].primal_residual, sequential.records[s].primal_residual);
      EXPECT_DOUBLE_EQ(batched.records[s].dual_residual, sequential.records[s].dual_residual);
      EXPECT_DOUBLE_EQ(batched.records[s].objective, sequential.records[s].objective);
    }
    // Same iterates means the same branch-solve work, call for call.
    EXPECT_EQ(batched.branch.tron_iterations, sequential.branch.tron_iterations);
    EXPECT_EQ(batched.branch.cg_iterations, sequential.branch.cg_iterations);
    EXPECT_EQ(batched.branch.function_evals, sequential.branch.function_evals);
  }
}

TEST(BatchAdmm, LockstepBatchMatchesSequentialOnRatedAndOutagedBranches) {
  // case30 carries line ratings, so this exercises the 6-variable
  // augmented-Lagrangian path (LockstepTron<6, W>) plus outage masks
  // against reduced-network sequential solves; budgets are capped to keep
  // the solves fast (capped scenarios exhaust the budget on the identical
  // iterate either way).
  const auto net = grid::load_embedded_case("case30");
  auto params = admm::params_for_case("case30", net.num_buses());
  params.max_inner_iterations = 60;
  params.max_outer_iterations = 2;
  ScenarioSet set(net);
  set.add_load_scale(3, 0.96, 1.04);
  ASSERT_GE(set.add_n1_contingencies(3), 2);

  const auto sequential = solve_sequential(set, params);

  BatchAdmmSolver solver(set, params);
  const auto batched = solver.solve();
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE(set[s].name);
    EXPECT_EQ(batched.records[s].inner_iterations, sequential.records[s].inner_iterations);
    EXPECT_DOUBLE_EQ(batched.records[s].primal_residual, sequential.records[s].primal_residual);
    EXPECT_DOUBLE_EQ(batched.records[s].dual_residual, sequential.records[s].dual_residual);
    EXPECT_DOUBLE_EQ(batched.records[s].objective, sequential.records[s].objective);
  }
  EXPECT_EQ(batched.branch.auglag_iterations, sequential.branch.auglag_iterations);
  EXPECT_GT(batched.branch.auglag_iterations, 0);  // the rated path really ran
}

TEST(BatchAdmm, LockstepBatchMatchesSequentialThroughPingPongChains) {
  // Bit-equality must survive the chained-wave machinery: ping-pong
  // buffers, on-device chain copies, and ramp bounds, against sequential
  // warm-started solves.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  ScenarioSet set(net);
  for (int p = 0; p < 2; ++p) {
    grid::LoadProfileSpec spec;
    spec.periods = 4;
    spec.seed = 17 + static_cast<std::uint64_t>(p);
    set.add_tracking_sequence(spec, 0.02);
  }

  const auto sequential = solve_sequential(set, params);

  BatchAdmmSolver solver(set, params);
  BatchSolveOptions options;
  options.ping_pong = true;
  const auto batched = solver.solve(options);
  for (int s = 0; s < set.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_EQ(batched.records[s].inner_iterations, sequential.records[s].inner_iterations);
    EXPECT_EQ(batched.records[s].outer_iterations, sequential.records[s].outer_iterations);
    EXPECT_DOUBLE_EQ(batched.records[s].primal_residual, sequential.records[s].primal_residual);
    EXPECT_DOUBLE_EQ(batched.records[s].objective, sequential.records[s].objective);
  }
}

TEST(BatchAdmm, BranchLaunchIssuesOneBlockPerBranchAndLaneGroup) {
  // The x-update's launch geometry: one block per (branch, group of up to
  // kBranchLanes consecutive active slots), partial tail groups included
  // and outaged lanes masked inside their group, plus one block per
  // (slot, generator) — |slots| * num_gens + num_branches *
  // ceil(|slots| / kBranchLanes) blocks in one launch.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  const auto model = admm::build_component_model(net, params);
  const admm::ModelView m = admm::make_model_view(model);
  constexpr int S = 10;
  auto state = admm::BatchAdmmState::zeros(model, S);
  std::vector<admm::ScenarioView> views;
  for (int s = 0; s < S; ++s) views.push_back(state.view(model, s));
  state.branch_active.data()[3 * static_cast<std::size_t>(model.num_branches)] = 0;  // outage

  device::Device dev(2);
  std::vector<admm::BranchWorkspace> lanes;
  constexpr int W = admm::kBranchLanes;
  for (const int active : {10, 9, 5, 4, 1}) {
    SCOPED_TRACE("active " + std::to_string(active));
    std::vector<int> slots;
    for (int s = 0; s < active; ++s) slots.push_back(S - 1 - s);  // any slot order
    admm::BranchUpdateStats stats;
    const auto before = dev.stats();
    admm::update_x(dev, m, params, views, slots, lanes, &stats);
    const auto launched = dev.stats() - before;
    EXPECT_EQ(launched.launches, 1u);
    EXPECT_EQ(launched.blocks,
              static_cast<std::uint64_t>(active) * model.num_gens +
                  static_cast<std::uint64_t>(model.num_branches) * ((active + W - 1) / W));
    EXPECT_GT(stats.tron_iterations + stats.function_evals, 0);
  }
}

TEST(BatchAdmm, RunBatchedTrackingProducesPerProfileRecords) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  opf::TrackingOptions options;
  options.periods = 3;
  options.run_ipm = false;
  const auto result = opf::run_batched_tracking(net, params, options, 2);
  ASSERT_EQ(result.profiles.size(), 2u);
  for (const auto& periods : result.profiles) {
    ASSERT_EQ(periods.size(), 3u);
    for (const auto& rec : periods) {
      EXPECT_TRUE(rec.admm_converged);
      EXPECT_GT(rec.admm_objective, 0.0);
    }
    // Warm-started periods are cheaper than the cold first period.
    EXPECT_LT(periods[1].admm_iterations, periods[0].admm_iterations);
  }
}

}  // namespace
}  // namespace gridadmm::scenario
