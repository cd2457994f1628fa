// End-to-end tests of the two-level ADMM solver on canonical cases.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "admm/loop_control.hpp"
#include "admm/one_level.hpp"
#include "admm/solver.hpp"
#include "common/error.hpp"
#include "device/buffer.hpp"
#include "device/device.hpp"
#include "grid/cases.hpp"
#include "grid/solution.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::admm {
namespace {

TEST(Admm, SolvesCase9ToPaperQuality) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto stats = solver.solve();
  EXPECT_TRUE(stats.converged);
  const auto sol = solver.solution();
  const auto quality = grid::evaluate_solution(net, sol);
  // Paper Table II reports violations of order 1e-3/1e-4 and gaps < 0.1%.
  EXPECT_LT(quality.max_violation, 5e-3);
  // MATPOWER's known case9 ACOPF objective.
  EXPECT_NEAR(quality.objective, 5296.69, 0.01 * 5296.69);
}

TEST(Admm, BranchLaneWorkspacesPersistAcrossSolves) {
  // update_branches used to rebuild one BranchWorkspace per worker lane —
  // including every TRON solver's heap state — on every kernel launch.
  // The lanes now live in AdmmState: the first solve constructs exactly
  // one workspace per lane and every later launch reuses them.
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto created_initial = BranchWorkspace::created();
  const auto stats = solver.solve();
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.inner_iterations, 1);  // many branch launches happened...
  const auto created_after_first = BranchWorkspace::created();
  // ...but only the first launch constructed workspaces: one per lane.
  EXPECT_EQ(created_after_first - created_initial,
            static_cast<std::uint64_t>(solver.state().branch_lanes.size()));

  // A warm re-solve constructs none at all.
  solver.prepare_warm_start();
  solver.solve();
  EXPECT_EQ(BranchWorkspace::created(), created_after_first);
}

TEST(Admm, IssuesTwoLaunchesPerInnerIterationPlusOnePerOuter) {
  // Launch geometry of a solve: per inner iteration the x-update (one
  // block per generator and per branch) and the v-update (one block per
  // bus); per ended outer iteration the multiplier update (one block per
  // pair).
  const auto net = grid::load_embedded_case("case9");
  device::Device dev(2);
  AdmmSolver solver(net, params_for_case("case9", 9), &dev);
  device::LaunchStats launched;
  AdmmStats stats;
  {
    const device::LaunchStatsScope scope(dev, launched);
    stats = solver.solve();
  }
  ASSERT_TRUE(stats.converged);
  ASSERT_GT(stats.outer_iterations, 1);
  const auto inner = static_cast<std::uint64_t>(stats.inner_iterations);
  const auto outer = static_cast<std::uint64_t>(stats.outer_iterations);
  const auto& m = solver.model();
  EXPECT_EQ(launched.launches, 2 * inner + outer);
  EXPECT_EQ(launched.blocks,
            static_cast<std::uint64_t>(m.num_gens + m.num_branches + m.num_buses) * inner +
                static_cast<std::uint64_t>(m.num_pairs) * outer);
}

TEST(Admm, SolvesCase14WithUnratedLines) {
  const auto net = grid::load_embedded_case("case14");
  AdmmSolver solver(net, params_for_case("case14", 14));
  const auto stats = solver.solve();
  EXPECT_TRUE(stats.converged);
  const auto quality = grid::evaluate_solution(net, solver.solution());
  EXPECT_LT(quality.max_violation, 5e-3);
  EXPECT_NEAR(quality.objective, 8081.5, 0.01 * 8081.5);
}

TEST(Admm, NoHostDeviceTransfersDuringSolve) {
  // The paper's key implementation claim (Section III): the entire solver
  // loop runs on the device without transfers.
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto before = device::transfer_stats();
  solver.solve();
  const auto after = device::transfer_stats();
  EXPECT_EQ(before.host_to_device, after.host_to_device);
  EXPECT_EQ(before.device_to_host, after.device_to_host);
}

TEST(Admm, WarmStartConvergesFasterAfterLoadChange) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto cold = solver.solve();
  ASSERT_TRUE(cold.converged);

  // Perturb loads by ~2% and re-solve warm.
  std::vector<double> pd, qd;
  for (const auto& bus : solver.network().buses) {
    pd.push_back(bus.pd * 1.02);
    qd.push_back(bus.qd * 1.02);
  }
  solver.set_loads(pd, qd);
  solver.prepare_warm_start();
  const auto warm = solver.solve();
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.inner_iterations, cold.inner_iterations);

  // Compare with a cold restart on the same perturbed loads.
  auto net2 = net;
  for (int i = 0; i < net2.num_buses(); ++i) {
    net2.buses[i].pd = pd[i];
    net2.buses[i].qd = qd[i];
  }
  AdmmSolver cold_solver(net2, params_for_case("case9", 9));
  const auto cold2 = cold_solver.solve();
  ASSERT_TRUE(cold2.converged);
  EXPECT_LT(warm.inner_iterations, cold2.inner_iterations);
}

TEST(Admm, SolutionRespectsGeneratorBounds) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  solver.solve();
  const auto sol = solver.solution();
  for (int g = 0; g < net.num_generators(); ++g) {
    EXPECT_GE(sol.pg[g], net.generators[g].pmin - 1e-9);
    EXPECT_LE(sol.pg[g], net.generators[g].pmax + 1e-9);
    EXPECT_GE(sol.qg[g], net.generators[g].qmin - 1e-9);
    EXPECT_LE(sol.qg[g], net.generators[g].qmax + 1e-9);
  }
}

TEST(Admm, ReferenceAngleIsZeroInSolution) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  solver.solve();
  const auto sol = solver.solution();
  EXPECT_DOUBLE_EQ(sol.va[net.ref_bus], 0.0);
}

TEST(Admm, RecordsHistoriesWhenRequested) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  solver.set_record_history(true);
  const auto stats = solver.solve();
  EXPECT_EQ(static_cast<int>(stats.primal_history.size()), stats.inner_iterations);
  EXPECT_EQ(static_cast<int>(stats.z_history.size()), stats.outer_iterations);
  // z must shrink substantially over the outer loop.
  EXPECT_LT(stats.z_history.back(), stats.z_history.front());
}

TEST(Admm, OneLevelVariantRunsWithoutZ) {
  const auto net = grid::load_embedded_case("case9");
  auto params = make_one_level(params_for_case("case9", 9));
  params.max_inner_iterations = 2000;
  AdmmSolver solver(net, params);
  const auto stats = solver.solve();
  EXPECT_EQ(stats.outer_iterations, 1);
  // z is never touched in the one-level variant.
  for (const double z : solver.state().z.to_host()) EXPECT_DOUBLE_EQ(z, 0.0);
  const auto quality = grid::evaluate_solution(net, solver.solution());
  EXPECT_LT(quality.max_violation, 0.1);  // looser: no convergence guarantee
  (void)stats;
}

TEST(Admm, StopsAtIterationBudget) {
  const auto net = grid::load_embedded_case("case9");
  auto params = params_for_case("case9", 9);
  params.max_outer_iterations = 2;
  params.max_inner_iterations = 5;
  AdmmSolver solver(net, params);
  const auto stats = solver.solve();
  EXPECT_FALSE(stats.converged);
  EXPECT_LE(stats.inner_iterations, 10);
}

TEST(Admm, MalformedInputsRaiseValidationError) {
  const auto net = grid::load_embedded_case("case9");
  // A zero budget would report the untouched cold start as a solve.
  scenario::ScenarioSet set(net);
  set.add_base();
  for (const auto budget : {&AdmmParams::max_inner_iterations, &AdmmParams::max_outer_iterations}) {
    auto params = params_for_case("case9", 9);
    params.*budget = 0;
    EXPECT_THROW(AdmmSolver(net, params), ValidationError);
    EXPECT_THROW(scenario::BatchAdmmSolver(set, params), ValidationError);
  }
  // Non-finite loads and dispatch bounds.
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto nb = static_cast<std::size_t>(net.num_buses());
  const auto ng = static_cast<std::size_t>(net.num_generators());
  std::vector<double> pd(nb, 0.1), qd(nb, 0.1);
  pd[4] = std::nan("");
  EXPECT_THROW(solver.set_loads(pd, qd), ValidationError);
  std::vector<double> pmin(ng, 0.0), pmax(ng, std::numeric_limits<double>::infinity());
  EXPECT_THROW(solver.set_generator_pg_bounds(pmin, pmax), ValidationError);
}

TEST(Admm, NonFiniteImportedIterateThrowsNumericalError) {
  // One NaN multiplier must reach the residual reductions and stop the
  // solve, not let it "converge" on a non-finite iterate.
  const auto net = grid::load_embedded_case("case9");
  const auto params = params_for_case("case9", 9);
  AdmmSolver base(net, params);
  base.solve();
  auto iterate = base.export_iterate();
  iterate.lz[5] = std::nan("");
  AdmmSolver solver(net, params);
  solver.import_iterate(iterate);
  EXPECT_THROW(solver.solve(), NumericalError);
}

TEST(Admm, ExtremePenaltiesDegradeQuality) {
  // The paper notes large penalties put less weight on the objective; an
  // absurd penalty must show up as a worse gap, not a crash.
  const auto net = grid::load_embedded_case("case9");
  auto params = params_for_case("case9", 9);
  params.rho_pq *= 1e4;
  params.rho_va *= 1e4;
  params.max_outer_iterations = 6;
  AdmmSolver solver(net, params);
  EXPECT_NO_THROW(solver.solve());
}

// ---- admm::LoopControl with scripted residuals ----
// Both engines drive the controller, so batch == sequential cannot catch a
// bug in it; these tests pin its decisions directly.

using Next = LoopControl::Next;

/// One outer iteration whose first inner iteration meets the scheduled
/// tolerance, ending at ||z||_inf = z_norm; returns end_outer's verdict.
bool quick_outer(LoopControl& control, double residual, double z_norm) {
  EXPECT_EQ(control.end_inner(residual, residual), Next::kOuter);
  return control.end_outer(z_norm);
}

TEST(LoopControl, InnerToleranceFollowsTheClampedSchedule) {
  AdmmParams p;  // final 1e-4 (dual 2e-4 below), initial 1e-2, factor 0.05
  p.dual_tolerance = 2e-4;
  LoopControl control(p, p.beta0, false, "scripted");
  EXPECT_DOUBLE_EQ(control.eps_primal(), p.inner_tolerance_initial);
  EXPECT_DOUBLE_EQ(control.eps_dual(), p.inner_tolerance_initial);
  ASSERT_TRUE(quick_outer(control, 1e-3, 0.1));  // 0.05 x 0.1 lies inside the bounds
  EXPECT_DOUBLE_EQ(control.eps_primal(), p.inner_tolerance_factor * 0.1);
  EXPECT_DOUBLE_EQ(control.eps_dual(), p.inner_tolerance_factor * 0.1);
  ASSERT_TRUE(quick_outer(control, 1e-3, 1.0));  // clamped down to the initial tolerance
  EXPECT_DOUBLE_EQ(control.eps_primal(), p.inner_tolerance_initial);
  ASSERT_TRUE(quick_outer(control, 1e-3, 1e-5));  // clamped up to each final tolerance
  EXPECT_DOUBLE_EQ(control.eps_primal(), p.primal_tolerance);
  EXPECT_DOUBLE_EQ(control.eps_dual(), p.dual_tolerance);

  // A final tolerance above the initial one must not invert the clamp: the
  // scheduled 0.05 x 10 would then come back as the initial tolerance.
  p.primal_tolerance = 5e-2;
  LoopControl loose(p, p.beta0, false, "scripted");
  EXPECT_DOUBLE_EQ(loose.eps_primal(), p.primal_tolerance);
  ASSERT_TRUE(quick_outer(loose, 1e-3, 10.0));
  EXPECT_DOUBLE_EQ(loose.eps_primal(), p.primal_tolerance);
  EXPECT_DOUBLE_EQ(loose.eps_dual(), p.inner_tolerance_initial);
}

TEST(LoopControl, InnerBudgetAndConvergenceOnFinalTolerancesOnly) {
  AdmmParams p;
  p.max_inner_iterations = 4;
  LoopControl control(p, p.beta0, true, "scripted");
  for (int i = 1; i < 4; ++i) EXPECT_EQ(control.end_inner(1.0, 1.0), Next::kInner);
  EXPECT_EQ(control.end_inner(1.0, 1.0), Next::kOuter);
  EXPECT_EQ(control.stats().primal_history.size(), 4u);
  ASSERT_TRUE(control.end_outer(1.0));
  // Meets the scheduled 1e-2 and ||z||, not the final 1e-4: keep going.
  EXPECT_TRUE(quick_outer(control, 5e-3, 1e-6));
  EXPECT_FALSE(control.stats().converged);
  EXPECT_FALSE(quick_outer(control, 5e-5, 1e-6));
  EXPECT_TRUE(control.stats().converged);
  EXPECT_EQ(control.stats().outer_iterations, 3);
  EXPECT_EQ(control.stats().inner_iterations, 6);
}

TEST(LoopControl, BetaEscalatesOnlyWhenZFailsToShrinkAndIsCapped) {
  AdmmParams p;
  p.max_outer_iterations = 4;
  LoopControl control(p, 1e11, true, "scripted");
  EXPECT_TRUE(quick_outer(control, 1e-3, 1.0));  // first outer: nothing to compare
  EXPECT_DOUBLE_EQ(control.beta(), 1e11);
  EXPECT_TRUE(quick_outer(control, 1e-3, 0.5));  // 0.5 > 0.25 x 1.0: escalate
  EXPECT_DOUBLE_EQ(control.beta(), 1e11 * p.beta_factor);
  EXPECT_TRUE(quick_outer(control, 1e-3, 0.1));  // shrank enough: keep
  EXPECT_DOUBLE_EQ(control.beta(), 1e11 * p.beta_factor);
  EXPECT_FALSE(quick_outer(control, 1e-3, 0.1));  // the last outer escalates too, capped
  EXPECT_DOUBLE_EQ(control.beta(), p.beta_max);
  EXPECT_EQ(control.stats().z_history, (std::vector<double>{1.0, 0.5, 0.1, 0.1}));
  EXPECT_FALSE(control.stats().converged);
}

TEST(LoopControl, OneLevelRetiresAfterItsSingleInnerLoop) {
  AdmmParams p;
  p.max_inner_iterations = 2;
  p.max_outer_iterations = 2;
  p = make_one_level(p);  // one inner loop of 4
  LoopControl budget(p, p.beta0, false, "scripted");
  for (int i = 1; i < 4; ++i) ASSERT_EQ(budget.end_inner(1.0, 1.0), Next::kInner);
  EXPECT_EQ(budget.end_inner(1.0, 1.0), Next::kRetire);
  EXPECT_FALSE(budget.stats().converged);
  LoopControl met(p, p.beta0, false, "scripted");
  EXPECT_EQ(met.end_inner(1e-3, 1e-3), Next::kRetire);
  EXPECT_TRUE(met.stats().converged);
}

TEST(LoopControl, NonFiniteResidualThrows) {
  LoopControl control(AdmmParams{}, 1e4, false, "scripted");
  EXPECT_THROW(control.end_inner(std::nan(""), 1e-3), NumericalError);
  EXPECT_THROW(control.end_inner(1e-3, std::numeric_limits<double>::infinity()),
               NumericalError);
  // The lane reduction hands a NaN on instead of dropping it.
  const std::vector<double> partial = {0.5, 0.0, std::nan(""), 0.0};  // 2 lanes x 2 slots
  EXPECT_TRUE(std::isnan(collect_slot_max(partial, 0, 2, 2)));
  EXPECT_DOUBLE_EQ(collect_slot_max(partial, 1, 2, 2), 0.0);
}

}  // namespace
}  // namespace gridadmm::admm
