// Unit tests for the closed-form ADMM kernels and the branch subproblem
// objective/derivatives.
#include <gtest/gtest.h>

#include <cmath>

#include "admm/batch_state.hpp"
#include "admm/step_kernels.hpp"
#include "common/rng.hpp"
#include "grid/cases.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::admm {
namespace {

struct Fixture {
  grid::Network net;
  AdmmParams params;
  ComponentModel model;
  BatchAdmmState state;  ///< one slot, the network's own loads and bounds
  double beta = 0.0;
  std::vector<BranchWorkspace> lanes;
  device::Device dev{2};

  explicit Fixture(const std::string& case_name = "case9")
      : net(grid::load_embedded_case(case_name)),
        params(params_for_case(case_name, net.num_buses())),
        model(build_component_model(net, params)),
        state(BatchAdmmState::single(model, net)) {}

  [[nodiscard]] ScenarioView view() {
    ScenarioView v = state.view(model, 0);
    v.beta = beta;
    return v;
  }

  void randomize(std::uint64_t seed) {
    Rng rng(seed);
    auto fill = [&](device::DeviceBuffer<double>& buf, double lo, double hi) {
      std::vector<double> host(buf.size());
      for (auto& v : host) v = rng.uniform(lo, hi);
      buf.upload(host);
    };
    fill(state.u, -1.0, 1.0);
    fill(state.v, -1.0, 1.0);
    fill(state.z, -0.01, 0.01);
    fill(state.y, -5.0, 5.0);
    beta = 1e3;
  }

  /// The solver's x-update launch (generators + branches) on the state.
  void x_update() {
    const ScenarioView v = view();
    const int slots[] = {0};
    update_x(dev, make_model_view(model), params, {&v, 1}, slots, lanes, nullptr);
  }

  /// The solver's v-update launch (two-level): the bus update, then the
  /// z/y update of each bus's pairs.
  void v_update() {
    const ScenarioView v = view();
    const int slots[] = {0};
    const int row = reduce_row_stride(1);
    const auto cells = static_cast<std::size_t>(dev.workers() * row);
    std::vector<double> partial_primal(cells), partial_dual(cells), partial_z(cells);
    update_v(dev, make_model_view(model), /*two_level=*/true, {&v, 1}, slots, partial_primal,
             partial_dual, partial_z, row);
  }
};

TEST(GeneratorKernel, MatchesBruteForceScalarMinimum) {
  Fixture f;
  f.randomize(1);
  f.x_update();
  const auto u = f.state.u.to_host();
  const auto v = f.state.v.to_host();
  const auto z = f.state.z.to_host();
  const auto y = f.state.y.to_host();
  const auto rho = f.model.rho.to_host();
  for (int g = 0; g < f.model.num_gens; ++g) {
    const auto& gen = f.net.generators[g];
    const int kp = gen_pair_base(g);
    // Brute-force scan of the scalar objective (the kernel optimizes the
    // cost scaled by params.objective_scale).
    const double c2 = gen.c2 * f.params.objective_scale;
    const double c1 = gen.c1 * f.params.objective_scale;
    auto objective = [&](double pg) {
      const double t = pg - v[kp] + z[kp];
      return c2 * pg * pg + c1 * pg + y[kp] * t + 0.5 * rho[kp] * t * t;
    };
    double best = gen.pmin;
    double best_val = objective(best);
    const int steps = 20000;
    for (int s = 0; s <= steps; ++s) {
      const double pg = gen.pmin + (gen.pmax - gen.pmin) * s / steps;
      const double val = objective(pg);
      if (val < best_val) {
        best_val = val;
        best = pg;
      }
    }
    EXPECT_NEAR(u[kp], best, 2e-4 * std::max(1.0, std::abs(best))) << "generator " << g;
    EXPECT_GE(u[kp], gen.pmin - 1e-12);
    EXPECT_LE(u[kp], gen.pmax + 1e-12);
  }
}

TEST(BusKernel, SatisfiesPowerBalanceExactly) {
  Fixture f;
  f.randomize(2);
  f.v_update();
  const auto v = f.state.v.to_host();
  const auto w = f.state.bus_w.to_host();
  for (int i = 0; i < f.net.num_buses(); ++i) {
    const auto& bus = f.net.buses[i];
    double p = -bus.pd - bus.gs * w[i];
    double q = -bus.qd + bus.bs * w[i];
    for (const int g : f.net.gens_at_bus[i]) {
      p += v[gen_pair_base(g)];
      q += v[gen_pair_base(g) + 1];
    }
    for (const int l : f.net.branches_from[i]) {
      const int base = branch_pair_base(f.model.num_gens, l);
      p -= v[base + kPairPij];
      q -= v[base + kPairQij];
    }
    for (const int l : f.net.branches_to[i]) {
      const int base = branch_pair_base(f.model.num_gens, l);
      p -= v[base + kPairPji];
      q -= v[base + kPairQji];
    }
    EXPECT_NEAR(p, 0.0, 1e-9) << "bus " << i;
    EXPECT_NEAR(q, 0.0, 1e-9) << "bus " << i;
  }
}

TEST(BusKernel, IsOptimalAlongFeasibleDirections) {
  // At the constrained minimum, the directional derivative along any
  // direction in the null space of the balance rows must vanish.
  Fixture f;
  f.randomize(3);
  // The bus update minimizes against the z, y it started from; the z/y
  // update of the same launch overwrites them afterwards.
  const auto u = f.state.u.to_host();
  const auto z = f.state.z.to_host();
  const auto y = f.state.y.to_host();
  f.v_update();
  const auto v = f.state.v.to_host();
  const auto rho = f.model.rho.to_host();

  // Pick bus with >= 2 adjacent branches: perturb two p-flow copies in
  // opposite directions (stays on the balance manifold).
  for (int i = 0; i < f.net.num_buses(); ++i) {
    std::vector<int> kps;
    for (const int l : f.net.branches_from[i]) {
      kps.push_back(branch_pair_base(f.model.num_gens, l) + kPairPij);
    }
    for (const int l : f.net.branches_to[i]) {
      kps.push_back(branch_pair_base(f.model.num_gens, l) + kPairPji);
    }
    if (kps.size() < 2) continue;
    const int ka = kps[0], kb = kps[1];
    auto dobj = [&](int k) {
      const double m = u[k] + z[k] + y[k] / rho[k];
      return rho[k] * (v[k] - m);
    };
    // Direction: +1 on ka, +1 on kb has A d = -2 on the P row; use +1/-1.
    EXPECT_NEAR(dobj(ka) - dobj(kb), 0.0, 1e-8) << "bus " << i;
  }
}

TEST(ZKernel, MinimizesScalarObjective) {
  // z minimizes its subproblem at the y the launch was called with and
  // the v it assigned.
  Fixture f;
  f.randomize(4);
  const auto y = f.state.y.to_host();
  f.v_update();
  const auto u = f.state.u.to_host();
  const auto v = f.state.v.to_host();
  const auto z = f.state.z.to_host();
  const auto lz = f.state.lz.to_host();
  const auto rho = f.model.rho.to_host();
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = static_cast<int>(rng.uniform_index(f.model.num_pairs));
    auto objective = [&](double zz) {
      const double r = u[k] - v[k] + zz;
      return lz[k] * zz + 0.5 * f.beta * zz * zz + y[k] * r + 0.5 * rho[k] * r * r;
    };
    const double at = objective(z[k]);
    EXPECT_LE(at, objective(z[k] + 1e-4) + 1e-12);
    EXPECT_LE(at, objective(z[k] - 1e-4) + 1e-12);
  }
}

TEST(YKernel, AppliesDualAscentRule) {
  // y ascends along the residual at the freshly updated z.
  Fixture f;
  f.randomize(6);
  const auto y_before = f.state.y.to_host();
  f.v_update();
  const auto y_after = f.state.y.to_host();
  const auto u = f.state.u.to_host();
  const auto v = f.state.v.to_host();
  const auto z = f.state.z.to_host();
  const auto rho = f.model.rho.to_host();
  for (int k = 0; k < f.model.num_pairs; ++k) {
    EXPECT_NEAR(y_after[k], y_before[k] + rho[k] * (u[k] - v[k] + z[k]), 1e-12);
  }
}

TEST(OuterMultiplier, ClampsToBounds) {
  Fixture f;
  f.randomize(7);
  f.beta = 1e12;
  std::vector<double> big_z(f.state.z.size(), 1.0);
  f.state.z.upload(big_z);
  const ScenarioView view = f.view();
  const int slots[] = {0};
  update_outer_multiplier(f.dev, make_model_view(f.model), {&view, 1}, slots, 1e8);
  for (const double l : f.state.lz.to_host()) EXPECT_LE(std::abs(l), 1e8);
}

class BranchProblemDerivativeTest : public ::testing::TestWithParam<int> {};

TEST_P(BranchProblemDerivativeTest, GradientAndHessianMatchFiniteDifferences) {
  Rng rng(900 + GetParam());
  Fixture f;
  const int l = static_cast<int>(rng.uniform_index(f.net.num_branches()));
  const bool rated = GetParam() % 2 == 0;

  double adm[8];
  const auto& y = f.net.admittances[l];
  adm[0] = y.gii; adm[1] = y.bii; adm[2] = y.gij; adm[3] = y.bij;
  adm[4] = y.gji; adm[5] = y.bji; adm[6] = y.gjj; adm[7] = y.bjj;
  double vb[4] = {0.9, 1.1, 0.9, 1.1};
  double d[8], yk[8], rhok[8];
  for (int k = 0; k < 8; ++k) {
    d[k] = rng.uniform(-0.5, 0.5);
    yk[k] = rng.uniform(-3, 3);
    rhok[k] = rng.uniform(1.0, 50.0);
  }
  BranchProblem prob;
  prob.bind(adm, vb, rated ? 2.5 : 0.0, d, yk, rhok);
  prob.set_line_multipliers(rated ? rng.uniform(-1, 1) : 0.0, rated ? rng.uniform(-1, 1) : 0.0,
                            rated ? rng.uniform(1.0, 20.0) : 0.0);
  const int n = prob.dim();
  ASSERT_EQ(n, rated ? 6 : 4);
  std::vector<double> x(n);
  x[0] = rng.uniform(0.92, 1.08);
  x[1] = rng.uniform(0.92, 1.08);
  x[2] = rng.uniform(-0.3, 0.3);
  x[3] = rng.uniform(-0.3, 0.3);
  if (rated) {
    x[4] = rng.uniform(-2.0, 0.0);
    x[5] = rng.uniform(-2.0, 0.0);
  }
  std::vector<double> grad(n);
  prob.eval_gradient(x, grad);
  const double h = 1e-6;
  for (int var = 0; var < n; ++var) {
    auto xp = x, xm = x;
    xp[var] += h;
    xm[var] -= h;
    const double fd = (prob.eval_f(xp) - prob.eval_f(xm)) / (2 * h);
    EXPECT_NEAR(grad[var], fd, 2e-4 * std::max(1.0, std::abs(fd))) << "var " << var;
  }
  linalg::DenseMatrix hess(n, n);
  prob.eval_hessian(x, hess);
  for (int var = 0; var < n; ++var) {
    auto xp = x, xm = x;
    xp[var] += h;
    xm[var] -= h;
    std::vector<double> gp(n), gm(n);
    prob.eval_gradient(xp, gp);
    prob.eval_gradient(xm, gm);
    for (int row = 0; row < n; ++row) {
      const double fd = (gp[row] - gm[row]) / (2 * h);
      EXPECT_NEAR(hess(row, var), fd, 5e-4 * std::max(1.0, std::abs(fd)))
          << "row " << row << " var " << var;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBranchProblems, BranchProblemDerivativeTest,
                         ::testing::Range(0, 12));

TEST(BranchKernel, UpdatesConsensusValuesConsistently) {
  Fixture f;
  f.randomize(8);
  // Reasonable starting voltages.
  std::vector<double> bx(f.state.branch_x.size());
  for (int l = 0; l < f.net.num_branches(); ++l) {
    bx[4 * l] = 1.0;
    bx[4 * l + 1] = 1.0;
    bx[4 * l + 2] = 0.0;
    bx[4 * l + 3] = 0.0;
  }
  f.state.branch_x.upload(bx);
  f.x_update();
  const auto u = f.state.u.to_host();
  const auto x = f.state.branch_x.to_host();
  for (int l = 0; l < f.net.num_branches(); ++l) {
    const int base = branch_pair_base(f.model.num_gens, l);
    const auto flows = grid::eval_flows(f.net.admittances[l], x[4 * l], x[4 * l + 1],
                                        x[4 * l + 2], x[4 * l + 3]);
    EXPECT_NEAR(u[base + kPairPij], flows[grid::kPij], 1e-12);
    EXPECT_NEAR(u[base + kPairWi], x[4 * l] * x[4 * l], 1e-12);
    EXPECT_NEAR(u[base + kPairThj], x[4 * l + 3], 1e-12);
    // Voltage bounds respected.
    EXPECT_GE(x[4 * l], f.net.buses[f.net.branches[l].from].vmin - 1e-12);
    EXPECT_LE(x[4 * l], f.net.buses[f.net.branches[l].from].vmax + 1e-12);
  }
}

// The launchers' work estimates against the device's fan-out rule: a
// one-request case9 or case14 batch is at most about 22 us of work per
// launch, below what waking the helpers costs on 2, 3 or 4 lanes, while a
// paper-size x-update is milliseconds.
TEST(FanOut, OneRequestBatchRunsEveryLaunchOnTheCaller) {
  for (const char* name : {"case9", "case14"}) {
    const auto net = grid::load_embedded_case(name);
    scenario::ScenarioSet set(net);
    set.add_load_scale(1, 1.0, 1.0);
    for (const int lanes : {2, 3, 4}) {
      device::Device dev(lanes);
      scenario::BatchAdmmSolver solver(set, params_for_case(name, net.num_buses()), &dev);
      const auto report = solver.solve();
      EXPECT_GT(report.launch_stats.launches, 100u) << name << " on " << lanes << " lanes";
      EXPECT_EQ(report.launch_stats.fan_outs, 0u) << name << " on " << lanes << " lanes";
    }
  }
}

TEST(FanOut, PaperSizeXUpdateFansOut) {
  const auto net = grid::load_case("1354pegase");
  const auto params = params_for_case("1354pegase", net.num_buses());
  const auto model = build_component_model(net, params);
  auto state = BatchAdmmState::single(model, net);
  const ScenarioView v = state.view(model, 0);
  const int slots[] = {0};
  std::vector<BranchWorkspace> lanes;
  device::Device dev(2);
  update_x(dev, make_model_view(model), params, {&v, 1}, slots, lanes, nullptr);
  EXPECT_EQ(dev.stats().launches, 1u);
  EXPECT_EQ(dev.stats().fan_outs, 1u);
}

}  // namespace
}  // namespace gridadmm::admm
