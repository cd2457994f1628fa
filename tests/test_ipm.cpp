// End-to-end tests of the interior-point baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "grid/cases.hpp"
#include "grid/solution.hpp"
#include "grid/synthetic.hpp"
#include "ipm/acopf_nlp.hpp"
#include "ipm/ipm_solver.hpp"

namespace gridadmm::ipm {
namespace {

TEST(Ipm, SolvesCase9ToKnownObjective) {
  const auto net = grid::load_embedded_case("case9");
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  const auto result = solver.solve();
  EXPECT_EQ(result.status, IpmStatus::kOptimal);
  // MATPOWER's reference ACOPF objective for case9.
  EXPECT_NEAR(result.objective, 5296.69, 0.005 * 5296.69);
  const auto sol = nlp.unpack(solver.primal());
  const auto quality = grid::evaluate_solution(net, sol);
  EXPECT_LT(quality.max_violation, 1e-5);
}

TEST(Ipm, SolvesCase14ToKnownObjective) {
  const auto net = grid::load_embedded_case("case14");
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  const auto result = solver.solve();
  EXPECT_EQ(result.status, IpmStatus::kOptimal);
  EXPECT_NEAR(result.objective, 8081.5, 0.005 * 8081.5);
}

TEST(Ipm, SolvesCase30) {
  const auto net = grid::load_embedded_case("case30");
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  const auto result = solver.solve();
  EXPECT_EQ(result.status, IpmStatus::kOptimal);
  const auto quality = grid::evaluate_solution(net, nlp.unpack(solver.primal()));
  EXPECT_LT(quality.max_violation, 1e-5);
  EXPECT_LT(quality.line_violation, 1e-6);
}

TEST(Ipm, SolvesSmallSyntheticGrid) {
  grid::SyntheticSpec spec;
  spec.name = "syn120";
  spec.buses = 120;
  spec.branches = 180;
  spec.generators = 25;
  spec.seed = 11;
  const auto net = make_synthetic_grid(spec);
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  const auto result = solver.solve();
  EXPECT_EQ(result.status, IpmStatus::kOptimal);
  const auto quality = grid::evaluate_solution(net, nlp.unpack(solver.primal()));
  EXPECT_LT(quality.max_violation, 1e-5);
}

TEST(Ipm, JacobianMatchesFiniteDifferences) {
  const auto net = grid::load_embedded_case("case9");
  AcopfNlp nlp(net);
  const int n = nlp.num_vars();
  const int m = nlp.num_cons();
  std::vector<double> x(n);
  nlp.initial_point(x);
  for (int i = 0; i < n; ++i) x[i] += 0.01 * std::sin(3.7 * i);

  std::vector<double> jac(nlp.jacobian_pattern().nnz());
  nlp.eval_jacobian(x, jac);
  // Dense FD Jacobian.
  const double h = 1e-6;
  std::vector<double> cp(m), cm(m);
  std::vector<std::vector<double>> dense(m, std::vector<double>(n, 0.0));
  for (int col = 0; col < n; ++col) {
    auto xp = x, xm = x;
    xp[col] += h;
    xm[col] -= h;
    nlp.eval_constraints(xp, cp);
    nlp.eval_constraints(xm, cm);
    for (int row = 0; row < m; ++row) dense[row][col] = (cp[row] - cm[row]) / (2 * h);
  }
  // Sum coordinate entries and compare.
  std::vector<std::vector<double>> sparse(m, std::vector<double>(n, 0.0));
  const auto& pattern = nlp.jacobian_pattern();
  for (std::size_t k = 0; k < pattern.nnz(); ++k) {
    sparse[pattern.rows[k]][pattern.cols[k]] += jac[k];
  }
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < n; ++col) {
      EXPECT_NEAR(sparse[row][col], dense[row][col],
                  1e-5 * std::max(1.0, std::abs(dense[row][col])))
          << "row " << row << " col " << col;
    }
  }
}

TEST(Ipm, HessianMatchesFiniteDifferencesOfGradient) {
  const auto net = grid::load_embedded_case("case9");
  AcopfNlp nlp(net);
  const int n = nlp.num_vars();
  const int m = nlp.num_cons();
  std::vector<double> x(n);
  nlp.initial_point(x);
  for (int i = 0; i < n; ++i) x[i] += 0.01 * std::cos(2.3 * i);
  std::vector<double> lambda(m);
  for (int j = 0; j < m; ++j) lambda[j] = std::sin(1.1 * j);

  std::vector<double> hess(nlp.hessian_pattern().nnz());
  nlp.eval_hessian(x, 1.0, lambda, hess);
  std::vector<std::vector<double>> sparse(n, std::vector<double>(n, 0.0));
  const auto& pattern = nlp.hessian_pattern();
  for (std::size_t k = 0; k < pattern.nnz(); ++k) {
    sparse[pattern.rows[k]][pattern.cols[k]] += hess[k];
    if (pattern.rows[k] != pattern.cols[k]) {
      sparse[pattern.cols[k]][pattern.rows[k]] += hess[k];
    }
  }
  // FD of grad(L) = grad f + J^T lambda.
  auto lagrangian_grad = [&](const std::vector<double>& pt, std::vector<double>& out) {
    out.assign(n, 0.0);
    nlp.eval_objective_gradient(pt, out);
    std::vector<double> jac(nlp.jacobian_pattern().nnz());
    // Note: eval_jacobian is non-const; cast through the fixture object.
    nlp.eval_jacobian(pt, jac);
    const auto& jp = nlp.jacobian_pattern();
    for (std::size_t k = 0; k < jp.nnz(); ++k) out[jp.cols[k]] += jac[k] * lambda[jp.rows[k]];
  };
  const double h = 1e-6;
  std::vector<double> gp(n), gm(n);
  for (int col = 0; col < n; ++col) {
    auto xp = x, xm = x;
    xp[col] += h;
    xm[col] -= h;
    lagrangian_grad(xp, gp);
    lagrangian_grad(xm, gm);
    for (int row = 0; row < n; ++row) {
      const double fd = (gp[row] - gm[row]) / (2 * h);
      EXPECT_NEAR(sparse[row][col], fd, 2e-4 * std::max(1.0, std::abs(fd)))
          << "row " << row << " col " << col;
    }
  }
}

TEST(Ipm, ReportsFailureOnInfeasibleGrid) {
  // Load far beyond total generation capacity.
  auto net = grid::load_embedded_case("case9");
  for (auto& bus : net.buses) bus.pd *= 100.0;
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  IpmResult result = solver.solve();
  EXPECT_NE(result.status, IpmStatus::kOptimal);
}

TEST(Ipm, ReportsLineSearchFailureOnInfeasibleCase) {
  // Loads scaled far past feasibility but not absurdly so: the solver makes
  // progress until the merit line search can no longer decrease, the typed
  // status the serve router maps to ConvergenceError.
  auto net = grid::load_embedded_case("case9");
  for (auto& bus : net.buses) {
    bus.pd *= 10.0;
    bus.qd *= 10.0;
  }
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  const auto result = solver.solve();
  EXPECT_EQ(result.status, IpmStatus::kLineSearchFailure);
  EXPECT_STREQ(ipm_status_name(result.status), "line-search-failure");
}

TEST(Ipm, WarmStartFromPrimalIsDeterministic) {
  // Two independent solvers must walk bit-identical iterate sequences, cold
  // and then warm from their own previous solve at shifted loads (the
  // tracking baseline's IPM-to-IPM warm start): the escalation router's IPM
  // rung relies on replayable rescues.
  const auto net = grid::load_embedded_case("case30");
  std::vector<double> pd, qd;
  for (const auto& bus : net.buses) {
    pd.push_back(bus.pd * 1.02);
    qd.push_back(bus.qd * 1.02);
  }
  struct Run {
    IpmResult cold, warm;
    std::vector<double> cold_primal, warm_primal;
  };
  auto run = [&] {
    Run out;
    AcopfNlp nlp(net);
    IpmSolver solver(nlp);
    out.cold = solver.solve();
    out.cold_primal.assign(solver.primal().begin(), solver.primal().end());
    nlp.set_loads(pd, qd);
    solver.options().warm_start = true;
    out.warm = solver.solve();
    out.warm_primal.assign(solver.primal().begin(), solver.primal().end());
    return out;
  };
  const auto expect_identical = [](const IpmResult& x, const IpmResult& y,
                                   const std::vector<double>& x_primal,
                                   const std::vector<double>& y_primal) {
    ASSERT_EQ(x.status, IpmStatus::kOptimal);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.objective, y.objective);  // bit-identical, not NEAR
    EXPECT_EQ(x.kkt_error, y.kkt_error);
    EXPECT_EQ(x_primal, y_primal);
  };
  const Run a = run();
  const Run b = run();
  expect_identical(a.cold, b.cold, a.cold_primal, b.cold_primal);
  expect_identical(a.warm, b.warm, a.warm_primal, b.warm_primal);
  EXPECT_NE(a.warm.objective, a.cold.objective);  // the warm solve saw new loads
}

TEST(Ipm, WallBudgetStopsWithTimeBudgetStatus) {
  const auto net = grid::load_embedded_case("case30");
  AcopfNlp nlp(net);
  IpmOptions options;
  options.max_wall_seconds = 1e-9;  // expires after the first iteration
  IpmSolver solver(nlp, options);
  const auto result = solver.solve();
  EXPECT_EQ(result.status, IpmStatus::kTimeBudget);
  EXPECT_GE(result.iterations, 1);
  EXPECT_LT(result.iterations, options.max_iterations);
  EXPECT_STREQ(ipm_status_name(result.status), "time-budget");
}

namespace {

/// Delegating NLP that poisons the objective gradient with NaN — drives the
/// KKT error non-finite so the solver's numerical trap must fire.
class NanGradientNlp final : public Nlp {
 public:
  explicit NanGradientNlp(Nlp& inner) : inner_(inner) {}
  [[nodiscard]] int num_vars() const override { return inner_.num_vars(); }
  [[nodiscard]] int num_cons() const override { return inner_.num_cons(); }
  void var_bounds(std::span<double> lower, std::span<double> upper) const override {
    inner_.var_bounds(lower, upper);
  }
  void con_bounds(std::span<double> lower, std::span<double> upper) const override {
    inner_.con_bounds(lower, upper);
  }
  void initial_point(std::span<double> x0) const override { inner_.initial_point(x0); }
  double eval_objective(std::span<const double> x) override { return inner_.eval_objective(x); }
  void eval_objective_gradient(std::span<const double> x, std::span<double> grad) override {
    inner_.eval_objective_gradient(x, grad);
    grad[0] = std::numeric_limits<double>::quiet_NaN();
  }
  void eval_constraints(std::span<const double> x, std::span<double> c) override {
    inner_.eval_constraints(x, c);
  }
  [[nodiscard]] const SparsityPattern& jacobian_pattern() const override {
    return inner_.jacobian_pattern();
  }
  void eval_jacobian(std::span<const double> x, std::span<double> values) override {
    inner_.eval_jacobian(x, values);
  }
  [[nodiscard]] const SparsityPattern& hessian_pattern() const override {
    return inner_.hessian_pattern();
  }
  void eval_hessian(std::span<const double> x, double sigma, std::span<const double> lambda,
                    std::span<double> values) override {
    inner_.eval_hessian(x, sigma, lambda, values);
  }

 private:
  Nlp& inner_;
};

}  // namespace

TEST(Ipm, NonFiniteIterateThrowsNumericalError) {
  const auto net = grid::load_embedded_case("case9");
  AcopfNlp inner(net);
  NanGradientNlp nlp(inner);
  IpmSolver solver(nlp);
  EXPECT_THROW(solver.solve(), NumericalError);
}

TEST(Ipm, WarmStartReusesState) {
  const auto net = grid::load_embedded_case("case9");
  AcopfNlp nlp(net);
  IpmSolver solver(nlp);
  const auto cold = solver.solve();
  ASSERT_EQ(cold.status, IpmStatus::kOptimal);
  // Tiny load change, warm start: should still converge.
  std::vector<double> pd, qd;
  for (const auto& bus : net.buses) {
    pd.push_back(bus.pd * 1.01);
    qd.push_back(bus.qd * 1.01);
  }
  nlp.set_loads(pd, qd);
  solver.options().warm_start = true;
  const auto warm = solver.solve();
  EXPECT_EQ(warm.status, IpmStatus::kOptimal);
}

}  // namespace
}  // namespace gridadmm::ipm
