// Primal-dual interior-point NLP solver ("MiniIPM") — the from-scratch
// stand-in for the paper's Ipopt/MA57 baseline (DESIGN.md section 2).
//
// Algorithm: log-barrier with slacks for inequality rows, monotone
// Fiacco-McCormick barrier schedule, Newton steps on the primal-dual KKT
// system factored by inertia-corrected sparse LDL^T, fraction-to-boundary
// rule, and an l1-merit Armijo line search. Matches Ipopt's qualitative
// behaviour (factorization-dominated cost, little warm-start benefit),
// which is what the paper's comparisons rely on.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ipm/kkt_system.hpp"
#include "ipm/nlp.hpp"

namespace gridadmm::ipm {

struct IpmOptions {
  double tolerance = 1e-6;       ///< KKT error target (E_0)
  int max_iterations = 300;
  double mu_init = 0.1;
  double kappa_eps = 10.0;       ///< barrier subproblem tolerance factor
  double kappa_mu = 0.2;         ///< linear barrier decrease
  double theta_mu = 1.5;         ///< superlinear barrier decrease
  double tau_min = 0.99;         ///< fraction-to-boundary floor
  double bound_push = 1e-2;      ///< cold-start interior push (kappa_1)
  double warm_bound_push = 1e-6; ///< warm-start interior push
  bool warm_start = false;       ///< resume from the previous solve()'s state
  int max_backtracks = 30;
  double armijo_coefficient = 1e-4;
  linalg::OrderingMethod ordering = linalg::OrderingMethod::kMinDegree;
  /// Wall-clock budget in seconds (0 = unlimited). Checked once per
  /// iteration; a solve that exceeds it stops with kTimeBudget. Lets the
  /// serve layer bound the fallback engine by a request deadline.
  double max_wall_seconds = 0.0;
};

enum class IpmStatus {
  kOptimal,
  kMaxIterations,
  kKktFailure,        ///< inertia correction could not factorize the system
  kLineSearchFailure, ///< repeated merit-decrease failures
  kTimeBudget         ///< IpmOptions::max_wall_seconds exhausted
};

/// Human-readable status name for logs and error messages.
const char* ipm_status_name(IpmStatus status);

struct IpmResult {
  IpmStatus status = IpmStatus::kMaxIterations;
  int iterations = 0;
  double objective = 0.0;
  double kkt_error = std::numeric_limits<double>::infinity();
  double constraint_violation = std::numeric_limits<double>::infinity();
  double mu = 0.0;
  double solve_seconds = 0.0;
  int factorizations = 0;
};

class IpmSolver {
 public:
  explicit IpmSolver(Nlp& nlp, IpmOptions options = {});

  /// Process-wide count of IpmSolver constructions. Lets tests assert that
  /// a router-disabled serving path never builds a fallback engine (the
  /// same inertness idiom as obs::SloMonitor::allocations()).
  static std::uint64_t allocations();

  /// Solves from the NLP's initial point, or from the state left by a
  /// previous solve() when options.warm_start is true.
  IpmResult solve();

  /// Primal values of the NLP variables (excludes internal slacks).
  [[nodiscard]] std::span<const double> primal() const { return {x_.data(), static_cast<std::size_t>(n_)}; }

  [[nodiscard]] const IpmOptions& options() const { return options_; }
  IpmOptions& options() { return options_; }

 private:
  void build_structures();
  void initialize_iterate();
  void eval_all();      // f, grad, c, J at current X
  double kkt_error(double mu) const;
  double merit(double mu, double nu, std::span<const double> x_trial,
               std::span<double> c_scratch);
  void compute_sigma(std::vector<double>& sigma) const;

  Nlp& nlp_;
  IpmOptions options_;

  int n_ = 0;       // NLP variables
  int m_ = 0;       // constraint rows
  int ns_ = 0;      // inequality slacks
  int nx_ = 0;      // n + ns
  std::vector<int> slack_of_row_;   // -1 for equality rows
  std::vector<double> cl_, cu_;     // constraint bounds
  std::vector<double> lower_, upper_;  // bounds over X = [x; s]

  SparsityPattern jac_aug_;         // NLP jacobian + slack columns
  std::size_t jac_nlp_nnz_ = 0;

  KktSystem kkt_;

  // Iterate.
  std::vector<double> x_;           // X = [x; s]
  std::vector<double> lambda_, zl_, zu_;
  bool have_state_ = false;  // a previous solve() left its primal-dual state

  // Work arrays.
  std::vector<double> grad_, c_, jac_values_, hess_values_;
  std::vector<double> rhs_, dx_, dlambda_, dzl_, dzu_, x_trial_, c_trial_;
};

}  // namespace gridadmm::ipm
