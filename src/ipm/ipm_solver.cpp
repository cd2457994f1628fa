#include "ipm/ipm_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"

namespace gridadmm::ipm {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kKappaSigma = 1e10;  // Ipopt's z-safeguard box

bool finite(double v) { return std::isfinite(v); }

std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

std::uint64_t IpmSolver::allocations() { return g_allocations.load(std::memory_order_relaxed); }

const char* ipm_status_name(IpmStatus status) {
  switch (status) {
    case IpmStatus::kOptimal: return "optimal";
    case IpmStatus::kMaxIterations: return "max-iterations";
    case IpmStatus::kKktFailure: return "kkt-failure";
    case IpmStatus::kLineSearchFailure: return "line-search-failure";
    case IpmStatus::kTimeBudget: return "time-budget";
  }
  return "unknown";
}

IpmSolver::IpmSolver(Nlp& nlp, IpmOptions options) : nlp_(nlp), options_(options) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  build_structures();
}

void IpmSolver::build_structures() {
  n_ = nlp_.num_vars();
  m_ = nlp_.num_cons();
  cl_.assign(static_cast<std::size_t>(m_), 0.0);
  cu_.assign(static_cast<std::size_t>(m_), 0.0);
  nlp_.con_bounds(cl_, cu_);
  slack_of_row_.assign(static_cast<std::size_t>(m_), -1);
  ns_ = 0;
  for (int j = 0; j < m_; ++j) {
    require(cl_[j] <= cu_[j], "IpmSolver: inverted constraint bounds");
    if (cl_[j] < cu_[j]) slack_of_row_[j] = ns_++;
  }
  nx_ = n_ + ns_;

  lower_.assign(static_cast<std::size_t>(nx_), -kInf);
  upper_.assign(static_cast<std::size_t>(nx_), kInf);
  nlp_.var_bounds({lower_.data(), static_cast<std::size_t>(n_)},
                  {upper_.data(), static_cast<std::size_t>(n_)});
  for (int j = 0; j < m_; ++j) {
    if (slack_of_row_[j] >= 0) {
      lower_[n_ + slack_of_row_[j]] = cl_[j];
      upper_[n_ + slack_of_row_[j]] = cu_[j];
    }
  }

  // Augmented Jacobian: NLP entries plus a -1 column per inequality slack.
  const SparsityPattern& jac = nlp_.jacobian_pattern();
  jac_nlp_nnz_ = jac.nnz();
  jac_aug_ = jac;
  for (int j = 0; j < m_; ++j) {
    if (slack_of_row_[j] >= 0) {
      jac_aug_.rows.push_back(j);
      jac_aug_.cols.push_back(n_ + slack_of_row_[j]);
    }
  }

  kkt_.analyze(nx_, m_, nlp_.hessian_pattern(), jac_aug_, options_.ordering);

  x_.assign(static_cast<std::size_t>(nx_), 0.0);
  lambda_.assign(static_cast<std::size_t>(m_), 0.0);
  zl_.assign(static_cast<std::size_t>(nx_), 0.0);
  zu_.assign(static_cast<std::size_t>(nx_), 0.0);
  grad_.assign(static_cast<std::size_t>(nx_), 0.0);
  c_.assign(static_cast<std::size_t>(m_), 0.0);
  jac_values_.assign(jac_aug_.nnz(), 0.0);
  hess_values_.assign(nlp_.hessian_pattern().nnz(), 0.0);
  rhs_.assign(static_cast<std::size_t>(nx_ + m_), 0.0);
  dx_.assign(static_cast<std::size_t>(nx_), 0.0);
  dlambda_.assign(static_cast<std::size_t>(m_), 0.0);
  dzl_.assign(static_cast<std::size_t>(nx_), 0.0);
  dzu_.assign(static_cast<std::size_t>(nx_), 0.0);
  x_trial_.assign(static_cast<std::size_t>(nx_), 0.0);
  c_trial_.assign(static_cast<std::size_t>(m_), 0.0);
}

void IpmSolver::initialize_iterate() {
  const bool warm = options_.warm_start && have_state_;
  const double push = warm ? options_.warm_bound_push : options_.bound_push;
  if (!warm) {
    nlp_.initial_point({x_.data(), static_cast<std::size_t>(n_)});
  }
  // Slacks from the constraint values at x.
  nlp_.eval_constraints({x_.data(), static_cast<std::size_t>(n_)}, c_);
  for (int j = 0; j < m_; ++j) {
    if (slack_of_row_[j] >= 0) x_[n_ + slack_of_row_[j]] = c_[j];
  }
  // Push into the interior (Ipopt's kappa_1/kappa_2 rule, simplified).
  for (int i = 0; i < nx_; ++i) {
    const double lo = lower_[i];
    const double hi = upper_[i];
    if (finite(lo) && finite(hi)) {
      const double pad = std::min(push * std::max(1.0, std::abs(lo)), 0.5 * (hi - lo));
      x_[i] = std::clamp(x_[i], lo + pad, hi - pad);
    } else if (finite(lo)) {
      x_[i] = std::max(x_[i], lo + push * std::max(1.0, std::abs(lo)));
    } else if (finite(hi)) {
      x_[i] = std::min(x_[i], hi - push * std::max(1.0, std::abs(hi)));
    }
  }
  if (!warm) {
    std::fill(lambda_.begin(), lambda_.end(), 0.0);
    for (int i = 0; i < nx_; ++i) {
      zl_[i] = finite(lower_[i]) ? 1.0 : 0.0;
      zu_[i] = finite(upper_[i]) ? 1.0 : 0.0;
    }
  } else {
    for (int i = 0; i < nx_; ++i) {
      if (finite(lower_[i])) zl_[i] = std::max(zl_[i], 1e-8);
      if (finite(upper_[i])) zu_[i] = std::max(zu_[i], 1e-8);
    }
  }
}

void IpmSolver::eval_all() {
  const std::span<const double> xn{x_.data(), static_cast<std::size_t>(n_)};
  std::fill(grad_.begin(), grad_.end(), 0.0);
  nlp_.eval_objective_gradient(xn, {grad_.data(), static_cast<std::size_t>(n_)});
  nlp_.eval_constraints(xn, c_);
  for (int j = 0; j < m_; ++j) {
    c_[j] -= slack_of_row_[j] >= 0 ? x_[n_ + slack_of_row_[j]] : cl_[j];
  }
  nlp_.eval_jacobian(xn, {jac_values_.data(), jac_nlp_nnz_});
  for (std::size_t k = jac_nlp_nnz_; k < jac_aug_.nnz(); ++k) jac_values_[k] = -1.0;
}

double IpmSolver::kkt_error(double mu) const {
  // Dual residual: grad + J^T lambda - zl + zu.
  std::vector<double> rd(grad_.begin(), grad_.end());
  for (std::size_t k = 0; k < jac_aug_.nnz(); ++k) {
    rd[jac_aug_.cols[k]] += jac_values_[k] * lambda_[jac_aug_.rows[k]];
  }
  double dual = 0.0;
  for (int i = 0; i < nx_; ++i) {
    dual = std::max(dual, std::abs(rd[i] - zl_[i] + zu_[i]));
  }
  double primal = 0.0;
  for (int j = 0; j < m_; ++j) primal = std::max(primal, std::abs(c_[j]));
  double compl_err = 0.0;
  double z_sum = 0.0;
  int z_count = 0;
  for (int i = 0; i < nx_; ++i) {
    if (finite(lower_[i])) {
      compl_err = std::max(compl_err, std::abs(zl_[i] * (x_[i] - lower_[i]) - mu));
      z_sum += std::abs(zl_[i]);
      ++z_count;
    }
    if (finite(upper_[i])) {
      compl_err = std::max(compl_err, std::abs(zu_[i] * (upper_[i] - x_[i]) - mu));
      z_sum += std::abs(zu_[i]);
      ++z_count;
    }
  }
  double lam_sum = 0.0;
  for (int j = 0; j < m_; ++j) lam_sum += std::abs(lambda_[j]);
  const double s_max = 100.0;
  const double denom = std::max(1, m_ + z_count);
  const double s_d = std::max(s_max, (lam_sum + z_sum) / denom) / s_max;
  const double s_c = std::max(s_max, z_sum / std::max(1, z_count)) / s_max;
  return std::max({dual / s_d, primal, compl_err / s_c});
}

double IpmSolver::merit(double mu, double nu, std::span<const double> x_trial,
                        std::span<double> c_scratch) {
  const std::span<const double> xn{x_trial.data(), static_cast<std::size_t>(n_)};
  double phi = nlp_.eval_objective(xn);
  for (int i = 0; i < nx_; ++i) {
    if (finite(lower_[i])) {
      const double gap = x_trial[i] - lower_[i];
      if (gap <= 0.0) return kInf;
      phi -= mu * std::log(gap);
    }
    if (finite(upper_[i])) {
      const double gap = upper_[i] - x_trial[i];
      if (gap <= 0.0) return kInf;
      phi -= mu * std::log(gap);
    }
  }
  nlp_.eval_constraints(xn, c_scratch);
  double c_norm = 0.0;
  for (int j = 0; j < m_; ++j) {
    const double cj =
        c_scratch[j] - (slack_of_row_[j] >= 0 ? x_trial[n_ + slack_of_row_[j]] : cl_[j]);
    c_norm += std::abs(cj);
  }
  return phi + nu * c_norm;
}

void IpmSolver::compute_sigma(std::vector<double>& sigma) const {
  sigma.assign(static_cast<std::size_t>(nx_), 0.0);
  for (int i = 0; i < nx_; ++i) {
    if (finite(lower_[i])) sigma[i] += zl_[i] / (x_[i] - lower_[i]);
    if (finite(upper_[i])) sigma[i] += zu_[i] / (upper_[i] - x_[i]);
  }
}

IpmResult IpmSolver::solve() {
  WallTimer timer;
  IpmResult result;
  initialize_iterate();

  double mu = options_.mu_init;
  const double mu_floor = options_.tolerance / 10.0;
  double nu = 1.0;
  int consecutive_forced = 0;
  std::vector<double> sigma;

  eval_all();
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    result.iterations = iter;

    const double e0 = kkt_error(0.0);
    result.kkt_error = e0;
    // Non-finite trap (the batch-residual discipline of DESIGN.md section
    // 12 applied to the fallback engine): a NaN/Inf iterate means the
    // problem data or a step destroyed the state — fail loudly as a typed
    // numerical error instead of iterating on garbage.
    if (!finite(e0)) {
      throw NumericalError("IpmSolver: non-finite KKT error at iteration " +
                           std::to_string(iter));
    }
    if (e0 <= options_.tolerance) {
      result.status = IpmStatus::kOptimal;
      break;
    }
    // Wall-clock budget: never start an iteration past the allotment. The
    // serve layer sizes this from the request deadline, so an escalation
    // cannot blow a deadline admission promised to enforce.
    if (options_.max_wall_seconds > 0.0 && iter > 0 &&
        timer.seconds() >= options_.max_wall_seconds) {
      result.status = IpmStatus::kTimeBudget;
      break;
    }
    // Barrier decrease (possibly several levels at once).
    while (mu > mu_floor && kkt_error(mu) <= options_.kappa_eps * mu) {
      mu = std::max(mu_floor, std::min(options_.kappa_mu * mu, std::pow(mu, options_.theta_mu)));
    }
    const double tau = std::max(options_.tau_min, 1.0 - mu);

    // ---- Assemble and solve the KKT system ----
    nlp_.eval_hessian({x_.data(), static_cast<std::size_t>(n_)}, 1.0, lambda_, hess_values_);
    compute_sigma(sigma);
    ++result.factorizations;
    if (!kkt_.factorize(hess_values_, jac_values_, sigma, mu)) {
      result.status = IpmStatus::kKktFailure;
      break;
    }
    // rhs_x = -(grad + J^T lambda) + mu/(x-l) - mu/(u-x); rhs_l = -c.
    for (int i = 0; i < nx_; ++i) {
      double r = -grad_[i];
      if (finite(lower_[i])) r += mu / (x_[i] - lower_[i]);
      if (finite(upper_[i])) r -= mu / (upper_[i] - x_[i]);
      rhs_[i] = r;
    }
    for (std::size_t k = 0; k < jac_aug_.nnz(); ++k) {
      rhs_[jac_aug_.cols[k]] -= jac_values_[k] * lambda_[jac_aug_.rows[k]];
    }
    for (int j = 0; j < m_; ++j) rhs_[nx_ + j] = -c_[j];
    kkt_.solve(rhs_);
    std::copy(rhs_.begin(), rhs_.begin() + nx_, dx_.begin());
    std::copy(rhs_.begin() + nx_, rhs_.end(), dlambda_.begin());

    // Dual directions.
    for (int i = 0; i < nx_; ++i) {
      dzl_[i] = finite(lower_[i])
                    ? mu / (x_[i] - lower_[i]) - zl_[i] - zl_[i] / (x_[i] - lower_[i]) * dx_[i]
                    : 0.0;
      dzu_[i] = finite(upper_[i])
                    ? mu / (upper_[i] - x_[i]) - zu_[i] + zu_[i] / (upper_[i] - x_[i]) * dx_[i]
                    : 0.0;
    }

    // ---- Fraction-to-boundary step sizes ----
    double alpha_primal = 1.0;
    for (int i = 0; i < nx_; ++i) {
      if (finite(lower_[i]) && dx_[i] < 0.0) {
        alpha_primal = std::min(alpha_primal, -tau * (x_[i] - lower_[i]) / dx_[i]);
      }
      if (finite(upper_[i]) && dx_[i] > 0.0) {
        alpha_primal = std::min(alpha_primal, tau * (upper_[i] - x_[i]) / dx_[i]);
      }
    }
    double alpha_dual = 1.0;
    for (int i = 0; i < nx_; ++i) {
      if (finite(lower_[i]) && dzl_[i] < 0.0) {
        alpha_dual = std::min(alpha_dual, -tau * zl_[i] / dzl_[i]);
      }
      if (finite(upper_[i]) && dzu_[i] < 0.0) {
        alpha_dual = std::min(alpha_dual, -tau * zu_[i] / dzu_[i]);
      }
    }

    // ---- l1-merit Armijo line search ----
    double lam_inf = 0.0;
    for (int j = 0; j < m_; ++j) lam_inf = std::max(lam_inf, std::abs(lambda_[j] + dlambda_[j]));
    nu = std::max(nu, 1.1 * lam_inf);
    double c_norm1 = 0.0;
    for (int j = 0; j < m_; ++j) c_norm1 += std::abs(c_[j]);
    double descent = -nu * c_norm1;
    for (int i = 0; i < nx_; ++i) {
      double g = grad_[i];
      if (finite(lower_[i])) g -= mu / (x_[i] - lower_[i]);
      if (finite(upper_[i])) g += mu / (upper_[i] - x_[i]);
      descent += g * dx_[i];
    }
    const double phi0 = merit(mu, nu, x_, c_trial_);
    double alpha = alpha_primal;
    bool accepted = false;
    for (int bt = 0; bt < options_.max_backtracks; ++bt) {
      for (int i = 0; i < nx_; ++i) x_trial_[i] = x_[i] + alpha * dx_[i];
      const double phi = merit(mu, nu, x_trial_, c_trial_);
      if (phi <= phi0 + options_.armijo_coefficient * alpha * std::min(descent, 0.0)) {
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      // Nonconvexity can defeat the merit test; take the damped step anyway
      // a few times (cheap surrogate for Ipopt's restoration phase).
      if (++consecutive_forced > 5) {
        result.status = IpmStatus::kLineSearchFailure;
        break;
      }
    } else {
      consecutive_forced = 0;
    }

    log::debug("ipm iter ", iter, ": mu=", mu, " E0=", e0, " alpha=", alpha,
               " dw=", kkt_.primal_regularization(), " |c|=",
               [this] {
                 double v = 0.0;
                 for (int j = 0; j < m_; ++j) v = std::max(v, std::abs(c_[j]));
                 return v;
               }(),
               accepted ? "" : " [forced]");
    for (int i = 0; i < nx_; ++i) x_[i] += alpha * dx_[i];
    for (int j = 0; j < m_; ++j) lambda_[j] += alpha * dlambda_[j];
    for (int i = 0; i < nx_; ++i) {
      zl_[i] += alpha_dual * dzl_[i];
      zu_[i] += alpha_dual * dzu_[i];
      // kappa-Sigma safeguard keeps duals consistent with the barrier.
      if (finite(lower_[i])) {
        const double gap = std::max(x_[i] - lower_[i], 1e-40);
        zl_[i] = std::clamp(zl_[i], mu / (kKappaSigma * gap), kKappaSigma * mu / gap);
      }
      if (finite(upper_[i])) {
        const double gap = std::max(upper_[i] - x_[i], 1e-40);
        zu_[i] = std::clamp(zu_[i], mu / (kKappaSigma * gap), kKappaSigma * mu / gap);
      }
    }
    eval_all();
  }

  have_state_ = true;
  result.mu = mu;
  result.objective = nlp_.eval_objective({x_.data(), static_cast<std::size_t>(n_)});
  if (!finite(result.objective)) {
    throw NumericalError("IpmSolver: non-finite objective at final iterate");
  }
  double viol = 0.0;
  for (int j = 0; j < m_; ++j) viol = std::max(viol, std::abs(c_[j]));
  result.constraint_violation = viol;
  if (result.status == IpmStatus::kMaxIterations) {
    result.kkt_error = kkt_error(0.0);
  }
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace gridadmm::ipm
