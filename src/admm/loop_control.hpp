// Loop control of two-level ADMM (paper Algorithm 1) for one scenario: the
// one copy of when an inner loop stops, when a scenario retires and when
// beta escalates. AdmmSolver::solve drives one controller, the batch engine
// one per scenario. The engine runs the kernels and, after each inner
// iteration, calls end_inner; on kOuter it calls end_outer, launches the
// outer multiplier update at the beta the outer ran with, then adopts
// beta(), and stops unless end_outer returned true.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "admm/branch_problem.hpp"
#include "admm/params.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace gridadmm::admm {

struct AdmmStats {
  bool converged = false;
  int outer_iterations = 0;
  int inner_iterations = 0;  ///< cumulative over all outer iterations
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double z_norm = 0.0;
  double solve_seconds = 0.0;
  BranchUpdateStats branch;  ///< cumulative branch-solve work
  // Per-inner-iteration traces (filled when history recording is on).
  std::vector<double> primal_history;
  std::vector<double> dual_history;
  std::vector<double> z_history;  ///< one entry per outer iteration
};

/// Max of slot `j` over the `lanes` rows (stride `row_stride`) of a
/// per-lane partial reduction. NaN-propagating: the first non-finite entry
/// is returned as is, because `std::max(0.0, NaN)` keeps the 0 and would
/// let a non-finite iterate report a finite residual.
inline double collect_slot_max(std::span<const double> partial, int j, int row_stride,
                               int lanes) {
  double result = 0.0;
  for (int lane = 0; lane < lanes; ++lane) {
    const double v =
        partial[static_cast<std::size_t>(lane) * row_stride + static_cast<std::size_t>(j)];
    if (!std::isfinite(v)) return v;
    result = std::max(result, v);
  }
  return result;
}

class LoopControl {
 public:
  /// What the engine does after an inner iteration.
  enum class Next {
    kInner,   ///< run another inner iteration
    kOuter,   ///< the inner loop ended: reduce ||z||_inf and call end_outer
    kRetire,  ///< one-level mode: the inner loop was the whole solve
  };

  LoopControl() = default;

  /// Starts one solve from outer penalty `beta`. `params` holds the
  /// scenario's resolved knobs (scenario::effective_params) with positive
  /// budgets. `name` labels log and error lines and must outlive *this.
  LoopControl(const AdmmParams& params, double beta, bool record_history, std::string_view name)
      : params_(params), beta_(beta), record_history_(record_history), name_(name) {
    stats_.outer_iterations = 1;
    schedule_tolerances();
  }

  /// Records one inner iteration's residuals; the inner loop ends when both
  /// meet the scheduled tolerance or its budget is spent. A non-finite
  /// residual throws NumericalError: the iterate must not "converge".
  Next end_inner(double primal, double dual) {
    ++stats_.inner_iterations;
    ++inner_;
    if (!std::isfinite(primal) || !std::isfinite(dual)) {
      throw NumericalError("ADMM '" + std::string(name_) +
                           "': non-finite residual at inner iteration " +
                           std::to_string(stats_.inner_iterations));
    }
    stats_.primal_residual = primal;
    stats_.dual_residual = dual;
    if (record_history_) {
      stats_.primal_history.push_back(primal);
      stats_.dual_history.push_back(dual);
    }
    const bool met = primal <= eps_primal_ && dual <= eps_dual_;
    if (!met && inner_ < params_.max_inner_iterations) return Next::kInner;
    if (!params_.two_level) {
      stats_.converged = met;
      return Next::kRetire;
    }
    return Next::kOuter;
  }

  /// Ends an outer iteration at ||z||_inf = `z_norm`; true when another
  /// follows. Converged only on the *final* tolerances (the scheduled one
  /// may be looser). Beta escalates on the last outer too, so warm-start
  /// children inherit the same penalty from both engines.
  bool end_outer(double z_norm) {
    stats_.z_norm = z_norm;
    if (record_history_) stats_.z_history.push_back(z_norm);
    log::debug("ADMM '", name_, "' outer ", stats_.outer_iterations, ": |z|=", z_norm,
               " primal=", stats_.primal_residual, " dual=", stats_.dual_residual,
               " beta=", beta_, " inner_total=", stats_.inner_iterations);
    if (z_norm <= params_.outer_tolerance && stats_.primal_residual <= params_.primal_tolerance &&
        stats_.dual_residual <= params_.dual_tolerance) {
      stats_.converged = true;
      return false;
    }
    if (z_norm > params_.z_shrink * prev_znorm_) {
      beta_ = std::min(beta_ * params_.beta_factor, params_.beta_max);
    }
    prev_znorm_ = z_norm;
    if (stats_.outer_iterations >= params_.max_outer_iterations) return false;
    ++stats_.outer_iterations;
    inner_ = 0;
    schedule_tolerances();
    return true;
  }

  /// Outer penalty for the next outer iteration (escalated by end_outer).
  [[nodiscard]] double beta() const { return beta_; }
  /// Inner tolerances of the current outer iteration.
  [[nodiscard]] double eps_primal() const { return eps_primal_; }
  [[nodiscard]] double eps_dual() const { return eps_dual_; }
  [[nodiscard]] const AdmmStats& stats() const { return stats_; }
  AdmmStats& stats() { return stats_; }

 private:
  /// Inexact inner solves: proportional to the outer infeasibility, never
  /// looser than the initial tolerance, never tighter than the final one.
  void schedule_tolerances() {
    const double scheduled = std::isfinite(prev_znorm_)
                                 ? params_.inner_tolerance_factor * prev_znorm_
                                 : params_.inner_tolerance_initial;
    // A final tolerance looser than the initial one must not invert the
    // clamp bounds (UB when lo > hi).
    eps_primal_ = std::clamp(scheduled, params_.primal_tolerance,
                             std::max(params_.inner_tolerance_initial, params_.primal_tolerance));
    eps_dual_ = std::clamp(scheduled, params_.dual_tolerance,
                           std::max(params_.inner_tolerance_initial, params_.dual_tolerance));
  }

  AdmmParams params_;
  double beta_ = 0.0;
  bool record_history_ = false;
  std::string_view name_;
  AdmmStats stats_;
  int inner_ = 0;  ///< inner iterations of the current outer iteration
  double prev_znorm_ = std::numeric_limits<double>::infinity();
  double eps_primal_ = 0.0;
  double eps_dual_ = 0.0;
};

}  // namespace gridadmm::admm
