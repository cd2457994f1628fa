// Polar-coordinate ACOPF as a generic NLP — the model the paper's baseline
// (Ipopt via PowerModels.jl) solves directly.
//
// Variables: [vm (nb), va (nb), pg (ng), qg (ng)].
// Constraints: 2*nb power balance equalities, one reference-angle equality,
// and two squared line-flow inequalities per rated branch
// (pij^2 + qij^2 <= rate^2). Angle-difference constraints are disabled,
// matching the paper's PowerModels.jl configuration (Section IV-A).
#pragma once

#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "ipm/nlp.hpp"

namespace gridadmm::ipm {

class AcopfNlp final : public Nlp {
 public:
  explicit AcopfNlp(grid::Network net);

  [[nodiscard]] int num_vars() const override;
  [[nodiscard]] int num_cons() const override;
  void var_bounds(std::span<double> lower, std::span<double> upper) const override;
  void con_bounds(std::span<double> lower, std::span<double> upper) const override;
  void initial_point(std::span<double> x0) const override;
  double eval_objective(std::span<const double> x) override;
  void eval_objective_gradient(std::span<const double> x, std::span<double> grad) override;
  void eval_constraints(std::span<const double> x, std::span<double> c) override;
  [[nodiscard]] const SparsityPattern& jacobian_pattern() const override;
  void eval_jacobian(std::span<const double> x, std::span<double> values) override;
  [[nodiscard]] const SparsityPattern& hessian_pattern() const override;
  void eval_hessian(std::span<const double> x, double sigma, std::span<const double> lambda,
                    std::span<double> values) override;

  /// Updates per-unit loads (tracking horizon).
  void set_loads(std::span<const double> pd, std::span<const double> qd);
  /// Updates per-unit real dispatch bounds (ramp limits).
  void set_pg_bounds(std::span<const double> pmin, std::span<const double> pmax);

  /// Unpacks an NLP primal vector into a grid solution.
  [[nodiscard]] grid::OpfSolution unpack(std::span<const double> x) const;

  [[nodiscard]] const grid::Network& network() const { return net_; }

  // Variable indexing (public for tests).
  [[nodiscard]] int vm_col(int bus) const { return bus; }
  [[nodiscard]] int va_col(int bus) const { return net_.num_buses() + bus; }
  [[nodiscard]] int pg_col(int gen) const { return 2 * net_.num_buses() + gen; }
  [[nodiscard]] int qg_col(int gen) const { return 2 * net_.num_buses() + net_.num_generators() + gen; }

 private:
  void build_patterns();

  grid::Network net_;
  std::vector<int> rated_branches_;  ///< branch indices with a line limit
  SparsityPattern jac_;
  SparsityPattern hess_;
};

}  // namespace gridadmm::ipm
