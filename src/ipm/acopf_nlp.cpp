#include "ipm/acopf_nlp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"
#include "grid/flows.hpp"

namespace gridadmm::ipm {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

AcopfNlp::AcopfNlp(grid::Network net) : net_(std::move(net)) {
  require(net_.finalized(), "AcopfNlp: network must be finalized");
  for (int l = 0; l < net_.num_branches(); ++l) {
    if (net_.branches[l].rate > 0.0) rated_branches_.push_back(l);
  }
  build_patterns();
}

int AcopfNlp::num_vars() const { return 2 * net_.num_buses() + 2 * net_.num_generators(); }

int AcopfNlp::num_cons() const {
  return 2 * net_.num_buses() + 1 + 2 * static_cast<int>(rated_branches_.size());
}

void AcopfNlp::var_bounds(std::span<double> lower, std::span<double> upper) const {
  for (int i = 0; i < net_.num_buses(); ++i) {
    lower[vm_col(i)] = net_.buses[i].vmin;
    upper[vm_col(i)] = net_.buses[i].vmax;
    lower[va_col(i)] = -kTwoPi;
    upper[va_col(i)] = kTwoPi;
  }
  for (int g = 0; g < net_.num_generators(); ++g) {
    lower[pg_col(g)] = net_.generators[g].pmin;
    upper[pg_col(g)] = net_.generators[g].pmax;
    lower[qg_col(g)] = net_.generators[g].qmin;
    upper[qg_col(g)] = net_.generators[g].qmax;
  }
}

void AcopfNlp::con_bounds(std::span<double> lower, std::span<double> upper) const {
  const int nb = net_.num_buses();
  for (int j = 0; j < 2 * nb + 1; ++j) {
    lower[j] = 0.0;
    upper[j] = 0.0;
  }
  for (std::size_t r = 0; r < rated_branches_.size(); ++r) {
    const double rate = net_.branches[rated_branches_[r]].rate;
    for (int side = 0; side < 2; ++side) {
      lower[2 * nb + 1 + 2 * r + side] = -kInf;
      upper[2 * nb + 1 + 2 * r + side] = rate * rate;
    }
  }
}

void AcopfNlp::initial_point(std::span<double> x0) const {
  // Paper Section IV-B: midpoint dispatch and voltage magnitudes, flat angles.
  for (int i = 0; i < net_.num_buses(); ++i) {
    x0[vm_col(i)] = 0.5 * (net_.buses[i].vmin + net_.buses[i].vmax);
    x0[va_col(i)] = 0.0;
  }
  for (int g = 0; g < net_.num_generators(); ++g) {
    const auto& gen = net_.generators[g];
    x0[pg_col(g)] = 0.5 * (gen.pmin + gen.pmax);
    x0[qg_col(g)] = 0.5 * (gen.qmin + gen.qmax);
  }
}

double AcopfNlp::eval_objective(std::span<const double> x) {
  double total = 0.0;
  for (int g = 0; g < net_.num_generators(); ++g) {
    const auto& gen = net_.generators[g];
    const double pg = x[pg_col(g)];
    total += gen.c2 * pg * pg + gen.c1 * pg + gen.c0;
  }
  return total;
}

void AcopfNlp::eval_objective_gradient(std::span<const double> x, std::span<double> grad) {
  std::fill(grad.begin(), grad.end(), 0.0);
  for (int g = 0; g < net_.num_generators(); ++g) {
    const auto& gen = net_.generators[g];
    grad[pg_col(g)] = 2.0 * gen.c2 * x[pg_col(g)] + gen.c1;
  }
}

void AcopfNlp::eval_constraints(std::span<const double> x, std::span<double> c) {
  const int nb = net_.num_buses();
  for (int i = 0; i < nb; ++i) {
    const auto& bus = net_.buses[i];
    const double vm = x[vm_col(i)];
    c[i] = -bus.pd - bus.gs * vm * vm;
    c[nb + i] = -bus.qd + bus.bs * vm * vm;
  }
  for (int g = 0; g < net_.num_generators(); ++g) {
    c[net_.generators[g].bus] += x[pg_col(g)];
    c[nb + net_.generators[g].bus] += x[qg_col(g)];
  }
  for (int l = 0; l < net_.num_branches(); ++l) {
    const auto& branch = net_.branches[l];
    const auto f = grid::eval_flows(net_.admittances[l], x[vm_col(branch.from)],
                                    x[vm_col(branch.to)], x[va_col(branch.from)],
                                    x[va_col(branch.to)]);
    c[branch.from] -= f[grid::kPij];
    c[nb + branch.from] -= f[grid::kQij];
    c[branch.to] -= f[grid::kPji];
    c[nb + branch.to] -= f[grid::kQji];
  }
  c[2 * nb] = x[va_col(net_.ref_bus)];
  for (std::size_t r = 0; r < rated_branches_.size(); ++r) {
    const auto& branch = net_.branches[rated_branches_[r]];
    const auto f = grid::eval_flows(net_.admittances[rated_branches_[r]], x[vm_col(branch.from)],
                                    x[vm_col(branch.to)], x[va_col(branch.from)],
                                    x[va_col(branch.to)]);
    c[2 * nb + 1 + 2 * r] = f[grid::kPij] * f[grid::kPij] + f[grid::kQij] * f[grid::kQij];
    c[2 * nb + 1 + 2 * r + 1] = f[grid::kPji] * f[grid::kPji] + f[grid::kQji] * f[grid::kQji];
  }
}

void AcopfNlp::build_patterns() {
  const int nb = net_.num_buses();
  jac_ = SparsityPattern{};
  // 1) Generator columns in the balance rows.
  for (int g = 0; g < net_.num_generators(); ++g) {
    const int bus = net_.generators[g].bus;
    jac_.rows.push_back(bus);
    jac_.cols.push_back(pg_col(g));
    jac_.rows.push_back(nb + bus);
    jac_.cols.push_back(qg_col(g));
  }
  // 2) Shunt terms: d c_P(i) / d vm_i and d c_Q(i) / d vm_i.
  for (int i = 0; i < nb; ++i) {
    jac_.rows.push_back(i);
    jac_.cols.push_back(vm_col(i));
    jac_.rows.push_back(nb + i);
    jac_.cols.push_back(vm_col(i));
  }
  // 3) Flow terms: each branch touches 4 balance rows x 4 columns.
  for (int l = 0; l < net_.num_branches(); ++l) {
    const auto& branch = net_.branches[l];
    const int cols[4] = {vm_col(branch.from), vm_col(branch.to), va_col(branch.from),
                         va_col(branch.to)};
    const int rows[4] = {branch.from, nb + branch.from, branch.to, nb + branch.to};
    for (const int row : rows) {
      for (const int col : cols) {
        jac_.rows.push_back(row);
        jac_.cols.push_back(col);
      }
    }
  }
  // 4) Line-limit rows.
  for (std::size_t r = 0; r < rated_branches_.size(); ++r) {
    const auto& branch = net_.branches[rated_branches_[r]];
    const int cols[4] = {vm_col(branch.from), vm_col(branch.to), va_col(branch.from),
                         va_col(branch.to)};
    for (int side = 0; side < 2; ++side) {
      for (const int col : cols) {
        jac_.rows.push_back(2 * nb + 1 + 2 * static_cast<int>(r) + side);
        jac_.cols.push_back(col);
      }
    }
  }
  // 5) Reference angle row.
  jac_.rows.push_back(2 * nb);
  jac_.cols.push_back(va_col(net_.ref_bus));

  hess_ = SparsityPattern{};
  // 1) Objective curvature on pg.
  for (int g = 0; g < net_.num_generators(); ++g) {
    hess_.rows.push_back(pg_col(g));
    hess_.cols.push_back(pg_col(g));
  }
  // 2) Shunt curvature on vm.
  for (int i = 0; i < nb; ++i) {
    hess_.rows.push_back(vm_col(i));
    hess_.cols.push_back(vm_col(i));
  }
  // 3) Branch blocks: lower triangle of the 4x4 voltage block.
  for (int l = 0; l < net_.num_branches(); ++l) {
    const auto& branch = net_.branches[l];
    const int gcol[4] = {vm_col(branch.from), vm_col(branch.to), va_col(branch.from),
                         va_col(branch.to)};
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b <= a; ++b) {
        hess_.rows.push_back(std::max(gcol[a], gcol[b]));
        hess_.cols.push_back(std::min(gcol[a], gcol[b]));
      }
    }
  }
}

const SparsityPattern& AcopfNlp::jacobian_pattern() const { return jac_; }

void AcopfNlp::eval_jacobian(std::span<const double> x, std::span<double> values) {
  require(values.size() == jac_.nnz(), "AcopfNlp::eval_jacobian: size mismatch");
  const int nb = net_.num_buses();
  std::size_t k = 0;
  for (int g = 0; g < net_.num_generators(); ++g) {
    values[k++] = 1.0;  // d c_P / d pg
    values[k++] = 1.0;  // d c_Q / d qg
  }
  for (int i = 0; i < nb; ++i) {
    const auto& bus = net_.buses[i];
    const double vm = x[vm_col(i)];
    values[k++] = -2.0 * bus.gs * vm;
    values[k++] = 2.0 * bus.bs * vm;
  }
  grid::FlowValues f;
  grid::FlowGradients jac;
  for (int l = 0; l < net_.num_branches(); ++l) {
    const auto& branch = net_.branches[l];
    grid::eval_flow_gradients(net_.admittances[l], x[vm_col(branch.from)], x[vm_col(branch.to)],
                              x[va_col(branch.from)], x[va_col(branch.to)], f, jac);
    // Rows in pattern order: cP(from) uses -pij, cQ(from) -qij, cP(to) -pji,
    // cQ(to) -qji; columns in flows.hpp order (vi, vj, ti, tj).
    const int flow_of_row[4] = {grid::kPij, grid::kQij, grid::kPji, grid::kQji};
    for (const int flow : flow_of_row) {
      for (int a = 0; a < 4; ++a) values[k++] = -jac.g[flow][a];
    }
  }
  for (const int l : rated_branches_) {
    const auto& branch = net_.branches[l];
    grid::eval_flow_gradients(net_.admittances[l], x[vm_col(branch.from)], x[vm_col(branch.to)],
                              x[va_col(branch.from)], x[va_col(branch.to)], f, jac);
    for (int a = 0; a < 4; ++a) {
      values[k++] = 2.0 * f[grid::kPij] * jac.g[grid::kPij][a] +
                    2.0 * f[grid::kQij] * jac.g[grid::kQij][a];
    }
    for (int a = 0; a < 4; ++a) {
      values[k++] = 2.0 * f[grid::kPji] * jac.g[grid::kPji][a] +
                    2.0 * f[grid::kQji] * jac.g[grid::kQji][a];
    }
  }
  values[k++] = 1.0;  // reference angle row
  require(k == jac_.nnz(), "AcopfNlp::eval_jacobian: fill mismatch");
}

const SparsityPattern& AcopfNlp::hessian_pattern() const { return hess_; }

void AcopfNlp::eval_hessian(std::span<const double> x, double sigma,
                            std::span<const double> lambda, std::span<double> values) {
  require(values.size() == hess_.nnz(), "AcopfNlp::eval_hessian: size mismatch");
  const int nb = net_.num_buses();
  std::size_t k = 0;
  for (int g = 0; g < net_.num_generators(); ++g) {
    values[k++] = 2.0 * sigma * net_.generators[g].c2;
  }
  for (int i = 0; i < nb; ++i) {
    const auto& bus = net_.buses[i];
    values[k++] = -2.0 * bus.gs * lambda[i] + 2.0 * bus.bs * lambda[nb + i];
  }
  // Line-limit row index per branch (or -1).
  std::vector<int> line_row(static_cast<std::size_t>(net_.num_branches()), -1);
  for (std::size_t r = 0; r < rated_branches_.size(); ++r) {
    line_row[rated_branches_[r]] = 2 * nb + 1 + 2 * static_cast<int>(r);
  }
  grid::FlowValues f;
  grid::FlowGradients jac;
  for (int l = 0; l < net_.num_branches(); ++l) {
    const auto& branch = net_.branches[l];
    grid::eval_flow_gradients(net_.admittances[l], x[vm_col(branch.from)], x[vm_col(branch.to)],
                              x[va_col(branch.from)], x[va_col(branch.to)], f, jac);
    const double lam_ij = line_row[l] >= 0 ? lambda[line_row[l]] : 0.0;
    const double lam_ji = line_row[l] >= 0 ? lambda[line_row[l] + 1] : 0.0;
    // Curvature weights: balance rows contribute -lambda * H(flow); line
    // rows contribute lambda * H(p^2+q^2) = lambda * (2 J J^T + 2p H_p + ...).
    std::array<double, 4> w{};
    w[grid::kPij] = -lambda[branch.from] + 2.0 * lam_ij * f[grid::kPij];
    w[grid::kQij] = -lambda[nb + branch.from] + 2.0 * lam_ij * f[grid::kQij];
    w[grid::kPji] = -lambda[branch.to] + 2.0 * lam_ji * f[grid::kPji];
    w[grid::kQji] = -lambda[nb + branch.to] + 2.0 * lam_ji * f[grid::kQji];
    double block[16] = {0};
    grid::accumulate_flow_hessian(net_.admittances[l], x[vm_col(branch.from)],
                                  x[vm_col(branch.to)], x[va_col(branch.from)],
                                  x[va_col(branch.to)], w, block);
    if (line_row[l] >= 0) {
      for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
          block[a * 4 + b] += 2.0 * lam_ij * (jac.g[grid::kPij][a] * jac.g[grid::kPij][b] +
                                              jac.g[grid::kQij][a] * jac.g[grid::kQij][b]);
          block[a * 4 + b] += 2.0 * lam_ji * (jac.g[grid::kPji][a] * jac.g[grid::kPji][b] +
                                              jac.g[grid::kQji][a] * jac.g[grid::kQji][b]);
        }
      }
    }
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b <= a; ++b) values[k++] = block[a * 4 + b];
    }
  }
  require(k == hess_.nnz(), "AcopfNlp::eval_hessian: fill mismatch");
}

void AcopfNlp::set_loads(std::span<const double> pd, std::span<const double> qd) {
  require(static_cast<int>(pd.size()) == net_.num_buses() &&
              static_cast<int>(qd.size()) == net_.num_buses(),
          "AcopfNlp::set_loads: size mismatch");
  for (int i = 0; i < net_.num_buses(); ++i) {
    net_.buses[i].pd = pd[i];
    net_.buses[i].qd = qd[i];
  }
}

void AcopfNlp::set_pg_bounds(std::span<const double> pmin, std::span<const double> pmax) {
  require(static_cast<int>(pmin.size()) == net_.num_generators() &&
              static_cast<int>(pmax.size()) == net_.num_generators(),
          "AcopfNlp::set_pg_bounds: size mismatch");
  for (int g = 0; g < net_.num_generators(); ++g) {
    net_.generators[g].pmin = pmin[g];
    net_.generators[g].pmax = pmax[g];
  }
}

grid::OpfSolution AcopfNlp::unpack(std::span<const double> x) const {
  grid::OpfSolution sol = grid::OpfSolution::zeros(net_);
  for (int i = 0; i < net_.num_buses(); ++i) {
    sol.vm[i] = x[vm_col(i)];
    sol.va[i] = x[va_col(i)];
  }
  for (int g = 0; g < net_.num_generators(); ++g) {
    sol.pg[g] = x[pg_col(g)];
    sol.qg[g] = x[qg_col(g)];
  }
  return sol;
}

}  // namespace gridadmm::ipm
