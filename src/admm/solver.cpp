#include "admm/solver.hpp"

#include <algorithm>
#include <cmath>

#include "admm/step_kernels.hpp"
#include "common/error.hpp"
#include "common/numeric.hpp"
#include "common/timer.hpp"
#include "grid/flows.hpp"

namespace gridadmm::admm {

AdmmSolver::AdmmSolver(grid::Network net, AdmmParams params, device::Device* dev)
    : net_(std::move(net)),
      params_(params),
      dev_(dev != nullptr ? dev : &device::default_device()),
      model_(build_component_model(net_, params_)),
      state_(BatchAdmmState::single(model_, net_)) {
  require_positive_budgets(params_, "AdmmSolver");
  cold_start();
}

ColdStartTemplate make_cold_start(const grid::Network& net, const ComponentModel& model) {
  const int nb = net.num_buses();
  const int ng = net.num_generators();
  const int nl = net.num_branches();

  ColdStartTemplate t;
  t.u.assign(static_cast<std::size_t>(model.num_pairs), 0.0);
  t.pg.resize(static_cast<std::size_t>(ng));
  t.qg.resize(static_cast<std::size_t>(ng));
  for (int g = 0; g < ng; ++g) {
    const auto& gen = net.generators[g];
    t.pg[g] = 0.5 * (gen.pmin + gen.pmax);
    t.qg[g] = 0.5 * (gen.qmin + gen.qmax);
    t.u[gen_pair_base(g)] = t.pg[g];
    t.u[gen_pair_base(g) + 1] = t.qg[g];
  }
  t.w.resize(static_cast<std::size_t>(nb));
  t.theta.assign(static_cast<std::size_t>(nb), 0.0);
  for (int i = 0; i < nb; ++i) {
    const double vm = 0.5 * (net.buses[i].vmin + net.buses[i].vmax);
    t.w[i] = vm * vm;
  }
  t.branch_x.resize(static_cast<std::size_t>(4 * nl));
  t.branch_s.assign(static_cast<std::size_t>(2 * nl), 0.0);
  const auto rate2 = model.br_rate2.to_host();
  for (int l = 0; l < nl; ++l) {
    const auto& branch = net.branches[l];
    const double vi = std::sqrt(t.w[branch.from]);
    const double vj = std::sqrt(t.w[branch.to]);
    t.branch_x[4 * l + 0] = vi;
    t.branch_x[4 * l + 1] = vj;
    t.branch_x[4 * l + 2] = 0.0;
    t.branch_x[4 * l + 3] = 0.0;
    const auto f = grid::eval_flows(net.admittances[l], vi, vj, 0.0, 0.0);
    const int base = branch_pair_base(ng, l);
    t.u[base + kPairPij] = f[grid::kPij];
    t.u[base + kPairQij] = f[grid::kQij];
    t.u[base + kPairPji] = f[grid::kPji];
    t.u[base + kPairQji] = f[grid::kQji];
    t.u[base + kPairWi] = vi * vi;
    t.u[base + kPairThi] = 0.0;
    t.u[base + kPairWj] = vj * vj;
    t.u[base + kPairThj] = 0.0;
    if (rate2[l] > 0.0) {
      const double sij = f[grid::kPij] * f[grid::kPij] + f[grid::kQij] * f[grid::kQij];
      const double sji = f[grid::kPji] * f[grid::kPji] + f[grid::kQji] * f[grid::kQji];
      t.branch_s[2 * l] = std::clamp(-sij, -rate2[l], 0.0);
      t.branch_s[2 * l + 1] = std::clamp(-sji, -rate2[l], 0.0);
    }
  }
  return t;
}

void AdmmSolver::cold_start() {
  const ColdStartTemplate t = make_cold_start(net_, model_);
  const auto& u = t.u;
  const auto& w = t.w;
  const auto& theta = t.theta;
  const auto& pg = t.pg;
  const auto& qg = t.qg;
  const auto& bx = t.branch_x;
  const auto& bs = t.branch_s;

  state_.u.upload(u);
  state_.v.upload(u);  // bus copies start consistent with the x side
  state_.z.fill(0.0);
  state_.y.fill(0.0);
  state_.lz.fill(0.0);
  state_.bus_w.upload(w);
  state_.bus_theta.upload(theta);
  state_.gen_pg.upload(pg);
  state_.gen_qg.upload(qg);
  state_.branch_x.upload(bx);
  state_.branch_s.upload(bs);
  state_.branch_lambda.fill(0.0);
  beta_ = params_.beta0;
}

WarmStartIterate AdmmSolver::export_iterate() const {
  return state_.export_slot(model_, 0, beta_);
}

void AdmmSolver::import_iterate(const WarmStartIterate& it) {
  require_matches(it, model_, "AdmmSolver::import_iterate");
  state_.u.upload(it.u);
  state_.v.upload(it.v);
  state_.z.upload(it.z);
  state_.y.upload(it.y);
  state_.lz.upload(it.lz);
  state_.bus_w.upload(it.bus_w);
  state_.bus_theta.upload(it.bus_theta);
  state_.gen_pg.upload(it.gen_pg);
  state_.gen_qg.upload(it.gen_qg);
  state_.branch_x.upload(it.branch_x);
  state_.branch_s.upload(it.branch_s);
  state_.branch_lambda.upload(it.branch_lambda);
  beta_ = std::max(it.beta, params_.beta0);
}

void AdmmSolver::prepare_warm_start() {
  // Keep the escalated outer penalty: the kept multiplier lz was accumulated
  // against it, and re-shrinking beta would let the z-update throw the
  // near-feasible iterate far from z = 0 (observed to roughly double the
  // warm-start iteration count). Only ensure beta is at least beta0.
  beta_ = std::max(beta_, params_.beta0);
}

AdmmStats AdmmSolver::solve() {
  WallTimer timer;
  LoopControl control(params_, beta_, record_history_, net_.name);
  AdmmStats& stats = control.stats();
  // One scenario: the step launchers run over the view of slot 0.
  const ModelView m = make_model_view(model_);
  ScenarioView view = state_.view(model_, 0);
  view.beta = beta_;
  const std::span<const ScenarioView> views(&view, 1);
  const int slots[] = {0};
  const int lanes = dev_->workers();
  const int row = reduce_row_stride(1);
  std::vector<double> partial_primal(static_cast<std::size_t>(lanes * row), 0.0);
  std::vector<double> partial_dual(static_cast<std::size_t>(lanes * row), 0.0);
  std::vector<double> partial_z(static_cast<std::size_t>(lanes * row), 0.0);
  const auto collect = [lanes, row](std::span<const double> partial) {
    return collect_slot_max(partial, 0, row, lanes);
  };

  for (;;) {
    update_x(*dev_, m, params_, views, slots, branch_lanes_, &stats.branch);
    update_v(*dev_, m, params_.two_level, views, slots, partial_primal, partial_dual, partial_z,
             row);
    const auto next = control.end_inner(collect(partial_primal), collect(partial_dual));
    if (next == LoopControl::Next::kInner) continue;
    if (next == LoopControl::Next::kRetire) break;
    const bool more = control.end_outer(collect(partial_z));
    update_outer_multiplier(*dev_, m, views, slots, params_.lambda_bound);
    beta_ = control.beta();
    view.beta = beta_;
    if (!more) break;
  }

  stats.solve_seconds = timer.seconds();
  return std::move(stats);
}

grid::OpfSolution AdmmSolver::solution() const {
  return to_solution(net_, state_.bus_w.to_host(), state_.bus_theta.to_host(),
                     state_.gen_pg.to_host(), state_.gen_qg.to_host());
}

void AdmmSolver::set_loads(std::span<const double> pd, std::span<const double> qd) {
  require_valid(static_cast<int>(pd.size()) == net_.num_buses() &&
                    static_cast<int>(qd.size()) == net_.num_buses(),
                "AdmmSolver::set_loads: size mismatch");
  require_valid(all_finite(pd) && all_finite(qd), "AdmmSolver::set_loads: non-finite load");
  state_.pd.upload(pd);
  state_.qd.upload(qd);
  for (int i = 0; i < net_.num_buses(); ++i) {
    net_.buses[i].pd = pd[i];
    net_.buses[i].qd = qd[i];
  }
}

void AdmmSolver::set_generator_pg_bounds(std::span<const double> pmin,
                                         std::span<const double> pmax) {
  require_valid(static_cast<int>(pmin.size()) == net_.num_generators() &&
                    static_cast<int>(pmax.size()) == net_.num_generators(),
                "AdmmSolver::set_generator_pg_bounds: size mismatch");
  require_valid(all_finite(pmin) && all_finite(pmax),
                "AdmmSolver::set_generator_pg_bounds: non-finite bound");
  state_.pmin.upload(pmin);
  state_.pmax.upload(pmax);
}

}  // namespace gridadmm::admm
