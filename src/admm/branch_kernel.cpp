#include "admm/branch_kernel.hpp"

#include <algorithm>
#include <cmath>

namespace gridadmm::admm {

namespace {

void accumulate(BranchUpdateStats& stats, const tron::TronResult& result) {
  stats.tron_iterations += result.iterations;
  stats.cg_iterations += result.cg_iterations;
  stats.function_evals += result.function_evals;
  if (result.status == tron::TronStatus::kLineSearchFailed) ++stats.failures;
}

/// One lockstep TRON solve of the `live` lanes of branch group `problem`
/// from x.
template <int N, int W>
void run_tron(BranchWorkspace& ws, BranchLanes<W>& problem, tron::Lanes<W> (&x)[N],
              const tron::LaneMask<W>& live, int (&lane_tron)[W]) {
  const tron::LockstepResult<W> result =
      ws.solvers<W>().template solver<N>().minimize(problem, x, live);
  for (int j = 0; j < W; ++j) {
    if (!live[j]) continue;
    accumulate(ws.stats, result.lane[j]);
    lane_tron[j] += result.lane[j].iterations;
  }
  ws.stats.live_lane_passes += result.live_lanes;
  ws.stats.lane_passes += static_cast<std::int64_t>(W) * result.passes;
}

/// branch_update_lanes for a branch of dimension N (4 unrated, 6 rated).
template <int N, int W>
void update_group(const ModelView& m, const AdmmParams& params,
                  std::span<const ScenarioView* const> lanes, int l, BranchWorkspace& ws,
                  int* lane_tron) {
  constexpr bool kRated = N == 6;
  BranchLanes<W>& problem = ws.solvers<W>().problem;
  const auto base = static_cast<std::size_t>(branch_pair_base(m.num_gens, l));
  const auto xrow = 4 * static_cast<std::size_t>(l);
  const auto srow = 2 * static_cast<std::size_t>(l);
  const int n = static_cast<int>(lanes.size());

  // Gather each in-service lane's consensus data and start point.
  tron::LaneMask<W> live;
  tron::Lanes<W> x[N] = {};
  double lam_ij[W] = {}, lam_ji[W] = {}, rho_t[W] = {}, eta[W] = {};
  for (int j = 0; j < n; ++j) {
    const ScenarioView& s = *lanes[static_cast<std::size_t>(j)];
    if (s.branch_active[l] == 0) continue;  // outage
    live.set(j, true);
    double d[8], yk[8], rhok[8];
    for (std::size_t k = 0; k < 8; ++k) {
      d[k] = s.z[base + k] - s.v[base + k];
      yk[k] = s.y[base + k];
      rhok[k] = m.rho[base + k];
    }
    problem.bind(j, m.adm + 8 * l, m.vbound + 4 * l, m.rate2[l], d, yk, rhok);
    for (std::size_t a = 0; a < 4; ++a) x[a].set(j, s.branch_x[xrow + a]);
    if constexpr (kRated) {
      x[4].set(j, s.branch_s[srow]);
      x[5].set(j, s.branch_s[srow + 1]);
      lam_ij[j] = s.branch_lambda[srow];
      lam_ji[j] = s.branch_lambda[srow + 1];
      rho_t[j] = params.auglag_rho0 * std::max(rhok[0], 1.0);
      eta[j] = std::pow(rho_t[j], -0.1);
    }
  }
  if (!live.any()) return;

  int tron_iters[W] = {};
  tron::Lanes<W> flows[4] = {};
  if constexpr (!kRated) {
    run_tron(ws, problem, x, live, tron_iters);
    problem.eval_flows(x, live, flows);
  } else {
    // Augmented-Lagrangian loop on the line limits, in lockstep: each
    // lane leaves when its violation reaches auglag_eta. Every exit follows
    // a constraint evaluation at the lane's final x, so `flows` ends up
    // holding each lane's flows at its solution.
    tron::LaneMask<W> active = live;
    for (int al = 0; al < params.auglag_max_iterations && active.any(); ++al) {
      for (int j = 0; j < W; ++j) {
        if (!active[j]) continue;
        ++ws.stats.auglag_iterations;
        problem.set_line_multipliers(j, lam_ij[j], lam_ji[j], rho_t[j]);
      }
      run_tron(ws, problem, x, active, tron_iters);
      problem.eval_flows(x, active, flows);
      for (int j = 0; j < W; ++j) {
        if (!active[j]) continue;
        const double cij = flows[grid::kPij][j] * flows[grid::kPij][j] +
                           flows[grid::kQij][j] * flows[grid::kQij][j] + x[4][j];
        const double cji = flows[grid::kPji][j] * flows[grid::kPji][j] +
                           flows[grid::kQji][j] * flows[grid::kQji][j] + x[5][j];
        const double viol = std::max(std::abs(cij), std::abs(cji));
        if (viol <= eta[j]) {
          lam_ij[j] += rho_t[j] * cij;
          lam_ji[j] += rho_t[j] * cji;
          if (viol <= params.auglag_eta) {
            active.set(j, false);
            continue;
          }
          eta[j] = std::max(params.auglag_eta, eta[j] * std::pow(rho_t[j], -0.9));
        } else {
          rho_t[j] = std::min(rho_t[j] * 10.0, params.auglag_rho_max);
          eta[j] = std::max(params.auglag_eta, std::pow(rho_t[j], -0.1));
        }
      }
    }
  }

  // Scatter: branch variables, multipliers, and the consensus u-values.
  for (int j = 0; j < n; ++j) {
    if (!live[j]) continue;
    const ScenarioView& s = *lanes[static_cast<std::size_t>(j)];
    if constexpr (kRated) {
      s.branch_lambda[srow] = lam_ij[j];
      s.branch_lambda[srow + 1] = lam_ji[j];
      s.branch_s[srow] = x[4][j];
      s.branch_s[srow + 1] = x[5][j];
    }
    for (std::size_t a = 0; a < 4; ++a) s.branch_x[xrow + a] = x[a][j];
    s.u[base + kPairPij] = flows[grid::kPij][j];
    s.u[base + kPairQij] = flows[grid::kQij][j];
    s.u[base + kPairPji] = flows[grid::kPji][j];
    s.u[base + kPairQji] = flows[grid::kQji][j];
    s.u[base + kPairWi] = x[0][j] * x[0][j];
    s.u[base + kPairThi] = x[2][j];
    s.u[base + kPairWj] = x[1][j] * x[1][j];
    s.u[base + kPairThj] = x[3][j];
    if (lane_tron != nullptr) lane_tron[j] = tron_iters[j];
  }
}

}  // namespace

template <int W>
void branch_update_lanes(const ModelView& m, const AdmmParams& params,
                         std::span<const ScenarioView* const> lanes, int l, BranchWorkspace& ws,
                         int* lane_tron) {
  if (m.rate2[l] > 0.0) {
    update_group<6, W>(m, params, lanes, l, ws, lane_tron);
  } else {
    update_group<4, W>(m, params, lanes, l, ws, lane_tron);
  }
}

template void branch_update_lanes<1>(const ModelView&, const AdmmParams&,
                                     std::span<const ScenarioView* const>, int, BranchWorkspace&,
                                     int*);
template void branch_update_lanes<kBranchLanes>(const ModelView&, const AdmmParams&,
                                                std::span<const ScenarioView* const>, int,
                                                BranchWorkspace&, int*);

void ensure_branch_lanes(std::vector<BranchWorkspace>& lanes, int workers,
                         const AdmmParams& params) {
  if (lanes.size() != static_cast<std::size_t>(workers)) {
    lanes = std::vector<BranchWorkspace>(static_cast<std::size_t>(workers));
  }
  // Rebinding every call is a few scalar copies; it keeps later changes to
  // params.tron (solvers are reused across solves) from going stale.
  for (auto& lane : lanes) lane.bind_options(params.tron);
}

}  // namespace gridadmm::admm
