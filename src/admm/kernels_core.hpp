// Per-component ADMM update math, shared between the single-scenario
// kernels (generator_kernel.cpp, bus_kernel.cpp, zy_kernel.cpp) and the
// fused multi-scenario batch kernels (src/scenario/batch_kernels.cpp).
//
// The updates are expressed over two raw-pointer views:
//   - ModelView: problem data shared by every scenario (topology, costs,
//     admittances, adjacency, per-pair penalties rho);
//   - ScenarioView: one scenario's iterate plus the data that may differ
//     per scenario (loads, pg bounds, branch-outage mask, outer penalty).
// A single-scenario solve is simply a ScenarioView over AdmmState with the
// model's own load/bound buffers; a batched solve points each view at one
// scenario's contiguous slices of a BatchAdmmState. Keeping one copy of the
// math guarantees the fused batch solve is iterate-for-iterate identical to
// S independent solver runs.
//
// Residual slots are NaN-sticky: a NaN delta overwrites the slot (a plain
// `delta > *slot` is false for NaN and would drop it), so a non-finite
// iterate reaches the loop controller's trap instead of "converging".
#pragma once

#include <algorithm>
#include <cmath>

#include "admm/component_model.hpp"
#include "admm/state.hpp"

namespace gridadmm::admm {

/// Raw-pointer view of the scenario-invariant model data.
struct ModelView {
  int num_buses = 0;
  int num_gens = 0;
  int num_branches = 0;
  int num_pairs = 0;
  const double* rho = nullptr;  ///< per-pair penalty (Table I)
  const double* qmin = nullptr;
  const double* qmax = nullptr;
  const double* c2 = nullptr;
  const double* c1 = nullptr;
  const double* gs = nullptr;
  const double* bs = nullptr;
  const int* gen_ptr = nullptr;
  const int* gen_list = nullptr;
  const int* adj_ptr = nullptr;
  const int* adj_kp = nullptr;
  const double* adm = nullptr;
  const double* vbound = nullptr;
  const double* rate2 = nullptr;
};

inline ModelView make_model_view(const ComponentModel& m) {
  ModelView v;
  v.num_buses = m.num_buses;
  v.num_gens = m.num_gens;
  v.num_branches = m.num_branches;
  v.num_pairs = m.num_pairs;
  v.rho = m.rho.data();
  v.qmin = m.gen_qmin.data();
  v.qmax = m.gen_qmax.data();
  v.c2 = m.gen_c2.data();
  v.c1 = m.gen_c1.data();
  v.gs = m.bus_gs.data();
  v.bs = m.bus_bs.data();
  v.gen_ptr = m.bus_gen_ptr.data();
  v.gen_list = m.bus_gen_list.data();
  v.adj_ptr = m.bus_adj_ptr.data();
  v.adj_kp = m.bus_adj_kp.data();
  v.adm = m.br_adm.data();
  v.vbound = m.br_vbound.data();
  v.rate2 = m.br_rate2.data();
  return v;
}

/// Raw-pointer view of one scenario's iterate and per-scenario data. Every
/// per-scenario array is contiguous: element k of an array sits at [k]
/// past its view pointer, for the single-scenario state and for a batch
/// slot alike.
struct ScenarioView {
  // Mutable iterate (device-resident).
  double* u = nullptr;
  double* v = nullptr;
  double* z = nullptr;
  double* y = nullptr;
  double* lz = nullptr;
  double* bus_w = nullptr;
  double* bus_theta = nullptr;
  double* gen_pg = nullptr;
  double* gen_qg = nullptr;
  double* branch_x = nullptr;
  double* branch_s = nullptr;
  double* branch_lambda = nullptr;
  // Per-scenario problem data.
  const double* pd = nullptr;
  const double* qd = nullptr;
  const double* pmin = nullptr;
  const double* pmax = nullptr;
  /// In-service flags, one per branch; nullptr = every branch in service.
  const unsigned char* branch_active = nullptr;
  double beta = 0.0;  ///< outer penalty on z = 0
};

/// Binds the single-scenario state as a view (the model's own load/bound
/// buffers double as the per-scenario data).
inline ScenarioView make_scenario_view(const ComponentModel& m, AdmmState& s) {
  ScenarioView v;
  v.u = s.u.data();
  v.v = s.v.data();
  v.z = s.z.data();
  v.y = s.y.data();
  v.lz = s.lz.data();
  v.bus_w = s.bus_w.data();
  v.bus_theta = s.bus_theta.data();
  v.gen_pg = s.gen_pg.data();
  v.gen_qg = s.gen_qg.data();
  v.branch_x = s.branch_x.data();
  v.branch_s = s.branch_s.data();
  v.branch_lambda = s.branch_lambda.data();
  v.pd = m.bus_pd.data();
  v.qd = m.bus_qd.data();
  v.pmin = m.gen_pmin.data();
  v.pmax = m.gen_pmax.data();
  v.branch_active = nullptr;
  v.beta = s.beta;
  return v;
}

/// True when consensus pair k belongs to an in-service component. Generator
/// pairs are always active; branch pairs follow the outage mask.
inline bool pair_active(const ModelView& m, const ScenarioView& s, int k) {
  if (s.branch_active == nullptr || k < 2 * m.num_gens) return true;
  return s.branch_active[(k - 2 * m.num_gens) / 8] != 0;
}

/// Closed-form generator dispatch update (one device block per generator).
inline void generator_update_one(const ModelView& m, const ScenarioView& s, int g) {
  const int kp = gen_pair_base(g);
  const int kq = kp + 1;
  // Stationarity: (2 c2 + rho) pg = rho (v - z) - y - c1, then clamp.
  const double p_star =
      (m.rho[kp] * (s.v[kp] - s.z[kp]) - s.y[kp] - m.c1[g]) / (2.0 * m.c2[g] + m.rho[kp]);
  const double q_star = (m.rho[kq] * (s.v[kq] - s.z[kq]) - s.y[kq]) / m.rho[kq];
  const double p = std::clamp(p_star, s.pmin[g], s.pmax[g]);
  const double q = std::clamp(q_star, m.qmin[g], m.qmax[g]);
  s.gen_pg[g] = p;
  s.gen_qg[g] = q;
  s.u[kp] = p;
  s.u[kq] = q;
}

/// Closed-form bus update (paper eq. (7)), one device block per bus.
/// `dual_slot`, when non-null, accumulates max_k |v_k - v_k^prev| for the
/// caller's per-lane partial reduction.
inline void bus_update_one(const ModelView& m, const ScenarioView& s, int i, double* dual_slot) {
  // The proximal targets are m_k = u_k + z_k + y_k / rho_k: each duplicate
  // v_k minimizes rho_k/2 (v_k - m_k)^2 subject to the two balance rows.
  auto rho_at = [&](int k) { return m.rho[k]; };
  auto target = [&](int k) { return s.u[k] + s.z[k] + s.y[k] / m.rho[k]; };
  auto assign_v = [&](int k, double value) {
    if (dual_slot != nullptr) {
      // Penalty-normalized dual residual |v - v_prev| (Boyd's scaled
      // form): comparable across rho presets and directly meaningful in
      // per-unit terms.
      const double delta = std::abs(value - s.v[k]);
      if (delta > *dual_slot || std::isnan(delta)) *dual_slot = delta;
    }
    s.v[k] = value;
  };

  double q_w = 0.0, c_w = 0.0;    // accumulated weight / linear term of w_i
  double q_th = 0.0, c_th = 0.0;  // same for theta_i
  double s_pp = 0.0, s_qq = 0.0;  // A Q^-1 A^T entries
  double aqc_p = 0.0, aqc_q = 0.0;  // A Q^-1 c entries

  for (int e = m.gen_ptr[i]; e < m.gen_ptr[i + 1]; ++e) {
    const int kp = gen_pair_base(m.gen_list[e]);
    const int kq = kp + 1;
    s_pp += 1.0 / rho_at(kp);
    aqc_p += target(kp);
    s_qq += 1.0 / rho_at(kq);
    aqc_q += target(kq);
  }
  for (int e = m.adj_ptr[i]; e < m.adj_ptr[i + 1]; ++e) {
    const int kp = m.adj_kp[e];
    if (!pair_active(m, s, kp)) continue;  // branch out of service
    const int kq = kp + 1;
    const int kw = kp + 4;
    const int kth = kp + 5;
    s_pp += 1.0 / rho_at(kp);
    aqc_p -= target(kp);  // flow copies enter the P row with coefficient -1
    s_qq += 1.0 / rho_at(kq);
    aqc_q -= target(kq);
    q_w += rho_at(kw);
    c_w += rho_at(kw) * target(kw);
    q_th += rho_at(kth);
    c_th += rho_at(kth) * target(kth);
  }

  // w_i carries the shunt terms: coefficient -gs in the P row, +bs in Q.
  double s_pq = 0.0;
  if (q_w > 0.0) {
    s_pp += m.gs[i] * m.gs[i] / q_w;
    s_qq += m.bs[i] * m.bs[i] / q_w;
    s_pq = -m.gs[i] * m.bs[i] / q_w;
    aqc_p += -m.gs[i] * (c_w / q_w);
    aqc_q += m.bs[i] * (c_w / q_w);
  }

  const double rhs_p = aqc_p - s.pd[i];
  const double rhs_q = aqc_q - s.qd[i];
  const double det = s_pp * s_qq - s_pq * s_pq;
  const double mu_p = (s_qq * rhs_p - s_pq * rhs_q) / det;
  const double mu_q = (s_pp * rhs_q - s_pq * rhs_p) / det;

  const double w = q_w > 0.0 ? (c_w + m.gs[i] * mu_p - m.bs[i] * mu_q) / q_w : 1.0;
  const double theta = q_th > 0.0 ? c_th / q_th : 0.0;
  s.bus_w[i] = w;
  s.bus_theta[i] = theta;

  for (int e = m.gen_ptr[i]; e < m.gen_ptr[i + 1]; ++e) {
    const int kp = gen_pair_base(m.gen_list[e]);
    const int kq = kp + 1;
    assign_v(kp, target(kp) - mu_p / rho_at(kp));
    assign_v(kq, target(kq) - mu_q / rho_at(kq));
  }
  for (int e = m.adj_ptr[i]; e < m.adj_ptr[i + 1]; ++e) {
    const int kp = m.adj_kp[e];
    if (!pair_active(m, s, kp)) continue;
    assign_v(kp, target(kp) + mu_p / rho_at(kp));
    assign_v(kp + 1, target(kp + 1) + mu_q / rho_at(kp + 1));
    assign_v(kp + 4, w);
    assign_v(kp + 5, theta);
  }
}

/// Fused z+y update for one pair (paper eqs. (6) and (8)). When `two_level`
/// is false, z stays frozen (one-level ADMM). `slot_primal` / `slot_z`
/// accumulate ||u - v + z||_inf and ||z||_inf partial maxima.
inline void zy_update_one(const ModelView& m, const ScenarioView& s, int k, bool two_level,
                          double* slot_primal, double* slot_z) {
  if (!pair_active(m, s, k)) return;  // outaged pairs stay at zero
  const double r = s.u[k] - s.v[k];
  if (two_level) {
    s.z[k] = -(s.lz[k] + s.y[k] + m.rho[k] * r) / (s.beta + m.rho[k]);
  }
  const double rz = r + s.z[k];
  s.y[k] += m.rho[k] * rz;
  if (std::abs(rz) > *slot_primal || std::isnan(rz)) *slot_primal = std::abs(rz);
  if (std::abs(s.z[k]) > *slot_z || std::isnan(s.z[k])) *slot_z = std::abs(s.z[k]);
}

/// Outer multiplier update lambda <- clamp(lambda + beta z) (projection (8)).
inline void outer_multiplier_update_one(const ModelView& m, const ScenarioView& s, int k,
                                        double lambda_bound) {
  if (!pair_active(m, s, k)) return;
  s.lz[k] = std::clamp(s.lz[k] + s.beta * s.z[k], -lambda_bound, lambda_bound);
}

}  // namespace gridadmm::admm
