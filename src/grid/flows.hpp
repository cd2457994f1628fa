// Branch power flow functions of the paper's formulation (1i)-(1l), in
// polar voltage coordinates, with analytic first and second derivatives.
//
// With theta = ti - tj, wi = vi^2, wR = vi vj cos(theta), wI = vi vj
// sin(theta), every flow has the generic form
//     F = alpha * v_side^2 + vi * vj * (A cos(theta) + B sin(theta)),
// which is what eval/gradient/Hessian exploit below:
//     pij =  gii wi + gij wR + bij wI
//     qij = -bii wi - bij wR + gij wI
//     pji =  gjj wj + gji wR - bji wI
//     qji = -bjj wj - bji wR - gji wI
//
// The variable order for gradients and Hessians is (vi, vj, ti, tj).
// This module is the single source of truth for these derivatives; both the
// ADMM branch kernel (lane-wise, through the templates at the end) and the
// interior-point baseline build on it, and the finite-difference property
// tests in tests/test_flows.cpp guard it.
#pragma once

#include <array>
#include <cmath>

#include "grid/network.hpp"

namespace gridadmm::grid {

/// Flow identifiers; also indices into FlowValues/weights arrays.
enum FlowIndex : int { kPij = 0, kQij = 1, kPji = 2, kQji = 3 };

struct FlowValues {
  std::array<double, 4> f{};  ///< pij, qij, pji, qji
  double operator[](int i) const { return f[i]; }
};

/// Gradient of each flow with respect to (vi, vj, ti, tj).
struct FlowGradients {
  std::array<std::array<double, 4>, 4> g{};  ///< g[flow][var]
};

/// Evaluates the four branch flows at voltage state (vi, vj, ti, tj).
FlowValues eval_flows(const BranchAdmittance& y, double vi, double vj, double ti, double tj);

/// Evaluates flows and their gradients.
void eval_flow_gradients(const BranchAdmittance& y, double vi, double vj, double ti, double tj,
                         FlowValues& values, FlowGradients& grads);

/// Accumulates sum_f w[f] * Hessian(flow_f) into the symmetric 4x4 matrix
/// `h` (row-major, full storage, += semantics).
void accumulate_flow_hessian(const BranchAdmittance& y, double vi, double vj, double ti,
                             double tj, const std::array<double, 4>& w, double h[16]);

// ---- The generic form, over any value type ----
//
// The entry points above evaluate one branch in doubles. The templates
// below are the one copy of the math behind them, written over a value
// type T: double here, tron::Lanes<W> in the ADMM branch kernel, which
// evaluates W branch problems lane by lane with the same expressions
// (admm::BranchLanes). T needs + - * with T and with double, unary -, and
// T(double); a select(mask, a, b) found by argument-dependent lookup for
// non-double T. Declared inline: the branch kernel runs them on every TRON
// evaluation, where a call per evaluation is measurable.

/// Coefficients of the generic flow form F = alpha v_side^2 + vi vj K(theta),
/// K = a cos(theta) + b sin(theta), per flow: kPij and kQij take vi^2,
/// kPji and kQji vj^2.
template <typename T>
struct FlowForm {
  T alpha[4], a[4], b[4];
};

inline FlowForm<double> flow_form(const BranchAdmittance& y) {
  return {{y.gii, -y.bii, y.gjj, -y.bjj},
          {y.gij, -y.bij, y.gji, -y.bji},
          {y.bij, y.gij, -y.bji, -y.gji}};
}

/// Trigonometric state of one evaluation point: cos/sin of the angle
/// difference and the voltage product. Every flow derivative is built from
/// these three values, so a caller evaluating flows, gradients and
/// Hessians at one point pays for the sin/cos once.
template <typename T>
struct FlowTrig {
  T c, s, vv;  ///< cos(ti - tj), sin(ti - tj), vi * vj
};

inline FlowTrig<double> flow_trig(double vi, double vj, double ti, double tj) {
  return {std::cos(ti - tj), std::sin(ti - tj), vi * vj};
}

namespace detail {
/// `m ? a : b` for double; lane types provide their own by ADL.
inline double select(bool m, double a, double b) { return m ? a : b; }
}  // namespace detail

/// values[f] = F_f at the point.
template <typename T, typename Values>
inline void flow_values(const FlowForm<T>& k, const T& vi, const T& vj, const FlowTrig<T>& trig,
                 Values& values) {
  for (int flow = 0; flow < 4; ++flow) {
    const T& vside = flow < 2 ? vi : vj;
    values[flow] = k.alpha[flow] * vside * vside +
                   trig.vv * (k.a[flow] * trig.c + k.b[flow] * trig.s);
  }
}

/// Flow values and gradients with respect to (vi, vj, ti, tj):
/// grads[flow][var].
template <typename T, typename Values, typename Grads>
inline void flow_gradients(const FlowForm<T>& k, const T& vi, const T& vj, const FlowTrig<T>& trig,
                    Values& values, Grads& grads) {
  for (int flow = 0; flow < 4; ++flow) {
    const bool side_i = flow < 2;
    const T kk = k.a[flow] * trig.c + k.b[flow] * trig.s;   // K(theta)
    const T kp = -k.a[flow] * trig.s + k.b[flow] * trig.c;  // K'(theta)
    const T& vside = side_i ? vi : vj;
    values[flow] = k.alpha[flow] * vside * vside + trig.vv * kk;
    grads[flow][0] = (side_i ? 2.0 * k.alpha[flow] * vi : T(0.0)) + vj * kk;  // d/dvi
    grads[flow][1] = (side_i ? T(0.0) : 2.0 * k.alpha[flow] * vj) + vi * kk;  // d/dvj
    grads[flow][2] = trig.vv * kp;                                             // d/dti
    grads[flow][3] = -trig.vv * kp;                                            // d/dtj
  }
}

/// Accumulates sum_f w[f] * Hessian(F_f) into the symmetric 4x4 matrix `h`
/// (row-major, 16 entries, += semantics). A flow with zero weight adds
/// nothing (not even a signed zero).
template <typename T, typename Weights, typename Hess>
inline void add_flow_hessian(const FlowForm<T>& k, const T& vi, const T& vj, const FlowTrig<T>& trig,
                      const Weights& w, Hess& h) {
  using detail::select;
  for (int flow = 0; flow < 4; ++flow) {
    const bool side_i = flow < 2;
    const T& wf = w[flow];
    const auto weighted = wf != 0.0;
    const T kk = k.a[flow] * trig.c + k.b[flow] * trig.s;
    const T kp = -k.a[flow] * trig.s + k.b[flow] * trig.c;
    // Second derivatives of F in (vi, vj, ti, tj):
    //   F_vivi = 2 alpha [side i]     F_vjvj = 2 alpha [side j]
    //   F_vivj = K
    //   F_viti = vj K'   F_vitj = -vj K'   F_vjti = vi K'   F_vjtj = -vi K'
    //   F_titi = F_tjtj = -vi vj K        F_titj = +vi vj K
    const T h_vivi = side_i ? 2.0 * k.alpha[flow] : T(0.0);
    const T h_vjvj = side_i ? T(0.0) : 2.0 * k.alpha[flow];
    const T& h_vivj = kk;
    const T h_viti = vj * kp;
    const T h_vjti = vi * kp;
    const T h_tt = -trig.vv * kk;
    const auto add = [&](int r, int c, const T& v) {
      h[r * 4 + c] = select(weighted, h[r * 4 + c] + wf * v, h[r * 4 + c]);
    };
    add(0, 0, h_vivi);
    add(1, 1, h_vjvj);
    add(0, 1, h_vivj);
    add(1, 0, h_vivj);
    add(0, 2, h_viti);
    add(2, 0, h_viti);
    add(0, 3, -h_viti);
    add(3, 0, -h_viti);
    add(1, 2, h_vjti);
    add(2, 1, h_vjti);
    add(1, 3, -h_vjti);
    add(3, 1, -h_vjti);
    add(2, 2, h_tt);
    add(3, 3, h_tt);
    add(2, 3, -h_tt);
    add(3, 2, -h_tt);
  }
}

}  // namespace gridadmm::grid
