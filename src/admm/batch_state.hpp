// Batched ADMM state for fused multi-scenario solves, scenario-major: slot
// s of an array with per-scenario extent E is the contiguous slice
// [s*E, (s+1)*E), so a scenario's view is its slice base pointers and every
// kernel indexes elements directly.
//
// Why not interleaved tiles (component-major, scenario lane innermost: the
// SIMD batching layout of Shin & Anitescu, arXiv:2307.16830)? Lockstep TRON
// gathers each lane from its own scenario view, and an end-to-end A/B found
// tiles no faster on the traffic the engine serves (DESIGN.md §8).
//
// Per-scenario *problem data* that the scenario engine may vary (penalties
// rho, loads, generator pg bounds, branch outage masks) lives here too; the
// scenario-invariant remainder stays in the shared ComponentModel.
//
// Two-buffer ping-pong mode: for time-coupled sets where only consecutive
// waves interact, the batch engine allocates a pair of BatchAdmmStates per
// shard sized to the largest wave instead of one state sized to every
// scenario. Wave d executes in buffer d % 2 while buffer (d - 1) % 2 holds
// the previous wave's iterates for the on-device chain copy
// (scenario::batch_chain_state with distinct src/dst states); wave d + 1
// then reuses the parent buffer. Live batch-state memory is constant in
// the horizon length (see scenario::BatchPlan).
#pragma once

#include <cstddef>
#include <vector>

#include "admm/component_model.hpp"
#include "admm/kernels_core.hpp"
#include "device/buffer.hpp"

namespace gridadmm::admm {

struct BatchAdmmState {
  int num_scenarios = 0;  ///< slots, each handed out as a view

  // ---- Iterate, one contiguous slice per scenario ----
  device::DeviceBuffer<double> u, v, z, y, lz;     ///< S * num_pairs
  device::DeviceBuffer<double> bus_w, bus_theta;   ///< S * num_buses
  device::DeviceBuffer<double> gen_pg, gen_qg;     ///< S * num_gens
  device::DeviceBuffer<double> branch_x;           ///< S * 4 * num_branches
  device::DeviceBuffer<double> branch_s;           ///< S * 2 * num_branches
  device::DeviceBuffer<double> branch_lambda;      ///< S * 2 * num_branches

  // ---- Per-scenario problem data ----
  device::DeviceBuffer<double> rho;                ///< S * num_pairs
  device::DeviceBuffer<double> pd, qd;             ///< S * num_buses
  device::DeviceBuffer<double> pmin, pmax;         ///< S * num_gens
  device::DeviceBuffer<unsigned char> branch_active;  ///< S * num_branches

  /// Outer penalty, one per scenario (host scalar, like AdmmState::beta).
  std::vector<double> beta;

  /// Allocates all buffers for S scenarios of `model` (zero-filled,
  /// branch_active = 1, beta = 0).
  static BatchAdmmState zeros(const ComponentModel& model, int num_scenarios);

  /// Raw-pointer view of scenario s's slices (valid until any resize).
  [[nodiscard]] ScenarioView view(const ComponentModel& model, int s);
};

inline BatchAdmmState BatchAdmmState::zeros(const ComponentModel& model, int num_scenarios) {
  BatchAdmmState b;
  b.num_scenarios = num_scenarios;
  const auto S = static_cast<std::size_t>(num_scenarios);
  const auto np = S * static_cast<std::size_t>(model.num_pairs);
  const auto nb = S * static_cast<std::size_t>(model.num_buses);
  const auto ng = S * static_cast<std::size_t>(model.num_gens);
  const auto nl = S * static_cast<std::size_t>(model.num_branches);
  b.u.resize(np);
  b.v.resize(np);
  b.z.resize(np);
  b.y.resize(np);
  b.lz.resize(np);
  b.bus_w.resize(nb);
  b.bus_theta.resize(nb);
  b.gen_pg.resize(ng);
  b.gen_qg.resize(ng);
  b.branch_x.resize(4 * nl);
  b.branch_s.resize(2 * nl);
  b.branch_lambda.resize(2 * nl);
  b.rho.resize(np);
  b.pd.resize(nb);
  b.qd.resize(nb);
  b.pmin.resize(ng);
  b.pmax.resize(ng);
  b.branch_active.resize(nl, 1);
  b.beta.assign(S, 0.0);
  return b;
}

inline ScenarioView BatchAdmmState::view(const ComponentModel& model, int s) {
  const auto slot = static_cast<std::size_t>(s);
  const auto np = slot * static_cast<std::size_t>(model.num_pairs);
  const auto nb = slot * static_cast<std::size_t>(model.num_buses);
  const auto ng = slot * static_cast<std::size_t>(model.num_gens);
  const auto nl = slot * static_cast<std::size_t>(model.num_branches);
  ScenarioView view;
  view.u = u.data() + np;
  view.v = v.data() + np;
  view.z = z.data() + np;
  view.y = y.data() + np;
  view.lz = lz.data() + np;
  view.bus_w = bus_w.data() + nb;
  view.bus_theta = bus_theta.data() + nb;
  view.gen_pg = gen_pg.data() + ng;
  view.gen_qg = gen_qg.data() + ng;
  view.branch_x = branch_x.data() + 4 * nl;
  view.branch_s = branch_s.data() + 2 * nl;
  view.branch_lambda = branch_lambda.data() + 2 * nl;
  view.rho = rho.data() + np;
  view.pd = pd.data() + nb;
  view.qd = qd.data() + nb;
  view.pmin = pmin.data() + ng;
  view.pmax = pmax.data() + ng;
  view.branch_active = branch_active.data() + nl;
  view.beta = beta[slot];
  return view;
}

}  // namespace gridadmm::admm
