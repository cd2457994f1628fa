// The ADMM iterate store: S scenario slots, scenario-major. Slot s of an
// array with per-scenario extent E is the contiguous slice [s*E, (s+1)*E),
// so a scenario's view is its slice base pointers and every kernel indexes
// elements directly. AdmmSolver owns a one-slot state; the batch engine
// owns one or two per shard (scenario::BatchPlan).
//
// Why not interleaved tiles (component-major, scenario lane innermost: the
// SIMD batching layout of Shin & Anitescu, arXiv:2307.16830)? Lockstep TRON
// gathers each lane from its own scenario view, and an end-to-end A/B found
// tiles no faster on the traffic the engine serves (DESIGN.md §8).
//
// Per-scenario *problem data* (loads, generator pg bounds, branch outage
// masks) lives here too; the scenario-invariant remainder, per-pair
// penalties rho and the base pg bounds included, stays in the shared
// ComponentModel, which does not change after it is built. The outer
// penalty beta is a host scalar per scenario, held by the owning solver and
// copied into each ScenarioView.
#pragma once

#include <cstddef>
#include <vector>

#include "admm/component_model.hpp"
#include "admm/kernels_core.hpp"
#include "admm/warm_start.hpp"
#include "device/buffer.hpp"
#include "grid/network.hpp"

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
  device::DeviceBuffer<double> pd, qd;             ///< S * num_buses
  device::DeviceBuffer<double> pmin, pmax;         ///< S * num_gens
  device::DeviceBuffer<unsigned char> branch_active;  ///< S * num_branches

  /// Allocates all buffers for S scenarios of `model` (zero-filled,
  /// branch_active = 1).
  static BatchAdmmState zeros(const ComponentModel& model, int num_scenarios);
  /// One slot holding `net`'s own loads and pg bounds, iterate zero-filled
  /// (AdmmSolver's store; `model` is built from `net`).
  static BatchAdmmState single(const ComponentModel& model, const grid::Network& net);

  /// Raw-pointer view of scenario s's slices (valid until any resize); the
  /// owner sets its outer penalty.
  [[nodiscard]] ScenarioView view(const ComponentModel& model, int s);

  /// Snapshots slot s's full iterate with slice downloads, tagged with the
  /// outer penalty `beta` it was produced under.
  [[nodiscard]] WarmStartIterate export_slot(const ComponentModel& model, int s,
                                             double beta) const;
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
  b.pd.resize(nb);
  b.qd.resize(nb);
  b.pmin.resize(ng);
  b.pmax.resize(ng);
  b.branch_active.resize(nl, 1);
  return b;
}

inline BatchAdmmState BatchAdmmState::single(const ComponentModel& model,
                                            const grid::Network& net) {
  BatchAdmmState b = zeros(model, 1);
  std::vector<double> pd, qd, pmin, pmax;
  for (const auto& bus : net.buses) {
    pd.push_back(bus.pd);
    qd.push_back(bus.qd);
  }
  for (const auto& gen : net.generators) {
    pmin.push_back(gen.pmin);
    pmax.push_back(gen.pmax);
  }
  b.pd.upload(pd);
  b.qd.upload(qd);
  b.pmin.upload(pmin);
  b.pmax.upload(pmax);
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
  view.pd = pd.data() + nb;
  view.qd = qd.data() + nb;
  view.pmin = pmin.data() + ng;
  view.pmax = pmax.data() + ng;
  view.branch_active = branch_active.data() + nl;
  return view;
}

inline WarmStartIterate BatchAdmmState::export_slot(const ComponentModel& model, int s,
                                                    double beta) const {
  const auto slot = static_cast<std::size_t>(s);
  const auto np = static_cast<std::size_t>(model.num_pairs);
  const auto nb = static_cast<std::size_t>(model.num_buses);
  const auto ng = static_cast<std::size_t>(model.num_gens);
  const auto nl = static_cast<std::size_t>(model.num_branches);
  WarmStartIterate it;
  const auto take = [slot](const device::DeviceBuffer<double>& from, std::vector<double>& to,
                           std::size_t extent) {
    to.resize(extent);
    from.download_slice(slot * extent, to);
  };
  take(u, it.u, np);
  take(v, it.v, np);
  take(z, it.z, np);
  take(y, it.y, np);
  take(lz, it.lz, np);
  take(bus_w, it.bus_w, nb);
  take(bus_theta, it.bus_theta, nb);
  take(gen_pg, it.gen_pg, ng);
  take(gen_qg, it.gen_qg, ng);
  take(branch_x, it.branch_x, 4 * nl);
  take(branch_s, it.branch_s, 2 * nl);
  take(branch_lambda, it.branch_lambda, 2 * nl);
  it.beta = beta;
  return it;
}

}  // namespace gridadmm::admm
