#include "scenario/batch_kernels.hpp"

#include <algorithm>

namespace gridadmm::scenario {

namespace {
// Per-block work estimates in microseconds for the device's fan-out rule
// (device::fan_out_us), measured like those of admm/step_kernels.cpp: one
// lane, launch time over blocks, 1354pegase and case14.
constexpr double kChainBlockUs = 0.015;  // up to twelve element copies
constexpr double kRampBlockUs = 0.01;    // two clamped bounds
}  // namespace

void batch_chain_state(device::Device& dev, const admm::ComponentModel& model,
                       const admm::BatchAdmmState& src_state, admm::BatchAdmmState& dst_state,
                       std::span<const ChainLink> links) {
  const int np = model.num_pairs;
  const auto nb = static_cast<std::size_t>(model.num_buses);
  const auto ng = static_cast<std::size_t>(model.num_gens);
  const auto nl = static_cast<std::size_t>(model.num_branches);
  const auto npz = static_cast<std::size_t>(np);
  // num_pairs = 2*ngens + 8*nbranches dominates every other per-scenario
  // extent on a connected network, so one launch over |links| * num_pairs
  // blocks covers all arrays (each block guards the shorter extents).
  // Slots are local to their own state.
  const auto su = src_state.u.span();
  const auto sv = src_state.v.span();
  const auto sz = src_state.z.span();
  const auto sy = src_state.y.span();
  const auto slz = src_state.lz.span();
  const auto sw = src_state.bus_w.span();
  const auto stheta = src_state.bus_theta.span();
  const auto spg = src_state.gen_pg.span();
  const auto sqg = src_state.gen_qg.span();
  const auto sbx = src_state.branch_x.span();
  const auto sbs = src_state.branch_s.span();
  const auto sblam = src_state.branch_lambda.span();
  auto du = dst_state.u.span();
  auto dv = dst_state.v.span();
  auto dz = dst_state.z.span();
  auto dy = dst_state.y.span();
  auto dlz = dst_state.lz.span();
  auto dw = dst_state.bus_w.span();
  auto dtheta = dst_state.bus_theta.span();
  auto dpg = dst_state.gen_pg.span();
  auto dqg = dst_state.gen_qg.span();
  auto dbx = dst_state.branch_x.span();
  auto dbs = dst_state.branch_s.span();
  auto dblam = dst_state.branch_lambda.span();
  const int blocks = static_cast<int>(links.size()) * np;
  dev.launch(blocks, [=](int b) {
    const auto& link = links[static_cast<std::size_t>(b / np)];
    const auto k = static_cast<std::size_t>(b % np);
    auto copy = [&](std::span<const double> from, std::span<double> to, std::size_t extent) {
      if (k < extent) {
        to[static_cast<std::size_t>(link.dst) * extent + k] =
            from[static_cast<std::size_t>(link.src) * extent + k];
      }
    };
    copy(su, du, npz);
    copy(sv, dv, npz);
    copy(sz, dz, npz);
    copy(sy, dy, npz);
    copy(slz, dlz, npz);
    copy(sw, dw, nb);
    copy(stheta, dtheta, nb);
    copy(spg, dpg, ng);
    copy(sqg, dqg, ng);
    copy(sbx, dbx, 4 * nl);
    copy(sbs, dbs, 2 * nl);
    copy(sblam, dblam, 2 * nl);
  }, blocks * kChainBlockUs);
}

void batch_apply_ramp(device::Device& dev, const admm::ComponentModel& model,
                      const admm::BatchAdmmState& src_state, admm::BatchAdmmState& dst_state,
                      std::span<const RampLink> links) {
  const int ng = model.num_gens;
  const auto ngz = static_cast<std::size_t>(ng);
  const auto base_pmin = model.gen_pmin.span();
  const auto base_pmax = model.gen_pmax.span();
  const auto pg = src_state.gen_pg.span();
  auto pmin = dst_state.pmin.span();
  auto pmax = dst_state.pmax.span();
  const int blocks = static_cast<int>(links.size()) * ng;
  dev.launch(blocks, [=](int b) {
    const auto& link = links[static_cast<std::size_t>(b / ng)];
    const auto g = static_cast<std::size_t>(b % ng);
    const auto dst = static_cast<std::size_t>(link.dst) * ngz + g;
    const auto src = static_cast<std::size_t>(link.src) * ngz + g;
    const double ramp = link.ramp_fraction * base_pmax[g];
    pmin[dst] = std::max(base_pmin[g], pg[src] - ramp);
    pmax[dst] = std::min(base_pmax[g], pg[src] + ramp);
  }, blocks * kRampBlockUs);
}

}  // namespace gridadmm::scenario
