#include "admm/step_kernels.hpp"

#include <algorithm>

namespace gridadmm::admm {

namespace {
// Per-block work estimates in microseconds, which decide whether a launch
// wakes the device's helper lanes (device::fan_out_us). Measured on one
// lane (Device(1)) on a 4-vCPU VM (Intel Xeon, shared host) as launch time
// over blocks; DESIGN.md section 2 says how to repeat the measurement.
// A branch subproblem: the one-lane x-update of a one-scenario case14
// solve takes 22.9 us per fused step for 20 branches (case9 2.5 us per
// branch, 1354pegase 1.9, a 4-lane lockstep group 0.8 per lane).
constexpr double kBranchSolveUs = 1.1;
constexpr double kGeneratorBlockUs = 0.02;  // closed form, 1354pegase and case14
constexpr double kBusBlockUs = 0.2;         // bus update + owned z/y, 0.16-0.28 over cases
constexpr double kPairBlockUs = 0.01;       // outer multiplier clamp
}  // namespace

void update_x(device::Device& dev, const ModelView& m, const AdmmParams& params,
              std::span<const ScenarioView> views, std::span<const int> slots,
              std::vector<BranchWorkspace>& lanes, BranchUpdateStats* stats,
              std::span<std::uint64_t> slot_tron, int row_stride) {
  constexpr int W = kBranchLanes;
  const int nl = m.num_branches;
  const int ng = m.num_gens;
  ensure_branch_lanes(lanes, dev.workers(), params);
  std::fill(slot_tron.begin(), slot_tron.end(), 0);

  // Branch blocks come first, so the expensive TRON solves are claimed
  // before the closed-form generator blocks fill in behind them.
  const int n = static_cast<int>(slots.size());
  const int branch_blocks = (n + W - 1) / W * nl;
  const double work_us = n * (nl * kBranchSolveUs + ng * kGeneratorBlockUs);
  dev.launch_with_lane(branch_blocks + n * ng, [&lanes, &params, m, views, slots, nl, ng, n,
                                                branch_blocks, slot_tron,
                                                row_stride](int b, int lane_id) {
    if (b >= branch_blocks) {
      const int g = b - branch_blocks;
      const int s = slots[static_cast<std::size_t>(g / ng)];
      generator_update_one(m, views[static_cast<std::size_t>(s)], g % ng);
      return;
    }
    // Group g is the W consecutive slots starting at g * W.
    const int first = (b / nl) * W;
    const int count = std::min(n - first, kBranchLanes);
    const ScenarioView* group[W];
    for (int j = 0; j < count; ++j) {
      group[j] = &views[static_cast<std::size_t>(slots[static_cast<std::size_t>(first + j)])];
    }
    int tron[W] = {};
    BranchWorkspace& ws = lanes[static_cast<std::size_t>(lane_id)];
    if (count == 1) {
      branch_update_lanes<1>(m, params, {group, 1}, b % nl, ws, tron);
    } else {
      branch_update_lanes<W>(m, params, {group, static_cast<std::size_t>(count)}, b % nl, ws,
                             tron);
    }
    if (!slot_tron.empty()) {
      for (int j = 0; j < count; ++j) {
        slot_tron[static_cast<std::size_t>(lane_id) * row_stride +
                  static_cast<std::size_t>(first + j)] += static_cast<std::uint64_t>(tron[j]);
      }
    }
  }, work_us);

  for (auto& lane : lanes) {
    if (stats != nullptr) *stats += lane.stats;
    lane.stats = BranchUpdateStats{};
  }
}

void update_v(device::Device& dev, const ModelView& m, bool two_level,
              std::span<const ScenarioView> views, std::span<const int> slots,
              std::span<double> partial_primal, std::span<double> partial_dual,
              std::span<double> partial_z, int row_stride) {
  const int nb = m.num_buses;
  std::fill(partial_primal.begin(), partial_primal.end(), 0.0);
  std::fill(partial_dual.begin(), partial_dual.end(), 0.0);
  std::fill(partial_z.begin(), partial_z.end(), 0.0);
  const int blocks = static_cast<int>(slots.size()) * nb;
  dev.launch_with_lane(blocks, [=](int b, int lane) {
    const int j = b / nb;
    const ScenarioView& s = views[static_cast<std::size_t>(slots[static_cast<std::size_t>(j)])];
    const std::size_t cell = static_cast<std::size_t>(lane) * row_stride + j;
    bus_update_one(m, s, b % nb, &partial_dual[cell]);
    owned_zy_update(m, s, b % nb, two_level, &partial_primal[cell], &partial_z[cell]);
  }, blocks * kBusBlockUs);
}

void update_outer_multiplier(device::Device& dev, const ModelView& m,
                             std::span<const ScenarioView> views, std::span<const int> slots,
                             double lambda_bound) {
  const int np = m.num_pairs;
  const int blocks = static_cast<int>(slots.size()) * np;
  dev.launch(blocks, [=](int b) {
    const int s = slots[static_cast<std::size_t>(b / np)];
    outer_multiplier_update_one(m, views[static_cast<std::size_t>(s)], b % np, lambda_bound);
  }, blocks * kPairBlockUs);
}

}  // namespace gridadmm::admm
