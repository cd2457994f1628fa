// Component-based decomposition data layout (paper Section II-B/II-C).
//
// The ACOPF is split into generator, branch, and bus components coupled by
// consensus pairs u_k - v_k + z_k = 0, where u_k is produced by the x-side
// (generators and branches) and v_k by the bus side:
//
//   generator g:  pairs 2g (pg), 2g+1 (qg)
//   branch l:     pairs base+0..7 with base = 2*ngens + 8l, in the order
//                 [pij, qij, pji, qji, wi=vi^2, thi, wj=vj^2, thj]
//
// Flow pairs carry penalty rho_pq, voltage pairs rho_va (Table I). All data
// lives in DeviceBuffers so the kernels run without host transfers.
#pragma once

#include "admm/params.hpp"
#include "device/buffer.hpp"
#include "grid/network.hpp"

namespace gridadmm::admm {

/// Pair index helpers.
inline int gen_pair_base(int gen) { return 2 * gen; }
inline int branch_pair_base(int num_gens, int branch) { return 2 * num_gens + 8 * branch; }

/// Offsets within a branch's 8-pair group.
enum BranchPair : int {
  kPairPij = 0,
  kPairQij = 1,
  kPairPji = 2,
  kPairQji = 3,
  kPairWi = 4,
  kPairThi = 5,
  kPairWj = 6,
  kPairThj = 7
};

/// Device-resident problem data shared by every scenario, fixed after
/// build. What a scenario may vary (loads, pg bounds, outage masks) lives in
/// its BatchAdmmState slot; gen_pmin/gen_pmax are the network's base bounds,
/// the reference the ramp limits of tracking tighten.
struct ComponentModel {
  int num_buses = 0;
  int num_gens = 0;
  int num_branches = 0;
  int num_pairs = 0;

  // Per-pair penalty.
  device::DeviceBuffer<double> rho;

  // Generators.
  device::DeviceBuffer<int> gen_bus;
  device::DeviceBuffer<double> gen_pmin, gen_pmax, gen_qmin, gen_qmax;
  device::DeviceBuffer<double> gen_c2, gen_c1, gen_c0;

  // Branches. Admittance packed as 8 doubles per branch
  // (gii,bii,gij,bij,gji,bji,gjj,bjj); voltage bounds as 4 doubles per
  // branch (vmin_i, vmax_i, vmin_j, vmax_j); rate2 holds the squared,
  // capacity-factor-tightened limit (0 = unrated).
  device::DeviceBuffer<int> br_from, br_to;
  device::DeviceBuffer<double> br_adm;
  device::DeviceBuffer<double> br_vbound;
  device::DeviceBuffer<double> br_rate2;

  // Buses: shunts plus CSR adjacency. For each bus, gens list gen
  // indices; branch adjacency stores the *p-flow pair index* kp of each
  // incident branch end (kq = kp+1, kw = kp+4, kth = kp+5 by construction).
  device::DeviceBuffer<double> bus_gs, bus_bs;
  device::DeviceBuffer<int> bus_gen_ptr, bus_gen_list;
  device::DeviceBuffer<int> bus_adj_ptr, bus_adj_kp;
};

/// Builds the model from a finalized network. The objective scale (paper:
/// x2 for the 70k case) is folded into the cost coefficients.
ComponentModel build_component_model(const grid::Network& net, const AdmmParams& params);

}  // namespace gridadmm::admm
