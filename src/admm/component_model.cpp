#include "admm/component_model.hpp"

#include <vector>

#include "common/error.hpp"

namespace gridadmm::admm {

ComponentModel build_component_model(const grid::Network& net, const AdmmParams& params) {
  require(net.finalized(), "build_component_model: network must be finalized");
  ComponentModel m;
  m.num_buses = net.num_buses();
  m.num_gens = net.num_generators();
  m.num_branches = net.num_branches();
  m.num_pairs = 2 * m.num_gens + 8 * m.num_branches;

  // Per-pair penalties: rho_pq on generation and flow pairs, rho_va on
  // voltage pairs.
  {
    std::vector<double> rho(static_cast<std::size_t>(m.num_pairs), params.rho_pq);
    for (int l = 0; l < m.num_branches; ++l) {
      const int base = branch_pair_base(m.num_gens, l);
      rho[base + kPairWi] = params.rho_va;
      rho[base + kPairThi] = params.rho_va;
      rho[base + kPairWj] = params.rho_va;
      rho[base + kPairThj] = params.rho_va;
    }
    m.rho.resize(rho.size());
    m.rho.upload(rho);
  }

  // Generators.
  {
    const std::size_t ng = static_cast<std::size_t>(m.num_gens);
    std::vector<int> bus(ng);
    std::vector<double> pmin(ng), pmax(ng), qmin(ng), qmax(ng), c2(ng), c1(ng), c0(ng);
    for (int g = 0; g < m.num_gens; ++g) {
      const auto& gen = net.generators[g];
      bus[g] = gen.bus;
      pmin[g] = gen.pmin;
      pmax[g] = gen.pmax;
      qmin[g] = gen.qmin;
      qmax[g] = gen.qmax;
      c2[g] = gen.c2 * params.objective_scale;
      c1[g] = gen.c1 * params.objective_scale;
      c0[g] = gen.c0 * params.objective_scale;
    }
    m.gen_bus.resize(ng);
    m.gen_bus.upload(bus);
    auto up = [](device::DeviceBuffer<double>& buf, const std::vector<double>& host) {
      buf.resize(host.size());
      buf.upload(host);
    };
    up(m.gen_pmin, pmin);
    up(m.gen_pmax, pmax);
    up(m.gen_qmin, qmin);
    up(m.gen_qmax, qmax);
    up(m.gen_c2, c2);
    up(m.gen_c1, c1);
    up(m.gen_c0, c0);
  }

  // Branches.
  {
    const std::size_t nl = static_cast<std::size_t>(m.num_branches);
    std::vector<int> from(nl), to(nl);
    std::vector<double> adm(8 * nl), vbound(4 * nl), rate2(nl);
    for (int l = 0; l < m.num_branches; ++l) {
      const auto& branch = net.branches[l];
      const auto& y = net.admittances[l];
      from[l] = branch.from;
      to[l] = branch.to;
      double* a = adm.data() + 8 * l;
      a[0] = y.gii; a[1] = y.bii; a[2] = y.gij; a[3] = y.bij;
      a[4] = y.gji; a[5] = y.bji; a[6] = y.gjj; a[7] = y.bjj;
      double* vb = vbound.data() + 4 * l;
      vb[0] = net.buses[branch.from].vmin;
      vb[1] = net.buses[branch.from].vmax;
      vb[2] = net.buses[branch.to].vmin;
      vb[3] = net.buses[branch.to].vmax;
      const double rate = branch.rate * params.line_capacity_factor;
      rate2[l] = branch.rate > 0.0 ? rate * rate : 0.0;
    }
    m.br_from.resize(nl);
    m.br_from.upload(from);
    m.br_to.resize(nl);
    m.br_to.upload(to);
    m.br_adm.resize(adm.size());
    m.br_adm.upload(adm);
    m.br_vbound.resize(vbound.size());
    m.br_vbound.upload(vbound);
    m.br_rate2.resize(rate2.size());
    m.br_rate2.upload(rate2);
  }

  // Buses.
  {
    const std::size_t nb = static_cast<std::size_t>(m.num_buses);
    std::vector<double> gs(nb), bs(nb);
    for (int i = 0; i < m.num_buses; ++i) {
      gs[i] = net.buses[i].gs;
      bs[i] = net.buses[i].bs;
    }
    m.bus_gs.resize(nb);
    m.bus_gs.upload(gs);
    m.bus_bs.resize(nb);
    m.bus_bs.upload(bs);

    std::vector<int> gen_ptr(nb + 1, 0), gen_list;
    std::vector<int> adj_ptr(nb + 1, 0), adj_kp;
    for (int i = 0; i < m.num_buses; ++i) {
      for (const int g : net.gens_at_bus[i]) gen_list.push_back(g);
      gen_ptr[i + 1] = static_cast<int>(gen_list.size());
      for (const int l : net.branches_from[i]) {
        adj_kp.push_back(branch_pair_base(m.num_gens, l) + kPairPij);
      }
      for (const int l : net.branches_to[i]) {
        adj_kp.push_back(branch_pair_base(m.num_gens, l) + kPairPji);
      }
      adj_ptr[i + 1] = static_cast<int>(adj_kp.size());
    }
    m.bus_gen_ptr.resize(gen_ptr.size());
    m.bus_gen_ptr.upload(gen_ptr);
    m.bus_gen_list.resize(gen_list.size());
    if (!gen_list.empty()) m.bus_gen_list.upload(gen_list);
    m.bus_adj_ptr.resize(adj_ptr.size());
    m.bus_adj_ptr.upload(adj_ptr);
    m.bus_adj_kp.resize(adj_kp.size());
    if (!adj_kp.empty()) m.bus_adj_kp.upload(adj_kp);
  }
  return m;
}

}  // namespace gridadmm::admm
