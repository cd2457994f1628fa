// Scaling study backing the paper's Section III claim that component
// kernels are massively parallel: throughput of the generator / bus /
// branch updates versus simulated-GPU worker count, via google-benchmark.
// On a real GV100 the "workers" axis is thousands of CUDA blocks; here it
// is CPU lanes, so the *scaling shape* (near-linear for branch updates,
// launch-overhead-bound for the tiny closed-form kernels) is the result.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "admm/bus_kernel.hpp"
#include "admm/generator_kernel.hpp"
#include "admm/solver.hpp"
#include "admm/zy_kernel.hpp"
#include "grid/synthetic.hpp"

namespace {

using namespace gridadmm;

struct KernelFixture {
  grid::Network net;
  admm::AdmmParams params;
  std::unique_ptr<admm::AdmmSolver> solver;
  std::unique_ptr<device::Device> dev;

  explicit KernelFixture(int workers)
      : net(grid::make_synthetic_case("1354pegase")),
        params(admm::params_for_case("1354pegase", net.num_buses())) {
    dev = std::make_unique<device::Device>(workers);
    params.max_inner_iterations = 4;  // keep state realistic but cheap
    params.max_outer_iterations = 1;
    solver = std::make_unique<admm::AdmmSolver>(net, params, dev.get());
    solver->solve();  // a few iterations to move off the cold-start point
  }
};

KernelFixture& fixture_for(int workers) {
  static std::map<int, std::unique_ptr<KernelFixture>> cache;
  auto it = cache.find(workers);
  if (it == cache.end()) {
    it = cache.emplace(workers, std::make_unique<KernelFixture>(workers)).first;
  }
  return *it->second;
}

void BM_GeneratorKernel(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  auto model = admm::build_component_model(f.net, f.params);
  auto st = admm::AdmmState::zeros(model);
  for (auto _ : state) {
    admm::update_generators(*f.dev, model, st);
  }
  state.SetItemsProcessed(state.iterations() * model.num_gens);
}

void BM_BusKernel(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  auto model = admm::build_component_model(f.net, f.params);
  auto st = admm::AdmmState::zeros(model);
  st.v.fill(0.1);
  st.u.fill(0.1);
  for (auto _ : state) {
    admm::update_buses(*f.dev, model, st);
  }
  state.SetItemsProcessed(state.iterations() * model.num_buses);
}

void BM_BranchKernel(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  auto model = admm::build_component_model(f.net, f.params);
  auto st = admm::AdmmState::zeros(model);
  // Realistic voltage starting points.
  std::vector<double> bx(st.branch_x.size());
  for (std::size_t l = 0; l < bx.size() / 4; ++l) {
    bx[4 * l] = 1.0;
    bx[4 * l + 1] = 1.0;
  }
  st.branch_x.upload(bx);
  for (auto _ : state) {
    admm::update_branches(*f.dev, model, f.params, st);
  }
  state.SetItemsProcessed(state.iterations() * model.num_branches);
}

void BM_FullInnerIteration(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  auto model = admm::build_component_model(f.net, f.params);
  auto st = admm::AdmmState::zeros(model);
  st.beta = 1e3;
  std::vector<double> bx(st.branch_x.size());
  for (std::size_t l = 0; l < bx.size() / 4; ++l) {
    bx[4 * l] = 1.0;
    bx[4 * l + 1] = 1.0;
  }
  st.branch_x.upload(bx);
  // The solver's 4 launches per inner iteration, residual reductions included.
  const auto cells = static_cast<std::size_t>(f.dev->workers() * admm::kReduceStride);
  std::vector<double> partial_dual(cells), partial_primal(cells), partial_z(cells);
  for (auto _ : state) {
    admm::update_generators(*f.dev, model, st);
    admm::update_branches(*f.dev, model, f.params, st);
    admm::update_buses(*f.dev, model, st, partial_dual);
    admm::update_zy_fused(*f.dev, model, st, /*two_level=*/true, partial_primal, partial_z);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_GeneratorKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BusKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BranchKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullInnerIteration)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
