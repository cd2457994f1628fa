// Scaling study backing the paper's Section III claim that component
// kernels are massively parallel: throughput of the two launches of an
// ADMM inner iteration (admm/step_kernels.hpp) versus simulated-GPU lane
// count, via google-benchmark. The x-update runs the branch (TRON) and
// generator blocks, the v-update the bus blocks with their pairs' z/y
// updates. On a real GV100 the "lanes" axis is thousands of CUDA blocks;
// here it is CPU lanes, so the *scaling shape* (near-linear for the
// TRON-bound x-update, launch-overhead-bound for the closed-form v-update)
// is the result.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "admm/solver.hpp"
#include "admm/step_kernels.hpp"
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

/// One scenario's state with flat voltages, bound as the launchers' slot 0,
/// plus the per-lane residual partials of the v-update.
struct StepState {
  admm::ComponentModel model;
  admm::AdmmState st;
  admm::ScenarioView view;
  int row = admm::reduce_row_stride(1);
  std::vector<double> partial_primal, partial_dual, partial_z;

  explicit StepState(const KernelFixture& f)
      : model(admm::build_component_model(f.net, f.params)), st(admm::AdmmState::zeros(model)) {
    st.beta = 1e3;
    st.u.fill(0.1);
    st.v.fill(0.1);
    // Realistic voltage starting points.
    std::vector<double> bx(st.branch_x.size());
    for (std::size_t l = 0; l < bx.size() / 4; ++l) {
      bx[4 * l] = 1.0;
      bx[4 * l + 1] = 1.0;
    }
    st.branch_x.upload(bx);
    view = admm::make_scenario_view(model, st);
    const auto cells = static_cast<std::size_t>(f.dev->workers() * row);
    partial_primal.assign(cells, 0.0);
    partial_dual.assign(cells, 0.0);
    partial_z.assign(cells, 0.0);
  }

  void x_update(KernelFixture& f) {
    const int slots[] = {0};
    admm::update_x(*f.dev, admm::make_model_view(model), f.params, {&view, 1}, slots,
                   st.branch_lanes, nullptr);
  }
  void v_update(KernelFixture& f) {
    const int slots[] = {0};
    admm::update_v(*f.dev, admm::make_model_view(model), /*two_level=*/true, {&view, 1}, slots,
                   partial_primal, partial_dual, partial_z, row);
  }
};

void BM_XUpdate(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  StepState step(f);
  for (auto _ : state) {
    step.x_update(f);
    benchmark::DoNotOptimize(step.st.u.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (step.model.num_branches + step.model.num_gens));
}

void BM_VUpdate(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  StepState step(f);
  for (auto _ : state) {
    step.v_update(f);
    benchmark::DoNotOptimize(step.st.v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * step.model.num_buses);
}

void BM_FullInnerIteration(benchmark::State& state) {
  auto& f = fixture_for(static_cast<int>(state.range(0)));
  StepState step(f);
  // The solver's 2 launches per inner iteration, residual reductions included.
  for (auto _ : state) {
    step.x_update(f);
    step.v_update(f);
    benchmark::DoNotOptimize(step.st.y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_XUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FullInnerIteration)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
