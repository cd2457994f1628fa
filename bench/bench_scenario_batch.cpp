// Batched versus sequential multi-scenario solve: wall time, kernel
// launches, and scenarios/second across batch sizes S in {1, 4, 16, 64} on
// case9 and case30 load-scale scenarios. Emits one JSON record per
// (case, S, engine) measurement (bench_common.hpp JsonRecord format) plus a
// summary table.
//
//   ./bench_scenario_batch [--cases=case9,case30] [--sizes=1,4,16,64]
//                          [--shards=N] [--smoke] [--trace=PATH]
//
// --shards=N (or GRIDADMM_SHARDS=N) runs the batched engine over an
// N-device pool instead of one device; the sequential baseline always runs
// on a single device. --trace=PATH writes a Chrome trace-event JSON of
// the run (fused-phase, wave, and device-launch spans; open in Perfetto,
// validate with scripts/trace_check.py).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "device/pool.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

int main(int argc, char** argv) {
  using namespace gridadmm;
  using bench::split_csv;
  const Options opts(argc, argv);
  const bool smoke = bench::smoke_mode(opts);
  bench::print_mode_banner("Scenario batch: fused vs sequential multi-scenario solve");

  const auto case_names = split_csv(opts.get("cases", smoke ? "case9" : "case9,case30"));
  std::vector<int> sizes;
  for (const auto& s : split_csv(opts.get("sizes", smoke ? "1,8" : "1,4,16,64"))) {
    sizes.push_back(std::stoi(s));
  }
  const int shards = std::max(1, opts.get_int("shards", bench::env_int("GRIDADMM_SHARDS", 1)));
  const bench::TraceGuard trace_guard(opts);
  std::unique_ptr<device::DevicePool> pool;
  if (shards > 1) pool = std::make_unique<device::DevicePool>(shards);
  // Actual worker parallelism behind the batched engine: the pool splits
  // the machine's workers across its devices (0 = default single device).
  const int batch_workers = pool != nullptr ? shards * pool->device(0).workers() : 0;

  Table table({"case", "S", "seq (s)", "batch (s)", "speedup",
               "seq launches", "batch launches", "batch scen/s"});
  for (const auto& case_name : case_names) {
    const auto net = grid::load_case(case_name);
    const auto params = admm::params_for_case(case_name, net.num_buses());
    for (const int S : sizes) {
      scenario::ScenarioSet set(net);
      set.add_load_scale(S, 0.92, 1.08);

      const auto sequential = scenario::solve_sequential(set, params);
      {
        bench::JsonRecord record("scenario_batch", 1, 0);
        record.field("case", case_name)
            .field("S", S)
            .field("engine", "sequential")
            .field("solve_seconds", sequential.solve_seconds)
            .field("launches", static_cast<long long>(sequential.launch_stats.launches))
            .field("blocks", static_cast<long long>(sequential.launch_stats.blocks))
            .field("converged", sequential.num_converged())
            .field("scenarios_per_second", sequential.scenarios_per_second());
        record.emit();
      }

      auto solver = pool != nullptr
                        ? std::make_unique<scenario::BatchAdmmSolver>(set, params, *pool)
                        : std::make_unique<scenario::BatchAdmmSolver>(set, params);
      const auto batched = solver->solve();

      const double speedup =
          batched.solve_seconds > 0.0 ? sequential.solve_seconds / batched.solve_seconds : 0.0;
      table.add_row({case_name, std::to_string(S), Table::fixed(sequential.solve_seconds, 3),
                     Table::fixed(batched.solve_seconds, 3), Table::fixed(speedup, 2),
                     std::to_string(sequential.launch_stats.launches),
                     std::to_string(batched.launch_stats.launches),
                     Table::fixed(batched.scenarios_per_second(), 1)});

      bench::JsonRecord record("scenario_batch", batched.num_shards, batch_workers);
      record.field("case", case_name)
          .field("S", S)
          .field("engine", "batched")
          .field("solve_seconds", batched.solve_seconds)
          .field("launches", static_cast<long long>(batched.launch_stats.launches))
          .field("blocks", static_cast<long long>(batched.launch_stats.blocks))
          .field("converged", batched.num_converged())
          .field("scenarios_per_second", batched.scenarios_per_second())
          .field("iters_per_step",
                 batched.fused_steps > 0
                     ? static_cast<double>(batched.branch.tron_iterations) /
                           static_cast<double>(batched.fused_steps)
                     : 0.0)
          .field("lane_utilisation", batched.branch.lane_utilisation());
      record.emit();
    }
  }
  std::printf("\n");
  table.print();
  return 0;
}
