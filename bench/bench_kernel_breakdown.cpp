// Per-phase kernel breakdown of the fused batch solve.
//
// Runs real BatchAdmmSolver solves (load-scale scenario sets) at
// S in {16, 64, 256} and reports where each fused iteration's time goes,
// phase by phase: the two launches of the step — the x-update (TRON
// branches + generators) as `branch`, the v-update (buses + the z/y update
// of their pairs) as `bus` — host-side residual collection (+ active-slot
// packing + control flow), outer-transition launches, and warm-start chain
// copies. The branch phase dominates the step, so this harness also
// attributes *within* it: the
// per-(config) summary adds the TRON work counters — tron / CG /
// augmented-Lagrangian iterations and objective evaluations per fused step
// — so a branch-phase regression can be split into "more TRON work" vs
// "slower TRON work". Next to the branch phase's microseconds per step it
// prints the lockstep lane utilisation (live lane-iterations / (W x group
// iterations), BranchUpdateStats::lane_utilisation): the share of the
// lockstep groups' lane slots that did useful work, which lane divergence
// and partly filled or outaged groups lower.
//
//   ./bench_kernel_breakdown [--cases=case9,case30] [--sizes=16,64,256]
//                            [--smoke] [--trace=PATH]
//
// Emits one JsonRecord per (case, S, phase): total seconds, microseconds
// per fused step, and the phase's share of the loop — plus a per-(case, S)
// summary record with end-to-end scen/s and the TRON sub-attribution, so
// branch-phase changes are attributable without joining against
// bench_scenario_batch.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace {

struct Phase {
  const char* name;
  double seconds;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gridadmm;
  using bench::split_csv;
  const Options opts(argc, argv);
  const bool smoke = bench::smoke_mode(opts);
  bench::print_mode_banner("Kernel breakdown: per-phase fused-iteration time");

  const auto case_names = split_csv(opts.get("cases", smoke ? "case9" : "case9,case30"));
  std::vector<int> sizes;
  for (const auto& s : split_csv(opts.get("sizes", smoke ? "16,64" : "16,64,256"))) {
    sizes.push_back(std::stoi(s));
  }
  const bench::TraceGuard trace_guard(opts);

  Table table({"case", "S", "steps", "branch us/it", "lane util",
               "tron it/step", "cg it/step", "evals/step", "scen/s"});
  for (const auto& case_name : case_names) {
    const auto net = grid::load_case(case_name);
    const auto params = admm::params_for_case(case_name, net.num_buses());
    for (const int S : sizes) {
      scenario::ScenarioSet set(net);
      set.add_load_scale(S, 0.92, 1.08);
      scenario::BatchAdmmSolver solver(set, params);
      const auto report = solver.solve();

      const auto& p = report.phases;
      const double loop_total =
          p.branch_seconds + p.bus_seconds + p.residual_seconds + p.outer_seconds + p.chain_seconds;
      const auto steps = static_cast<double>(report.fused_steps > 0 ? report.fused_steps : 1);
      const auto per_step = [&](double total) { return total / steps; };
      const auto us_per_step = [&](double seconds) { return 1e6 * seconds / steps; };
      const Phase phases[] = {
          {"branch", p.branch_seconds},     {"bus", p.bus_seconds},
          {"residual", p.residual_seconds}, {"outer", p.outer_seconds},
          {"chain", p.chain_seconds},
      };
      for (const Phase& phase : phases) {
        bench::JsonRecord record("kernel_breakdown", report.num_shards);
        record.field("case", case_name)
            .field("S", S)
            .field("phase", phase.name)
            .field("seconds", phase.seconds)
            .field("us_per_step", us_per_step(phase.seconds))
            .field("share", loop_total > 0.0 ? phase.seconds / loop_total : 0.0)
            .field("fused_steps", static_cast<long long>(report.fused_steps));
        record.emit();
      }
      bench::JsonRecord summary("kernel_breakdown", report.num_shards);
      summary.field("case", case_name)
          .field("S", S)
          .field("phase", "total")
          .field("seconds", loop_total)
          .field("us_per_step", us_per_step(loop_total))
          .field("share", 1.0)
          .field("fused_steps", static_cast<long long>(report.fused_steps))
          .field("solve_seconds", report.solve_seconds)
          .field("launches", static_cast<long long>(report.launch_stats.launches))
          .field("blocks", static_cast<long long>(report.launch_stats.blocks))
          // TRON sub-attribution: work per fused step inside the branch
          // phase.
          .field("iters_per_step", per_step(report.branch.tron_iterations))
          .field("tron_iters_per_step", per_step(report.branch.tron_iterations))
          .field("cg_iters_per_step", per_step(report.branch.cg_iterations))
          .field("auglag_iters_per_step", per_step(report.branch.auglag_iterations))
          .field("evals_per_step", per_step(report.branch.function_evals))
          .field("branch_us_per_step", us_per_step(p.branch_seconds))
          .field("lane_utilisation", report.branch.lane_utilisation())
          .field("branch_share", loop_total > 0.0 ? p.branch_seconds / loop_total : 0.0)
          .field("scenarios_per_second", report.scenarios_per_second());
      summary.emit();

      table.add_row({case_name, std::to_string(S), std::to_string(report.fused_steps),
                     Table::fixed(us_per_step(p.branch_seconds), 1),
                     Table::fixed(report.branch.lane_utilisation(), 3),
                     Table::fixed(per_step(report.branch.tron_iterations), 1),
                     Table::fixed(per_step(report.branch.cg_iterations), 1),
                     Table::fixed(per_step(report.branch.function_evals), 1),
                     Table::fixed(report.scenarios_per_second(), 1)});
    }
  }
  std::printf("\n");
  table.print();
  return 0;
}
