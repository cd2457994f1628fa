// Paper-size IPM rescue: one 1354pegase request whose ADMM budget is
// starved (150 inner x 1 outer iterations) goes to a SolveService with the
// engine router on (DESIGN.md §13). The fused ADMM cannot converge in that
// budget, so the request must come back converged from the cold-started
// MiniIPM rung.
//
// Prints one JSON record (bench "ipm_rescue"): converged, engine, the
// request's ipm-stage and total seconds, objective and max violation, or
// the typed error the future carried. Exits non-zero unless the request
// converged with engine "ipm". Takes about 5 s on a 4-vCPU VM, nearly all
// of it the MiniIPM solve, so it runs as a CI smoke rather than in ctest.
//
//   ./bench_ipm_rescue
#include <cstdio>
#include <utility>

#include "admm/params.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "grid/cases.hpp"
#include "serve/service.hpp"

int main() {
  using namespace gridadmm;
  constexpr const char* kCase = "1354pegase";
  constexpr int kInner = 150;
  constexpr int kOuter = 1;
  constexpr int kIpmStage = 6;  // RequestTimeline::stage_name(6) == "ipm"
  std::printf("# IPM rescue: %s, ADMM budget %d inner x %d outer, engine router on\n", kCase,
              kInner, kOuter);

  const grid::Network net = grid::load_case(kCase);
  serve::ServiceOptions options;
  options.engine_fallback = true;
  options.slo = true;  // stamps the request's stage timeline (the ipm stage)
  serve::SolveService service(net, admm::params_for_case(kCase, net.num_buses()), options);

  serve::SolveRequest request;
  for (const auto& bus : net.buses) {
    request.pd.push_back(bus.pd);
    request.qd.push_back(bus.qd);
  }
  request.controls.max_inner_iterations = kInner;
  request.controls.max_outer_iterations = kOuter;

  bench::JsonRecord record("ipm_rescue");
  record.field("case", kCase).field("inner_budget", kInner).field("outer_budget", kOuter);
  auto future = service.submit(std::move(request));
  try {
    const serve::SolveResult result = future.get();
    const bool rescued = result.converged && result.engine == serve::SolveEngine::kIpm;
    record.field("converged", result.converged)
        .field("engine", serve::engine_name(result.engine))
        .field("ipm_seconds", result.timeline.stage_seconds(kIpmStage))
        .field("total_seconds", result.total_seconds)
        .field("objective", result.objective)
        .field("max_violation", result.max_violation);
    record.emit();
    return rescued ? 0 : 1;
  } catch (const GridError& e) {
    record.field("converged", false).field("error", e.what());
    record.emit();
    return 1;
  }
}
