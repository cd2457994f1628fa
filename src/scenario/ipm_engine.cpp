#include "scenario/ipm_engine.hpp"

#include <string>

#include "common/error.hpp"
#include "ipm/acopf_nlp.hpp"
#include "obs/trace.hpp"

namespace gridadmm::scenario {

IpmEngineResult solve_scenario_ipm(const grid::Network& base, const Scenario& sc,
                                   const IpmEngineOptions& options) {
  require_valid(sc.pd.size() == static_cast<std::size_t>(base.num_buses()) &&
                    sc.qd.size() == static_cast<std::size_t>(base.num_buses()),
                "solve_scenario_ipm: scenario loads do not match the network");

  // Scenario topology and loads. Connectivity was validated when the
  // scenario entered a ScenarioSet; skip the re-check here.
  grid::Network net = sc.outage_branch >= 0
                          ? grid::network_without_branch(base, sc.outage_branch,
                                                         /*check_connectivity=*/false)
                          : base;
  for (int i = 0; i < net.num_buses(); ++i) {
    net.buses[static_cast<std::size_t>(i)].pd = sc.pd[static_cast<std::size_t>(i)];
    net.buses[static_cast<std::size_t>(i)].qd = sc.qd[static_cast<std::size_t>(i)];
  }

  IpmEngineResult out;
  {
    ipm::AcopfNlp nlp(net);
    ipm::IpmSolver solver(nlp, options.ipm);
    const obs::TraceSpan span("ipm.solve", "vars", static_cast<std::uint64_t>(nlp.num_vars()));
    out.ipm = solver.solve();
    if (out.ipm.status != ipm::IpmStatus::kOptimal) {
      throw ConvergenceError(
          "ipm engine: scenario '" + sc.name + "' did not converge: status=" +
          ipm::ipm_status_name(out.ipm.status) +
          " iterations=" + std::to_string(out.ipm.iterations) +
          " kkt_error=" + std::to_string(out.ipm.kkt_error) +
          " violation=" + std::to_string(out.ipm.constraint_violation));
    }
    out.solution = nlp.unpack(solver.primal());
  }
  out.quality = grid::evaluate_solution(net, out.solution);
  return out;
}

}  // namespace gridadmm::scenario
