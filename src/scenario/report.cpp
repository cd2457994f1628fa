#include "scenario/report.hpp"

#include "common/table.hpp"

namespace gridadmm::scenario {

int ScenarioReport::num_converged() const {
  int n = 0;
  for (const auto& rec : records) n += rec.converged ? 1 : 0;
  return n;
}

double ScenarioReport::scenarios_per_second() const {
  if (solve_seconds <= 0.0) return 0.0;
  return static_cast<double>(records.size()) / solve_seconds;
}

void ScenarioReport::print(std::FILE* out) const {
  Table table({"#", "scenario", "kind", "conv", "inner", "objective ($/h)", "violation"});
  for (const auto& rec : records) {
    table.add_row({std::to_string(rec.index), rec.name, to_string(rec.kind),
                   rec.converged ? "yes" : "NO", std::to_string(rec.inner_iterations),
                   Table::fixed(rec.objective, 2), Table::sci(rec.max_violation, 2)});
  }
  std::fputs(table.to_string().c_str(), out);
  std::fprintf(out,
               "%d/%zu converged | solve %.3f s (%.1f scenarios/s) | "
               "%llu kernel launches, %llu blocks across %d shard%s | %llu transfers in loop | "
               "branch lane utilisation %.3f\n",
               num_converged(), records.size(), solve_seconds, scenarios_per_second(),
               static_cast<unsigned long long>(launch_stats.launches),
               static_cast<unsigned long long>(launch_stats.blocks), num_shards,
               num_shards == 1 ? "" : "s",
               static_cast<unsigned long long>(transfers_during_iterations),
               branch.lane_utilisation());
}

}  // namespace gridadmm::scenario
