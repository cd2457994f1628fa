#include "scenario/batch_plan.hpp"

#include "common/error.hpp"

namespace gridadmm::scenario {

BatchPlan BatchPlan::create(std::span<const Scenario> scenarios,
                            const std::vector<std::vector<int>>& waves, int num_shards) {
  require(num_shards > 0, "BatchPlan: num_shards must be positive");
  const int S = static_cast<int>(scenarios.size());

  BatchPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of.assign(static_cast<std::size_t>(S), -1);
  plan.slot_of.assign(static_cast<std::size_t>(S), -1);
  plan.wave_of.assign(static_cast<std::size_t>(S), -1);
  plan.shard_capacity.assign(static_cast<std::size_t>(num_shards), 0);

  // Shard assignment: roots round-robin in scenario order, children follow
  // their parent (chaining is an on-device copy within one shard).
  int next_root_shard = 0;
  for (int s = 0; s < S; ++s) {
    const int parent = scenarios[static_cast<std::size_t>(s)].chain_from;
    int shard = 0;
    if (parent < 0) {
      shard = next_root_shard;
      next_root_shard = (next_root_shard + 1) % num_shards;
    } else {
      require(parent < s, "BatchPlan: chain_from must reference an earlier scenario");
      shard = plan.shard_of[static_cast<std::size_t>(parent)];
    }
    plan.shard_of[static_cast<std::size_t>(s)] = shard;
  }

  // Slots: rank within the scenario's (wave, shard) group; capacity is the
  // shard's largest wave.
  plan.wave_shards.assign(waves.size(), {});
  for (std::size_t d = 0; d < waves.size(); ++d) {
    auto& shards = plan.wave_shards[d];
    shards.assign(static_cast<std::size_t>(num_shards), {});
    for (const int s : waves[d]) {
      plan.wave_of[static_cast<std::size_t>(s)] = static_cast<int>(d);
      auto& group = shards[static_cast<std::size_t>(plan.shard_of[static_cast<std::size_t>(s)])];
      plan.slot_of[static_cast<std::size_t>(s)] = static_cast<int>(group.size());
      group.push_back(s);
    }
    for (int shard = 0; shard < num_shards; ++shard) {
      auto& capacity = plan.shard_capacity[static_cast<std::size_t>(shard)];
      capacity = std::max(capacity, static_cast<int>(shards[static_cast<std::size_t>(shard)].size()));
    }
  }
  return plan;
}

}  // namespace gridadmm::scenario
