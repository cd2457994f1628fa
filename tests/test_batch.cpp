// The batch engine's plan: shard assignment, per-wave slots and the number
// of wave buffers each shard holds.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/batch_plan.hpp"

namespace gridadmm::scenario {
namespace {

TEST(BatchPlan, RoundRobinRootsAreDeterministicAndChildrenFollowParents) {
  std::vector<Scenario> scenarios(7);
  // Scenarios 0-3 are roots; 4 chains from 1, 5 from 4, 6 from 3.
  scenarios[4].chain_from = 1;
  scenarios[5].chain_from = 4;
  scenarios[6].chain_from = 3;
  const std::vector<std::vector<int>> waves = {{0, 1, 2, 3}, {4, 6}, {5}};

  const auto plan = BatchPlan::create(scenarios, waves, 3);
  // Roots deal round-robin in scenario order: 0->0, 1->1, 2->2, 3->0.
  EXPECT_EQ(plan.shard_of, (std::vector<int>{0, 1, 2, 0, 1, 1, 0}));
  EXPECT_EQ(plan.wave_of, (std::vector<int>{0, 0, 0, 0, 1, 2, 1}));
  // Slots are the rank within a scenario's (wave, shard) group, so every
  // wave starts again at slot 0.
  EXPECT_EQ(plan.slot_of, (std::vector<int>{0, 0, 0, 1, 0, 0, 0}));
  // Capacity is each shard's largest wave, not its scenario count.
  EXPECT_EQ(plan.shard_capacity, (std::vector<int>{2, 1, 1}));
  // Three waves alternate between two buffers.
  EXPECT_EQ(plan.num_buffers(), 2);
  EXPECT_EQ(plan.buffer_of(5), 0);  // wave 2 reuses wave 0's buffer
  EXPECT_EQ(plan.buffer_of(6), 1);
  // Identical inputs give an identical plan (deterministic assignment).
  const auto again = BatchPlan::create(scenarios, waves, 3);
  EXPECT_EQ(again.shard_of, plan.shard_of);
  EXPECT_EQ(again.slot_of, plan.slot_of);

  // A one-wave set needs one buffer per shard.
  const std::vector<Scenario> roots(5);
  const auto flat = BatchPlan::create(roots, {{0, 1, 2, 3, 4}}, 2);
  EXPECT_EQ(flat.num_buffers(), 1);
  EXPECT_EQ(flat.shard_capacity, (std::vector<int>{3, 2}));
  EXPECT_EQ(flat.slot_of, (std::vector<int>{0, 0, 1, 1, 2}));
}

}  // namespace
}  // namespace gridadmm::scenario
