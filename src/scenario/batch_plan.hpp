// BatchPlan: the "plan" half of the batch engine's plan/execute split.
//
// A plan decides, before any device memory is touched, (a) which shard —
// i.e. which device of a DevicePool — executes each scenario, and (b) which
// slot of that shard's wave buffers the scenario occupies. Execution then
// runs the existing fused kernels per shard, concurrently, without any
// kernel-level changes.
//
// Shard assignment is deterministic: warm-start chain roots are dealt
// round-robin over the shards in scenario order (slot s with no parent goes
// to shard root_rank(s) % num_shards), and a chained scenario always
// follows its parent's shard, because period-to-period chaining is an
// on-device copy that must stay within one device's memory. With one shard
// every scenario lands on shard 0 and the plan degenerates to the
// single-device layout, so the sharded solve is a strict generalization.
//
// Slots are per wave. Only consecutive waves interact (wave d chains from
// wave d - 1), so each shard holds min(2, num_waves) BatchAdmmStates sized
// to its largest wave: wave d executes in buffer d % 2 while buffer
// (d - 1) % 2 still holds the parent wave's iterates for the on-device
// chain copy, and wave d + 1 then reuses the parent buffer. Live
// batch-state memory is constant in the horizon length, and a one-wave set
// holds a single buffer.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "scenario/scenario.hpp"

namespace gridadmm::scenario {

struct BatchPlan {
  int num_shards = 1;

  std::vector<int> shard_of;  ///< global scenario -> shard
  /// Global scenario -> slot within its shard's wave buffer (rank within
  /// its (wave, shard) group).
  std::vector<int> slot_of;
  std::vector<int> wave_of;  ///< global scenario -> chain depth (wave index)

  /// [wave][shard] -> global scenario ids of that wave on that shard.
  std::vector<std::vector<std::vector<int>>> wave_shards;
  /// Slots each of a shard's wave buffers holds: its largest wave.
  std::vector<int> shard_capacity;

  [[nodiscard]] int num_waves() const { return static_cast<int>(wave_shards.size()); }
  /// Wave buffers per shard.
  [[nodiscard]] int num_buffers() const { return std::min(2, num_waves()); }
  /// The buffer scenario s runs (and stays resident) in.
  [[nodiscard]] int buffer_of(int s) const { return wave_of[static_cast<std::size_t>(s)] % 2; }

  /// Builds the deterministic plan for `scenarios` grouped into `waves`
  /// (ScenarioSet::waves() order: wave d chains from wave d - 1).
  static BatchPlan create(std::span<const Scenario> scenarios,
                          const std::vector<std::vector<int>>& waves, int num_shards);
};

}  // namespace gridadmm::scenario
