// DevicePool: N independent simulated devices for sharded execution.
//
// The batch engine shards a scenario set across the pool — each shard's
// fused kernels run on its own Device (its own lanes, its own
// LaunchStats), so shard launches proceed concurrently and every launch is
// attributable to the device that issued it. Device itself is unchanged;
// the pool only owns instances and aggregates their counters.
#pragma once

#include <memory>
#include <vector>

#include "device/device.hpp"

namespace gridadmm::device {

/// A fixed-size pool of independent Devices.
///
/// By default the host's hardware concurrency is split evenly across the
/// pool (max(1, hw / num_devices) lanes per device, the thread driving the
/// device included), so a D-device pool uses roughly the same total
/// parallelism as one default Device — sharding reallocates lanes, it does
/// not oversubscribe them.
class DevicePool {
 public:
  /// Creates `num_devices` devices with `workers_per_device` lanes each
  /// (0 = split hardware concurrency evenly across the pool).
  explicit DevicePool(int num_devices, int workers_per_device = 0);
  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }

  [[nodiscard]] Device& device(int d);
  [[nodiscard]] const Device& device(int d) const;

  /// Counters of one device (per-shard attribution).
  [[nodiscard]] const LaunchStats& stats(int d) const { return device(d).stats(); }

  /// Sum of every device's counters.
  [[nodiscard]] LaunchStats aggregate_stats() const;

  void reset_stats();

 private:
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace gridadmm::device
