#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "device/buffer.hpp"
#include "device/device.hpp"
#include "device/fault.hpp"
#include "device/pool.hpp"

namespace gridadmm::device {
namespace {

TEST(Device, ExecutesEveryBlockExactlyOnce) {
  Device dev(4);
  std::vector<std::atomic<int>> counts(1000);
  dev.launch(1000, [&](int block) { counts[block].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Device, HandlesZeroBlocks) {
  Device dev(2);
  bool ran = false;
  dev.launch(0, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(dev.stats().launches, 1u);
}

TEST(Device, HandlesMoreBlocksThanWorkers) {
  Device dev(2);
  std::atomic<int> total{0};
  dev.launch(10000, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10000);
}

TEST(Device, LaneIndicesAreValid) {
  Device dev(3);
  std::atomic<bool> bad{false};
  dev.launch_with_lane(500, [&](int, int lane) {
    if (lane < 0 || lane >= 3) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(Device, LanesAreExclusive) {
  // Two blocks running on the same lane must never overlap: per-lane
  // counters need no synchronization.
  Device dev(4);
  std::vector<long> counters(4, 0);  // deliberately unsynchronized
  dev.launch_with_lane(20000, [&](int, int lane) { counters[lane] += 1; });
  EXPECT_EQ(std::accumulate(counters.begin(), counters.end(), 0L), 20000);
}

TEST(Device, LaneZeroIsTheCallingThread) {
  // The launching thread runs blocks as lane 0; helper threads are lanes
  // 1..n-1 and are never handed lane 0.
  Device dev(3);
  const auto caller = std::this_thread::get_id();
  for (int launch = 0; launch < 20; ++launch) {
    std::atomic<bool> lane0_ran{false};
    std::atomic<bool> mismatch{false};
    dev.launch_with_lane(200, [&](int, int lane) {
      if ((lane == 0) != (std::this_thread::get_id() == caller)) mismatch.store(true);
      if (lane == 0) {
        lane0_ran.store(true);
      } else {
        // Helpers hold their first block until the caller has run one, so
        // every launch exercises lane 0 whatever the wake-up timing.
        while (!lane0_ran.load()) std::this_thread::yield();
      }
    });
    EXPECT_FALSE(mismatch.load()) << "launch " << launch;
    EXPECT_TRUE(lane0_ran.load()) << "launch " << launch;
  }
}

TEST(Device, SingleLaneDeviceRunsEveryBlockOnTheCaller) {
  Device dev(1);
  EXPECT_EQ(dev.workers(), 1);
  const auto caller = std::this_thread::get_id();
  int ran = 0;
  int off_caller = 0;
  dev.launch_with_lane(1000, [&](int, int lane) {
    ++ran;
    if (lane != 0 || std::this_thread::get_id() != caller) ++off_caller;
  });
  EXPECT_EQ(ran, 1000);
  EXPECT_EQ(off_caller, 0);
}

TEST(Device, LaneZeroExceptionWaitsForEveryBlockAndHelper) {
  // A block that throws on lane 0 is rethrown only after every other block
  // has run and every helper has left the kernel.
  Device dev(3);
  constexpr int kBlocks = 200;
  std::atomic<bool> lane0_ran{false};
  std::atomic<bool> thrown{false};
  std::atomic<int> ran{0};
  std::atomic<int> inside{0};
  EXPECT_THROW(dev.launch_with_lane(kBlocks,
                                    [&](int, int lane) {
                                      if (lane == 0) {
                                        lane0_ran.store(true);
                                        if (!thrown.exchange(true)) {
                                          throw GridError("lane 0 block");
                                        }
                                        ran.fetch_add(1);
                                        return;
                                      }
                                      inside.fetch_add(1);
                                      while (!lane0_ran.load()) std::this_thread::yield();
                                      std::this_thread::sleep_for(std::chrono::microseconds(50));
                                      ran.fetch_add(1);
                                      inside.fetch_sub(1);
                                    }),
               GridError);
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(ran.load(), kBlocks - 1);
  EXPECT_EQ(inside.load(), 0);
}

TEST(Device, PropagatesKernelException) {
  Device dev(2);
  EXPECT_THROW(
      dev.launch(100, [&](int block) {
        if (block == 57) throw GridError("bad block");
      }),
      GridError);
  // Device remains usable afterwards.
  std::atomic<int> total{0};
  dev.launch(10, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

TEST(Device, RejectsNegativeBlockCount) {
  Device dev(1);
  EXPECT_THROW(dev.launch(-1, [](int) {}), GridError);
}

TEST(Device, CountsLaunchStats) {
  Device dev(2);
  dev.reset_stats();
  dev.launch(10, [](int) {});
  dev.launch(20, [](int) {});
  EXPECT_EQ(dev.stats().launches, 2u);
  EXPECT_EQ(dev.stats().blocks, 30u);
}

TEST(Device, SequentialLaunchesSeeEachOthersWrites) {
  Device dev(4);
  std::vector<double> data(1000, 0.0);
  dev.launch(1000, [&](int i) { data[i] = i; });
  std::vector<double> copy(1000, 0.0);
  dev.launch(1000, [&](int i) { copy[i] = 2.0 * data[i]; });
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(copy[i], 2.0 * i);
}

TEST(DeviceBuffer, CountsTransfers) {
  const auto before = transfer_stats();
  DeviceBuffer<double> buf(100, 1.0);
  std::vector<double> host(100, 3.0);
  buf.upload(host);
  EXPECT_EQ(transfer_stats().host_to_device, before.host_to_device + 1);
  auto out = buf.to_host();
  EXPECT_EQ(transfer_stats().device_to_host, before.device_to_host + 1);
  EXPECT_DOUBLE_EQ(out[50], 3.0);
  EXPECT_EQ(transfer_stats().bytes, before.bytes + 2 * 100 * sizeof(double));
}

TEST(DeviceBuffer, AllocationsAreCacheLineAligned) {
  // Every buffer starts on a 64-byte boundary, so the per-worker
  // partial-reduction rows of the fused kernels never share a cache line.
  for (const std::size_t n : {1u, 7u, 8u, 63u, 64u, 1000u, 4097u}) {
    DeviceBuffer<double> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDeviceAlignment, 0u)
        << "size " << n;
    DeviceBuffer<unsigned char> bytes(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) % kDeviceAlignment, 0u)
        << "size " << n;
  }
  // Copies and moves land on aligned storage too.
  DeviceBuffer<double> original(100, 1.5);
  DeviceBuffer<double> copy = original;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % kDeviceAlignment, 0u);
  DeviceBuffer<double> moved = std::move(copy);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) % kDeviceAlignment, 0u);
}

TEST(DeviceBuffer, UploadRejectsSizeMismatch) {
  DeviceBuffer<double> buf(10);
  std::vector<double> wrong(5, 0.0);
  EXPECT_THROW(buf.upload(wrong), GridError);
}

TEST(DeviceBuffer, FillAndSpan) {
  DeviceBuffer<int> buf(5);
  buf.fill(7);
  for (const int v : buf.span()) EXPECT_EQ(v, 7);
}

TEST(DeviceBuffer, AllocationAccountingTracksLifecycle) {
  const auto before = allocation_stats();
  {
    DeviceBuffer<double> buf(100);
    EXPECT_EQ(allocation_stats().live_bytes, before.live_bytes + 100 * sizeof(double));
    buf.resize(250);
    EXPECT_EQ(allocation_stats().live_bytes, before.live_bytes + 250 * sizeof(double));
    buf.resize(50);
    EXPECT_EQ(allocation_stats().live_bytes, before.live_bytes + 50 * sizeof(double));
    // A copy is a second allocation; a move transfers ownership.
    DeviceBuffer<double> copy = buf;
    EXPECT_EQ(allocation_stats().live_bytes, before.live_bytes + 100 * sizeof(double));
    DeviceBuffer<double> moved = std::move(copy);
    EXPECT_EQ(allocation_stats().live_bytes, before.live_bytes + 100 * sizeof(double));
  }
  EXPECT_EQ(allocation_stats().live_bytes, before.live_bytes);
  EXPECT_GE(allocation_stats().peak_bytes, before.live_bytes + 250 * sizeof(double));
}

TEST(DeviceBuffer, ResetAllocationPeakRebasesToLive) {
  DeviceBuffer<double> persistent(64);
  { DeviceBuffer<double> spike(100000); }
  const auto live = allocation_stats().live_bytes;
  EXPECT_GE(allocation_stats().peak_bytes, live + 100000 * sizeof(double));
  reset_allocation_peak();
  EXPECT_EQ(allocation_stats().peak_bytes, live);
}

TEST(DevicePool, PerDeviceAttributionSumsToAggregate) {
  DevicePool pool(3, 1);
  ASSERT_EQ(pool.size(), 3);
  pool.reset_stats();
  pool.device(0).launch(10, [](int) {});
  pool.device(1).launch(20, [](int) {});
  pool.device(1).launch(5, [](int) {});
  pool.device(2).launch(40, [](int) {});

  EXPECT_EQ(pool.stats(0).launches, 1u);
  EXPECT_EQ(pool.stats(0).blocks, 10u);
  EXPECT_EQ(pool.stats(1).launches, 2u);
  EXPECT_EQ(pool.stats(1).blocks, 25u);
  EXPECT_EQ(pool.stats(2).launches, 1u);
  EXPECT_EQ(pool.stats(2).blocks, 40u);

  const auto total = pool.aggregate_stats();
  EXPECT_EQ(total.launches, pool.stats(0).launches + pool.stats(1).launches + pool.stats(2).launches);
  EXPECT_EQ(total.blocks, pool.stats(0).blocks + pool.stats(1).blocks + pool.stats(2).blocks);
}

TEST(DevicePool, DevicesLaunchConcurrently) {
  // Two pool devices must make independent progress: each thread drives its
  // own device and neither serializes behind the other's launches.
  DevicePool pool(2, 2);
  std::atomic<int> total{0};
  std::thread other([&] {
    for (int i = 0; i < 50; ++i) pool.device(1).launch(100, [&](int) { total.fetch_add(1); });
  });
  for (int i = 0; i < 50; ++i) pool.device(0).launch(100, [&](int) { total.fetch_add(1); });
  other.join();
  EXPECT_EQ(total.load(), 10000);
}

TEST(DevicePool, SplitsWorkersAcrossDevicesByDefault) {
  DevicePool pool(2);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 4;
  const int expected = std::max(1, hw / 2);
  EXPECT_EQ(pool.device(0).workers(), expected);
  EXPECT_EQ(pool.device(1).workers(), expected);
}

TEST(DevicePool, RejectsBadArguments) {
  EXPECT_THROW(DevicePool pool(0), GridError);
  DevicePool pool(2, 1);
  EXPECT_THROW(static_cast<void>(pool.device(2)), GridError);
  EXPECT_THROW(static_cast<void>(pool.device(-1)), GridError);
}

// ---------------------------------------------------------------------------
// FaultInjector (ISSUE 9): deterministic fault plans at the Device layer.
// ---------------------------------------------------------------------------

/// Disarms the process-wide injector on every exit path.
struct FaultScope {
  explicit FaultScope(const FaultPlan& plan) { FaultInjector::instance().configure(plan); }
  ~FaultScope() { FaultInjector::instance().disable(); }
};

TEST(FaultInjector, DisabledByDefault) { EXPECT_FALSE(FaultInjector::enabled()); }

TEST(FaultInjector, ParsesTheSpecGrammar) {
  const auto plan =
      FaultInjector::parse_spec("seed=42;launch=0.02;latency=0.01:2ms;alloc=0.5;shard=1;"
                                "warmup=10;cooldown=2000;limit=3");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.launch_fail_probability, 0.02);
  EXPECT_DOUBLE_EQ(plan.latency_spike_probability, 0.01);
  EXPECT_DOUBLE_EQ(plan.latency_spike_seconds, 0.002);
  EXPECT_DOUBLE_EQ(plan.alloc_fail_probability, 0.5);
  EXPECT_EQ(plan.shard, 1);
  EXPECT_EQ(plan.warmup, 10u);
  EXPECT_EQ(plan.cooldown, 2000u);
  EXPECT_EQ(plan.limit, 3u);
  // Duration suffixes: default seconds, ms, us.
  EXPECT_DOUBLE_EQ(FaultInjector::parse_spec("latency=1:0.5").latency_spike_seconds, 0.5);
  EXPECT_DOUBLE_EQ(FaultInjector::parse_spec("latency=1:250us").latency_spike_seconds, 250e-6);
}

TEST(FaultInjector, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjector::parse_spec("bogus=1"), ValidationError);
  EXPECT_THROW(FaultInjector::parse_spec("launch=1.5"), ValidationError);
  EXPECT_THROW(FaultInjector::parse_spec("launch=-0.1"), ValidationError);
  EXPECT_THROW(FaultInjector::parse_spec("launch"), ValidationError);
  EXPECT_THROW(FaultInjector::parse_spec("latency=0.5"), ValidationError);  // missing :DUR
  EXPECT_THROW(FaultInjector::parse_spec("seed=notanumber"), ValidationError);
}

TEST(FaultInjector, FaultSequenceIsDeterministicInTheSeed) {
  FaultPlan plan;
  plan.seed = 3;
  plan.launch_fail_probability = 0.3;
  auto failure_pattern = [&]() {
    FaultScope scope(plan);
    std::vector<int> failed_at;
    for (int k = 0; k < 200; ++k) {
      try {
        FaultInjector::instance().on_launch(0);
      } catch (const TransientDeviceError&) {
        failed_at.push_back(k);
      }
    }
    return failed_at;
  };
  const auto first = failure_pattern();
  const auto second = failure_pattern();
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);
  EXPECT_EQ(first, second);  // same plan => bit-identical fault sequence

  FaultPlan other = plan;
  other.seed = 4;
  FaultScope scope(other);
  std::vector<int> third;
  for (int k = 0; k < 200; ++k) {
    try {
      FaultInjector::instance().on_launch(0);
    } catch (const TransientDeviceError&) {
      third.push_back(k);
    }
  }
  EXPECT_NE(first, third);  // different seed => different sequence
}

TEST(FaultInjector, WarmupCooldownAndLimitGateInjection) {
  FaultPlan plan;
  plan.launch_fail_probability = 1.0;
  plan.warmup = 2;
  plan.cooldown = 3;
  plan.limit = 2;
  FaultScope scope(plan);
  std::vector<int> failed_at;
  for (int k = 0; k < 12; ++k) {
    try {
      FaultInjector::instance().on_launch(0);
    } catch (const TransientDeviceError&) {
      failed_at.push_back(k);
    }
  }
  // Events 0-1 are warmup; 2 fails; 3-5 cool down; 6 fails; limit reached.
  EXPECT_EQ(failed_at, (std::vector<int>{2, 6}));
  const auto counters = FaultInjector::instance().counters();
  EXPECT_EQ(counters.launch_failures, 2u);
  EXPECT_EQ(counters.events_seen, 12u);
}

TEST(FaultInjector, ShardFilterOnlyHitsTheTargetDevice) {
  FaultPlan plan;
  plan.launch_fail_probability = 1.0;
  plan.shard = 1;
  FaultScope scope(plan);
  EXPECT_NO_THROW(FaultInjector::instance().on_launch(0));
  EXPECT_THROW(FaultInjector::instance().on_launch(1), TransientDeviceError);
}

TEST(FaultInjector, InjectsThroughDeviceLaunchAndBufferGrowth) {
  // The real hook sites: Device::launch throws the typed transient error
  // without running the kernel's effects being visible as success, and
  // DeviceBuffer growth fails before the allocation is accounted.
  FaultPlan plan;
  plan.launch_fail_probability = 1.0;
  plan.alloc_fail_probability = 1.0;
  FaultScope scope(plan);

  Device dev(2);
  dev.set_trace_id(0);
  EXPECT_THROW(dev.launch(4, [](int) {}), TransientDeviceError);

  const auto counters = FaultInjector::instance().counters();
  EXPECT_GE(counters.launch_failures, 1u);

  EXPECT_THROW(DeviceBuffer<double>(256), TransientDeviceError);
  EXPECT_GE(FaultInjector::instance().counters().alloc_failures, 1u);
}

TEST(FaultInjector, LatencySpikeSleepsWithoutFailing) {
  FaultPlan plan;
  plan.latency_spike_probability = 1.0;
  plan.latency_spike_seconds = 1e-4;
  FaultScope scope(plan);
  EXPECT_NO_THROW(FaultInjector::instance().on_launch(0));
  EXPECT_EQ(FaultInjector::instance().counters().latency_spikes, 1u);
  EXPECT_EQ(FaultInjector::instance().counters().launch_failures, 0u);
}

}  // namespace
}  // namespace gridadmm::device
