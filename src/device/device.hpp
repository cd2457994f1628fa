// Simulated-GPU execution layer.
//
// The paper runs every ADMM kernel on an Nvidia GV100 with a CUDA-style
// programming model: a kernel is launched over a 1-D grid of thread blocks,
// one block per independent subproblem, and all state lives in device memory
// so no host<->device transfer happens inside the solver loop.
//
// This sandbox has no GPU, so this module reproduces the *programming model*
// and the *execution semantics* on CPU lanes:
//   - Device::launch(nblocks, kernel, work_us) invokes kernel(block) for
//     every block index, scheduling blocks dynamically over the device's
//     lanes. Lane 0 is the thread that calls launch: it runs blocks itself
//     and then waits only for the helper threads (lanes 1..n-1) still inside
//     the kernel;
//   - a launch wakes the helpers only when it is worth a wake-up: its
//     launcher's estimate of the work it holds (work_us), times the share
//     (n-1)/n the helpers would take off the caller, must exceed the cost of
//     a fan-out on n lanes (fan_out_us(n)). Below that, lane 0 runs every
//     block. Launches without an estimate count as cheap blocks
//     (kCheapBlockUs each);
//   - DeviceBuffer<T> marks arrays as device-resident and counts every
//     host<->device transfer, so tests can assert the solver loop performs
//     zero transfers exactly as the paper claims;
//   - LaunchStats records kernel launches, and how many fanned out, for the
//     scaling benchmarks.
//
// The substitution is documented in DESIGN.md section 2.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gridadmm::device {

/// Wall time, in microseconds, that waking one helper lane adds to a launch.
inline constexpr double kHelperWakeUs = 7.5;

/// Wall time, in microseconds, that a fan-out adds to a launch on `lanes`
/// lanes: a launch of W us of fixed work whose helpers run on CPUs of their
/// own takes about W / lanes + fan_out_us(lanes). It grows with the helpers
/// woken, from a floor of two wake-ups: one helper cost about as much as
/// two. Measured on a 4-vCPU VM (Intel Xeon, shared host), median (range):
/// 10.6 us (5-17) on 2 lanes, 11.6 (7-15) on 3, 17.2 (13-26) on 4; each
/// woken helper also burns about 10 us of CPU. DESIGN.md section 2 says how
/// to repeat the measurement.
constexpr double fan_out_us(int lanes) { return kHelperWakeUs * std::max(2, lanes - 1); }

/// Estimated cost, in microseconds, of a block whose launcher gives no
/// estimate: a few loads and stores, like an outer multiplier block.
inline constexpr double kCheapBlockUs = 0.01;

/// Aggregate statistics for one Device instance.
struct LaunchStats {
  std::uint64_t launches = 0;        ///< number of kernel launches
  std::uint64_t blocks = 0;          ///< total blocks executed
  std::uint64_t fan_outs = 0;        ///< launches that woke the helper lanes
  double busy_seconds = 0.0;         ///< wall time spent inside launches

  LaunchStats& operator+=(const LaunchStats& other) {
    launches += other.launches;
    blocks += other.blocks;
    fan_outs += other.fan_outs;
    busy_seconds += other.busy_seconds;
    return *this;
  }
};

/// Delta between two snapshots of the same device's counters.
inline LaunchStats operator-(const LaunchStats& a, const LaunchStats& b) {
  LaunchStats d;
  d.launches = a.launches - b.launches;
  d.blocks = a.blocks - b.blocks;
  d.fan_outs = a.fan_outs - b.fan_outs;
  d.busy_seconds = a.busy_seconds - b.busy_seconds;
  return d;
}

/// A set of execution lanes exposing a CUDA-like bulk launch API: the
/// launching thread is lane 0, persistent helper threads are lanes 1..n-1.
/// Thread-compatible: a Device may be shared, but launches are serialized.
class Device {
 public:
  /// Creates a device with `workers` lanes (0 = hardware concurrency). It
  /// starts workers - 1 helper threads; Device(1) starts none.
  explicit Device(int workers = 0);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  ~Device();

  /// Number of lanes (the simulated SM count), the launching thread
  /// included.
  [[nodiscard]] int workers() const { return lanes_; }

  /// Runs kernel(block) for block in [0, nblocks). Blocks until every
  /// kernel instance finished (CUDA launch + synchronize). Exceptions thrown
  /// by kernel instances are captured, every other block still runs, and
  /// the first exception is rethrown here. `work_us` is the launcher's
  /// estimate of the whole launch's work in microseconds: the helpers are
  /// woken only when work_us * (workers - 1) / workers > fan_out_us(workers),
  /// and otherwise the calling thread runs every block. Which lane runs a block
  /// never changes what the block computes.
  void launch(int nblocks, const std::function<void(int)>& kernel, double work_us);
  /// A launch of cheap blocks: work_us = nblocks * kCheapBlockUs.
  void launch(int nblocks, const std::function<void(int)>& kernel) {
    launch(nblocks, kernel, nblocks * kCheapBlockUs);
  }

  /// Like launch(), but hands the lane index [0, workers) to the kernel so
  /// it can use per-lane scratch memory without synchronization. Lane 0 is
  /// always the calling thread.
  void launch_with_lane(int nblocks, const std::function<void(int, int)>& kernel,
                        double work_us);
  void launch_with_lane(int nblocks, const std::function<void(int, int)>& kernel) {
    launch_with_lane(nblocks, kernel, nblocks * kCheapBlockUs);
  }

  [[nodiscard]] const LaunchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = LaunchStats{}; }

  /// Device label in trace output ("dev" arg of device.launch spans).
  /// DevicePool numbers its devices; the process-wide default stays 0.
  void set_trace_id(int id) { trace_id_ = id; }
  [[nodiscard]] int trace_id() const { return trace_id_; }

 private:
  void helper_main(int lane);
  void run_job(const std::function<void(int, int)>& kernel, int nblocks, double work_us);
  /// Claims chunks of the current job until none is left and runs them on
  /// `lane`, recording the first exception. Returns the blocks it ran.
  std::uint64_t run_blocks(const std::function<void(int, int)>& kernel, int nblocks, int lane);

  int lanes_ = 1;
  std::mutex launch_mu_;  ///< serializes launches
  LaunchStats stats_;     ///< written by the launching thread only
  int trace_id_ = 0;

  /// The current job, handed to helpers under mu_. A helper enters it only
  /// while `open_` and counts itself in `inside_`; the launcher closes the
  /// job once it has no block left to claim and waits for inside_ == 0, so
  /// no helper touches the job after launch returns.
  std::mutex mu_;
  std::condition_variable cv_job_;   ///< helpers wait for a new generation
  std::condition_variable cv_done_;  ///< the launcher waits for inside_ == 0
  const std::function<void(int, int)>* kernel_ = nullptr;
  int nblocks_ = 0;
  std::uint64_t generation_ = 0;
  bool open_ = false;
  int inside_ = 0;
  bool shutdown_ = false;
  std::atomic<int> next_block_{0};  ///< next unclaimed block of the job

  std::mutex error_mu_;
  std::exception_ptr first_error_;  ///< guarded by error_mu_

  std::vector<std::thread> helpers_;  ///< last: they use every member above
};

/// Returns a process-wide default device (lazily constructed).
Device& default_device();

/// The lane count a default Device resolves to: hardware concurrency
/// with a fixed fallback when it is unknown. Shared by Device, DevicePool's
/// even split, and the bench harnesses' telemetry so none can drift.
int default_worker_count();

/// RAII attribution of kernel launches: every launch issued on `dev` during
/// the scope's lifetime is accumulated into `out` at destruction. Used by
/// the batch engine to report launches per scenario batch, and by tests to
/// assert the fused batch solve issues fewer launches than sequential
/// solves. Scopes on the same device may nest; each sees its own window.
class LaunchStatsScope {
 public:
  LaunchStatsScope(Device& dev, LaunchStats& out)
      : dev_(dev), out_(out), start_(dev.stats()) {}
  LaunchStatsScope(const LaunchStatsScope&) = delete;
  LaunchStatsScope& operator=(const LaunchStatsScope&) = delete;
  ~LaunchStatsScope() { out_ += dev_.stats() - start_; }

 private:
  Device& dev_;
  LaunchStats& out_;
  LaunchStats start_;
};

}  // namespace gridadmm::device
