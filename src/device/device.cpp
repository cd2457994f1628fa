#include "device/device.hpp"

#include "common/error.hpp"
#include "common/timer.hpp"
#include "device/fault.hpp"
#include "obs/trace.hpp"

namespace gridadmm::device {

namespace {
// Blocks are handed to lanes in chunks to amortize the atomic fetch for
// very small kernels (bus/generator updates are a few flops per block).
int chunk_size(int nblocks, int lanes) {
  const int target_chunks = lanes * 8;
  int chunk = nblocks / (target_chunks > 0 ? target_chunks : 1);
  if (chunk < 1) chunk = 1;
  if (chunk > 1024) chunk = 1024;
  return chunk;
}
}  // namespace

int default_worker_count() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 4;
}

Device::Device(int workers) : lanes_(workers > 0 ? workers : default_worker_count()) {
  helpers_.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int lane = 1; lane < lanes_; ++lane) {
    helpers_.emplace_back([this, lane] { helper_main(lane); });
  }
}

Device::~Device() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_job_.notify_all();
  for (auto& t : helpers_) t.join();
}

std::uint64_t Device::run_blocks(const std::function<void(int, int)>& kernel, int nblocks,
                                 int lane) {
  std::uint64_t executed = 0;
  const int chunk = chunk_size(nblocks, lanes_);
  while (true) {
    const int begin = next_block_.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= nblocks) break;
    const int end = begin + chunk < nblocks ? begin + chunk : nblocks;
    executed += static_cast<std::uint64_t>(end - begin);
    for (int block = begin; block < end; ++block) {
      try {
        kernel(block, lane);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
  }
  return executed;
}

void Device::helper_main(int lane) {
  obs::set_thread_name("device.worker");
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_job_.wait(lock, [&] { return shutdown_ || generation_ != seen_generation; });
    if (shutdown_) return;
    seen_generation = generation_;
    if (!open_) continue;  // the launcher ran out of blocks before this helper woke
    ++inside_;
    const std::function<void(int, int)>& kernel = *kernel_;
    const int nblocks = nblocks_;
    lock.unlock();
    // Per-job execution span: the window this helper spent running blocks
    // of the launch (skipped when it claimed none), so the trace shows the
    // launch fanned out across threads. Lane 0 records none: its blocks run
    // inside the launch span on the calling thread.
    const std::uint64_t exec_start = obs::Tracer::enabled() ? obs::now_ns() : 0;
    const std::uint64_t executed = run_blocks(kernel, nblocks, lane);
    if (executed > 0 && obs::Tracer::enabled()) {
      obs::span_between("device.exec", exec_start, obs::now_ns(), "blocks", executed, "dev",
                        static_cast<std::uint64_t>(trace_id_));
    }
    lock.lock();
    if (--inside_ == 0 && !open_) cv_done_.notify_one();
  }
}

void Device::run_job(const std::function<void(int, int)>& kernel, int nblocks, double work_us) {
  if (nblocks < 0) throw GridError("Device::launch: negative block count");
  const std::lock_guard<std::mutex> serialize(launch_mu_);
  // Fault hook before any work: an injected failure models a launch the
  // driver rejected (nothing executed, stats unchanged), a spike models a
  // stalled launch. One relaxed load when the injector is off.
  if (FaultInjector::enabled()) FaultInjector::instance().on_launch(trace_id_);
  const obs::TraceSpan launch_span("device.launch", "blocks",
                                   static_cast<std::uint64_t>(nblocks), "dev",
                                   static_cast<std::uint64_t>(trace_id_));
  WallTimer timer;
  // No helper is inside a job here (the previous launch waited for them),
  // so the block counter and the error slot can be reset before publishing.
  next_block_.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(error_mu_);
    first_error_ = nullptr;
  }
  // The helpers would take (lanes - 1) / lanes of the work off this thread;
  // wake them only when that saves more than the fan-out costs.
  const bool wake = nblocks > 1 && !helpers_.empty() &&
                    work_us * (lanes_ - 1) > fan_out_us(lanes_) * lanes_;
  if (wake) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      kernel_ = &kernel;
      nblocks_ = nblocks;
      open_ = true;
      ++generation_;
    }
    cv_job_.notify_all();
  }
  run_blocks(kernel, nblocks, 0);
  if (wake) {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = false;
    cv_done_.wait(lock, [&] { return inside_ == 0; });
  }
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lock(error_mu_);
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
  stats_.launches += 1;
  stats_.blocks += static_cast<std::uint64_t>(nblocks);
  stats_.fan_outs += wake ? 1 : 0;
  stats_.busy_seconds += timer.seconds();
}

void Device::launch(int nblocks, const std::function<void(int)>& kernel, double work_us) {
  const std::function<void(int, int)> wrapped = [&kernel](int block, int) { kernel(block); };
  run_job(wrapped, nblocks, work_us);
}

void Device::launch_with_lane(int nblocks, const std::function<void(int, int)>& kernel,
                              double work_us) {
  run_job(kernel, nblocks, work_us);
}

Device& default_device() {
  static Device device;
  return device;
}

}  // namespace gridadmm::device
