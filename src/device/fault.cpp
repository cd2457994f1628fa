#include "device/fault.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <string>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"

namespace gridadmm::device {

std::atomic<bool> FaultInjector::enabled_{false};

namespace {

/// Uniform double in [0, 1) from a pure (seed, event, stream) hash, so the
/// k-th event's fate never depends on thread interleaving history.
double event_uniform(std::uint64_t seed, std::uint64_t k, std::uint64_t stream) {
  std::uint64_t state = seed ^ (k * 0x9E3779B97F4A7C15ULL) ^ (stream << 56);
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Parses all of `value` as a T or throws ValidationError. std::stod and
/// friends stop at the first bad character ("0.5x" would read as 0.5,
/// "0x10" as 0); std::from_chars reports where it stopped.
template <typename T>
T parse_full(const std::string& key, const std::string& value) {
  T parsed{};
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, parsed);
  if (value.empty() || ec != std::errc{} || end != last) {
    throw ValidationError("FaultInjector: bad value for '" + key + "': " + value);
  }
  return parsed;
}

double parse_probability(const std::string& key, const std::string& value) {
  const double p = parse_full<double>(key, value);
  require_valid(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                "FaultInjector: '" + key + "' must be a probability in [0, 1]");
  return p;
}

std::uint64_t parse_count(const std::string& key, const std::string& value) {
  const long long n = parse_full<long long>(key, value);
  require_valid(n >= 0, "FaultInjector: '" + key + "' must be non-negative");
  return static_cast<std::uint64_t>(n);
}

/// Duration with an optional s/ms/us suffix (default seconds).
double parse_duration(const std::string& key, std::string value) {
  double scale = 1.0;
  if (value.size() > 2 && value.compare(value.size() - 2, 2, "ms") == 0) {
    scale = 1e-3;
    value.resize(value.size() - 2);
  } else if (value.size() > 2 && value.compare(value.size() - 2, 2, "us") == 0) {
    scale = 1e-6;
    value.resize(value.size() - 2);
  } else if (value.size() > 1 && value.back() == 's') {
    value.resize(value.size() - 1);
  }
  const double seconds = parse_full<double>(key, value) * scale;
  require_valid(std::isfinite(seconds) && seconds >= 0.0,
                "FaultInjector: '" + key + "' duration must be finite and non-negative");
  return seconds;
}

/// Arms the injector from GRIDADMM_FAULTS at static-init time, so the
/// `enabled()` gate is already true by the time any Device launches. A bad
/// spec logs and leaves the injector off rather than aborting the process.
const bool env_armed = [] {
  const auto spec = Options::env("GRIDADMM_FAULTS");
  if (!spec.has_value() || spec->empty()) return false;
  try {
    FaultInjector::instance().configure(FaultInjector::parse_spec(*spec));
  } catch (const std::exception& e) {
    log::warn("GRIDADMM_FAULTS ignored: ", e.what());
    return false;
  }
  return true;
}();

}  // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultPlan FaultInjector::parse_spec(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(pos, end - pos);
    pos = end + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    require_valid(eq != std::string::npos,
                  "FaultInjector: expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_count(key, value);
    } else if (key == "launch") {
      plan.launch_fail_probability = parse_probability(key, value);
    } else if (key == "alloc") {
      plan.alloc_fail_probability = parse_probability(key, value);
    } else if (key == "latency") {
      const std::size_t colon = value.find(':');
      require_valid(colon != std::string::npos,
                    "FaultInjector: 'latency' needs probability:duration (e.g. 0.01:2ms)");
      plan.latency_spike_probability = parse_probability(key, value.substr(0, colon));
      plan.latency_spike_seconds = parse_duration(key, value.substr(colon + 1));
    } else if (key == "shard") {
      plan.shard = parse_full<int>(key, value);
      require_valid(plan.shard >= -1, "FaultInjector: 'shard' must be >= -1");
    } else if (key == "warmup") {
      plan.warmup = parse_count(key, value);
    } else if (key == "cooldown") {
      plan.cooldown = parse_count(key, value);
    } else if (key == "limit") {
      plan.limit = parse_count(key, value);
    } else {
      throw ValidationError("FaultInjector: unknown spec key '" + key + "'");
    }
  }
  return plan;
}

void FaultInjector::configure(const FaultPlan& plan) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    plan_ = plan;
    counters_ = FaultCounters{};
    cooldown_remaining_ = 0;
    injected_ = 0;
  }
  enabled_.store(plan.any_fault(), std::memory_order_relaxed);
}

void FaultInjector::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

FaultCounters FaultInjector::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

FaultPlan FaultInjector::plan() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

FaultInjector::Action FaultInjector::decide_locked(std::uint64_t k, double fail_p,
                                                   double spike_p) {
  if (k < plan_.warmup) return Action::kNone;
  if (cooldown_remaining_ > 0) {
    --cooldown_remaining_;
    return Action::kNone;
  }
  if (plan_.limit > 0 && injected_ >= plan_.limit) return Action::kNone;
  Action action = Action::kNone;
  if (fail_p > 0.0 && event_uniform(plan_.seed, k, 1) < fail_p) {
    action = Action::kFail;
  } else if (spike_p > 0.0 && event_uniform(plan_.seed, k, 2) < spike_p) {
    action = Action::kSpike;
  }
  if (action != Action::kNone) {
    ++injected_;
    cooldown_remaining_ = plan_.cooldown;
  }
  return action;
}

void FaultInjector::on_launch(int device_id) {
  Action action = Action::kNone;
  double spike_seconds = 0.0;
  std::uint64_t event = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (plan_.shard >= 0 && device_id != plan_.shard) return;
    event = counters_.events_seen++;
    action = decide_locked(event, plan_.launch_fail_probability,
                           plan_.latency_spike_probability);
    if (action == Action::kFail) ++counters_.launch_failures;
    if (action == Action::kSpike) {
      ++counters_.latency_spikes;
      spike_seconds = plan_.latency_spike_seconds;
    }
  }
  // Act outside the lock: a spike must not stall other devices' hooks.
  if (action == Action::kSpike && spike_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(spike_seconds));
  } else if (action == Action::kFail) {
    throw TransientDeviceError("injected transient launch failure (device " +
                               std::to_string(device_id) + ", event " +
                               std::to_string(event) + ")");
  }
}

void FaultInjector::on_alloc(std::uint64_t bytes) {
  std::uint64_t event = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (plan_.alloc_fail_probability <= 0.0) return;
    event = counters_.events_seen++;
    if (decide_locked(event, plan_.alloc_fail_probability, 0.0) != Action::kFail) return;
    ++counters_.alloc_failures;
  }
  throw TransientDeviceError("injected transient allocation failure (" +
                             std::to_string(bytes) + " bytes, event " +
                             std::to_string(event) + ")");
}

}  // namespace gridadmm::device
