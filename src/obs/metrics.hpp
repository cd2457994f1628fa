// Metrics registry: named counters, gauges, and exponential-bucket
// histograms with Prometheus-style text exposition and JSONL snapshots.
//
// Instruments are created once (registry mutex held) and then updated
// lock-free through the returned reference — atomic increments only, no
// lookups or allocations on the hot path. The registry owns instrument
// storage for its lifetime, so references stay valid. A SolveService keeps
// all of its telemetry in one registry, and serve::ServiceStats is a
// read-only view of it (serve/stats.hpp); the bench harnesses use
// registries too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gridadmm::obs {

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over exponential buckets: bucket i counts observations in
/// (bound[i-1], bound[i]] with bound[i] = lowest * growth^i, plus one
/// overflow bucket. Observation is two relaxed atomic increments and one
/// atomic add. Count and sum are exact; quantiles are bucketed: the
/// nearest rank (rounded up) is interpolated within the bucket that holds
/// it, biased to the bucket's upper bound (a lone sample reads as that
/// bound).
class Histogram {
 public:
  /// `lowest` is the first bucket's upper bound (> 0); `growth` > 1;
  /// `buckets` finite buckets plus the implicit overflow bucket.
  Histogram(double lowest, double growth, int buckets);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const;
  /// q in [0, 1]; returns 0 when empty. The overflow bucket reports the
  /// largest finite bound (quantiles saturate there).
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the finite buckets plus the overflow count (last entry).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;  ///< finite upper bounds, ascending
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument registry. get-or-create by (name, kind); re-getting
/// an existing name with the same kind returns the same instrument, so
/// independent components can share series. Exposition formats:
/// Prometheus text (histograms as cumulative `le` buckets + sum + count)
/// and single-line JSON snapshots for the bench JSONL artifact pipeline.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       double lowest = 1e-5, double growth = 2.0, int buckets = 24);

  /// Prometheus text exposition of every instrument.
  [[nodiscard]] std::string expose_prometheus() const;
  /// One JSON object ("{\"metric\": value, ...}") with counters, gauges,
  /// and histogram count/sum/p50/p95/p99 series — the JSONL snapshot.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const std::string& help, Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< stable addresses
};

}  // namespace gridadmm::obs
