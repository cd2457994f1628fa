// Shared pieces of the repository benchmark: run configuration, a minimal
// JSON writer for the raw result document, and small statistics helpers.
//
// The C++ program runs one workload and writes every measured sample and
// counter to a JSON document; perfbench/run.py turns that document into the
// metrics, checks the answers against the stored references, and analyses
// the trace of a traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;   ///< measured time budget of one run
  bool trace = false;      ///< traced run: per-layer spans and counters
  std::string trace_path;  ///< Chrome trace JSON of the traced section
};

/// Builds a workload's whole set-up (inputs and the device, solver or
/// service it constructs before its first operation), tears it down, and
/// returns the wall seconds of the build alone.
using SetUp = std::function<double()>;

/// setup_s is the median of kSetupRounds rounds, started kSetupPeriodS apart
/// (about 3 s in all) after the measured operations. A round sets up once on
/// every CPU the process may run on, pinned to it, and its sample is the
/// mean over the CPUs. See sample_setups.
constexpr int kSetupRounds = 61;
constexpr double kSetupPeriodS = 0.05;

/// Streaming JSON writer. Keys and strings are written verbatim apart from
/// quote/backslash escaping; numbers use %.17g so no digit is lost.
class Json {
 public:
  Json& begin_object(const char* key = nullptr);
  Json& end_object();
  Json& begin_array(const char* key = nullptr);
  Json& end_array();
  Json& field(const char* key, double value);
  Json& field(const char* key, std::int64_t value);
  Json& field(const char* key, int value) { return field(key, static_cast<std::int64_t>(value)); }
  Json& field(const char* key, std::uint64_t value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  Json& field(const char* key, bool value);
  Json& field(const char* key, const std::string& value);
  Json& field(const char* key, const char* value) { return field(key, std::string(value)); }
  Json& array(const char* key, const std::vector<double>& values);
  Json& array(const char* key, const std::vector<int>& values);
  Json& value(double v);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void key(const char* k);
  std::string out_;
  std::vector<bool> first_;
};

/// Seconds on the steady clock (the clock every bench timing uses).
double now_s();
/// CPU seconds consumed by all threads of the process so far.
double cpu_s();
/// Context switches of the process so far; involuntary ones show whether the
/// service's threads share vCPUs (see serve_mix.cpp, kSettleSeconds).
struct Switches {
  long voluntary = 0, involuntary = 0;
};
Switches switches();
double median(std::vector<double> values);
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Times Device::launch of a no-op kernel on a `workers`-thread device at
/// 9, 64 and 1,991 blocks; writes the median microseconds per launch of
/// each size as "launch_us" {"9": .., "64": .., "1991": ..}.
void probe_launch(int workers, Json& out);

/// Returns one sample per round (see kSetupRounds); restores the thread's
/// CPU affinity before it returns.
std::vector<double> sample_setups(const SetUp& setup);

/// Each runs one workload, writes its document, and returns its set-up.
SetUp run_track(const Config& cfg, Json& out);
SetUp run_screen(const Config& cfg, Json& out);
SetUp run_serve(const Config& cfg, Json& out);
/// Reference mode: the MiniIPM objectives the correctness gate compares
/// against, for one input variant of a solve workload.
void reference_track(int variant, Json& out);
void reference_screen(int variant, Json& out);

/// Number of input variants of the solve workloads: --seed picks variant
/// seed % kVariants, and perfbench/refs holds one reference per variant.
constexpr int kVariants = 10;

}  // namespace perfbench
