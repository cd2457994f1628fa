#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "device/device.hpp"

namespace perfbench {

void Json::key(const char* k) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (k != nullptr) {
    out_ += '"';
    out_ += k;
    out_ += "\":";
  }
}

Json& Json::begin_object(const char* k) {
  key(k);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array(const char* k) {
  key(k);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::value(double v) {
  key(nullptr);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::field(const char* k, double v) {
  key(k);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::field(const char* k, std::int64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::field(const char* k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::field(const char* k, const std::string& v) {
  key(k);
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

Json& Json::array(const char* k, const std::vector<double>& values) {
  begin_array(k);
  for (const double v : values) value(v);
  return end_array();
}

Json& Json::array(const char* k, const std::vector<int>& values) {
  begin_array(k);
  for (const int v : values) value(static_cast<double>(v));
  return end_array();
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Switches switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_nvcsw, ru.ru_nivcsw};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark. getrusage's ru_maxrss would
  // not do: Linux carries it over from the parent across fork and exec, so
  // it reads at least the launching interpreter's resident set.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::vector<double> sample_setups(const SetUp& setup) {
  // The vCPUs of a shared host run at different speeds from one moment to
  // the next (most likely another guest on the same core): a case14 screen
  // set-up takes 100-130 us on a free vCPU and 160-200 us on a busy one, and
  // the state changes within a quarter second. A set-up sampled at one
  // moment on one vCPU reads that state, so each round visits every CPU and
  // the rounds are spread over three seconds.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<double> rounds;
  const double start = now_s();
  for (int round = 0; round < kSetupRounds; ++round) {
    const double due = start + round * kSetupPeriodS;
    const double wait = due - now_s();
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    double sum = 0.0;
    for (const int cpu : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      setup();  // untimed: refills this CPU's caches after the move and the pause
      sum += setup();
    }
    rounds.push_back(sum / static_cast<double>(cpus.size()));
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  return rounds;
}

void probe_launch(int workers, Json& out) {
  gridadmm::device::Device dev(workers);
  constexpr int kRepeats = 2000;
  out.begin_object("launch_us");
  for (const int blocks : {9, 64, 1991}) {
    const auto noop = [](int) {};
    for (int i = 0; i < 200; ++i) dev.launch(blocks, noop);  // warm-up
    std::vector<double> us;
    us.reserve(kRepeats);
    for (int i = 0; i < kRepeats; ++i) {
      const double t0 = now_s();
      dev.launch(blocks, noop);
      us.push_back((now_s() - t0) * 1e6);
    }
    out.field(std::to_string(blocks).c_str(), median(us));
  }
  out.end_object();
}

}  // namespace perfbench
