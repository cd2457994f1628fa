// Per-request stage timeline: nine timestamps on the obs::now_ns()
// trace clock, stamped as a request moves admit -> queue -> dispatch ->
// form -> stage -> solve -> extract -> ipm -> fulfill. The same stamps
// feed the tracer's span_between() calls, so a request's timeline and its
// trace spans can never drift apart — one clock, one set of instants, two
// views (this is the non-drift invariant DESIGN.md §11 documents).
//
// Consecutive stamps telescope: stage_seconds(0..7) sums exactly to
// total_seconds(). The struct is a POD carried inside serve::Pending and
// copied into each SolveResult at fulfillment — no allocation anywhere.
//
// Batch-scoped stages (everything from queue_ns through ipm_ns) are
// stamped once per batch and shared by all requests in it; admit_ns and
// fulfill_ns are per-request. The ipm stage is the MiniIPM rescue of the
// batch's non-converged members: it reads 0 when no member needed one.
#pragma once

#include <array>
#include <cstdint>

namespace gridadmm::serve {

struct RequestTimeline {
  std::uint64_t admit_ns = 0;     ///< submit() accepted the request
  std::uint64_t queue_ns = 0;     ///< dispatcher popped it from the queue
  std::uint64_t dispatch_ns = 0;  ///< a shard worker picked up its batch
  std::uint64_t form_ns = 0;      ///< batch ScenarioSet + seeds formed
  std::uint64_t stage_ns = 0;     ///< solver constructed / device staged
  std::uint64_t solve_ns = 0;     ///< ADMM solve returned
  std::uint64_t extract_ns = 0;   ///< per-request results extracted
  std::uint64_t ipm_ns = 0;       ///< IPM rescues of the batch done
  std::uint64_t fulfill_ns = 0;   ///< promise fulfilled (result visible)

  static constexpr int kStageCount = 8;

  static const char* stage_name(int stage) {
    constexpr const char* kNames[kStageCount] = {
        "queue", "dispatch", "form", "stage", "solve", "extract", "ipm", "fulfill"};
    return (stage >= 0 && stage < kStageCount) ? kNames[stage] : "?";
  }

  /// The nine stamps in stage order; stage i spans stamps[i]..stamps[i+1].
  [[nodiscard]] std::array<std::uint64_t, kStageCount + 1> stamps() const {
    return {admit_ns, queue_ns,   dispatch_ns, form_ns,   stage_ns,
            solve_ns, extract_ns, ipm_ns,      fulfill_ns};
  }

  /// Duration of stage `stage` in seconds.
  [[nodiscard]] double stage_seconds(int stage) const {
    if (stage < 0 || stage >= kStageCount) return 0.0;
    const auto s = stamps();
    const std::uint64_t begin = s[static_cast<std::size_t>(stage)];
    const std::uint64_t end = s[static_cast<std::size_t>(stage) + 1];
    return end > begin ? static_cast<double>(end - begin) * 1e-9 : 0.0;
  }

  /// End-to-end latency, admit to fulfill.
  [[nodiscard]] double total_seconds() const {
    return fulfill_ns > admit_ns ? static_cast<double>(fulfill_ns - admit_ns) * 1e-9 : 0.0;
  }

  /// True once every stamp is set and the sequence is monotone.
  [[nodiscard]] bool complete() const {
    const auto s = stamps();
    if (s.front() == 0 || s.back() == 0) return false;
    for (std::size_t i = 0; i + 1 < s.size(); ++i) {
      if (s[i + 1] < s[i]) return false;
    }
    return true;
  }
};

}  // namespace gridadmm::serve
