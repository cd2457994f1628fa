// perfbench: runs one benchmark workload and writes its raw result document.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --out=RESULT.json [--trace-file=TRACE.json]
//   perfbench --reference=track-1354|screen-case14 --variant=V --out=REF.json
//
// perfbench/run.py is the entry point; it builds this program and derives
// the metrics from the document.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/options.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const gridadmm::Options opts(argc, argv);
  const std::string out_path = opts.get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "perfbench: --out=PATH is required\n");
    return 2;
  }
  Json out;
  out.begin_object();
  try {
    const std::string reference = opts.get("reference", "");
    if (!reference.empty()) {
      const int variant = opts.get_int("variant", 0);
      if (reference == "track-1354") {
        reference_track(variant, out);
      } else if (reference == "screen-case14") {
        reference_screen(variant, out);
      } else {
        std::fprintf(stderr, "perfbench: no reference for '%s'\n", reference.c_str());
        return 2;
      }
    } else {
      Config cfg;
      cfg.workload = opts.get("workload", "");
      cfg.seed = std::stoull(opts.get("seed", "0"));
      cfg.seconds = opts.get_double("seconds", 10.0);
      cfg.trace = opts.get_int("trace", 0) != 0;
      cfg.trace_path = opts.get("trace-file", "");
      if (cfg.trace && cfg.trace_path.empty()) {
        std::fprintf(stderr, "perfbench: --trace=1 needs --trace-file=PATH\n");
        return 2;
      }
      out.field("workload", cfg.workload)
          .field("seed", cfg.seed)
          .field("seconds", cfg.seconds)
          .field("trace", cfg.trace)
          .field("hardware_threads", static_cast<int>(std::thread::hardware_concurrency()))
          .field("build_type", PERFBENCH_BUILD_TYPE);
      SetUp setup;
      if (cfg.workload == "track-1354") {
        setup = run_track(cfg, out);
      } else if (cfg.workload == "screen-case14") {
        setup = run_screen(cfg, out);
      } else if (cfg.workload == "serve-mix") {
        setup = run_serve(cfg, out);
      } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
        return 2;
      }
      // Read before the set-up rounds, so that they cannot raise it.
      out.field("peak_rss_mb", peak_rss_mb());
      if (!cfg.trace) out.array("setup_s", sample_setups(setup));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  out.end_object();
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(out.str().c_str(), file);
  std::fputc('\n', file);
  return std::fclose(file) == 0 ? 0 : 1;
}
