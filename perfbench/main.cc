// perfbench — the end-to-end benchmark of the vmsv engine (see NOTES.md).
//
//   perfbench --workload adapt|serve_rw|batch_sharded --seed N --seconds S
//             --trace 0|1 [--scratch-dir DIR]
//
// Prints context lines starting with '#', then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones plus the tracing overhead. Exits 2 on bad arguments and 1
// when the engine fails to set up, without a result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace vmsv {
namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "adapt|serve_rw|batch_sharded --seed N --seconds S --trace 0|1 "
               "[--scratch-dir DIR]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUint(value, &n)) return Usage("bad --seed");
      options.seed = n;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUint(value, &n) || n == 0) return Usage("bad --seconds");
      options.seconds = static_cast<double>(n);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUint(value, &n) || n > 1) return Usage("bad --trace");
      options.trace = n == 1;
    } else if (std::strcmp(flag, "--scratch-dir") == 0) {
      options.scratch_dir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");

  auto report_r = RunBenchmark(options);
  if (!report_r.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 report_r.status().ToString().c_str());
    return report_r.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  const RunReport& report = *report_r;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  const OpTally& t = report.tally;
  std::printf("# failed %llu of %llu ops (%.3f%%): %llu errors, %llu wrong "
              "answers, %llu unfinished\n",
              static_cast<unsigned long long>(t.failed()),
              static_cast<unsigned long long>(t.attempted),
              t.attempted > 0 ? 100.0 * static_cast<double>(t.failed()) /
                                    static_cast<double>(t.attempted)
                              : 0.0,
              static_cast<unsigned long long>(t.errors),
              static_cast<unsigned long long>(t.wrong),
              static_cast<unsigned long long>(t.unfinished));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.tally.attempted),
              static_cast<unsigned long long>(report.tally.failed()));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace vmsv

int main(int argc, char** argv) { return vmsv::perfbench::Main(argc, argv); }
