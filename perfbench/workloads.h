// The three workloads of the end-to-end benchmark and the session loop
// that sets each up, measures it, traces it and checks its answers.
// NOTES.md explains why each workload exists and what it stresses.

#ifndef VMSV_PERFBENCH_WORKLOADS_H_
#define VMSV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "util/status.h"

namespace vmsv {
namespace perfbench {

struct RunOptions {
  /// adapt | serve_rw | batch_sharded
  std::string workload;
  uint64_t seed = 1;
  /// Measured time of one run.
  double seconds = 10;
  /// false: untraced sessions, end-to-end metrics. true: untraced and traced
  /// sessions alternate, per-layer metrics plus the tracing overhead.
  bool trace = false;
  /// Directory for the durable table (serve_rw) and the span file.
  std::string scratch_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  OpTally tally;
  std::vector<Metric> metrics;
  /// Human-readable context lines (sessions, tail percentile, tmpfs).
  std::vector<std::string> notes;
};

/// Error contract: InvalidArgument for an unknown workload or a
/// non-positive duration; engine set-up failures pass through.
StatusOr<RunReport> RunBenchmark(const RunOptions& options);

}  // namespace perfbench
}  // namespace vmsv

#endif  // VMSV_PERFBENCH_WORKLOADS_H_
