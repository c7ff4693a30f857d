// RunWorkload — drives a query sequence through a vmsv::Table (one range
// shard or several, the runner cannot tell), timing each
// adaptive answer against the full-scan baseline and (optionally)
// verifying that both agree. All figure harnesses and the adaptive tests
// share this loop.
//
// With num_clients > 1 the runner becomes a multi-threaded CLOSED LOOP:
// each client thread issues its share of the sequence back to back (query
// i goes to client i % num_clients), exercising the engine's concurrent
// reader path. Per-query traces land in their sequence slot regardless of
// which client ran them, and the report adds wall-clock throughput.

#ifndef VMSV_WORKLOAD_RUNNER_H_
#define VMSV_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/db.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

struct RunnerOptions {
  /// Also time every query as a full scan (the "full scans only" series).
  bool run_baseline = true;
  /// Compare adaptive result against the baseline and fail on mismatch.
  /// Implies the baseline scan runs even if run_baseline is false.
  /// Valid with num_clients > 1 as long as no thread mutates the column
  /// concurrently (the runner itself only reads).
  bool verify_results = false;
  /// One untimed full scan before the sequence, so the first measured query
  /// is not polluted by cold caches/TLBs.
  bool warmup = true;
  /// Closed-loop client threads. 1 = the classic serial runner; N > 1
  /// round-robins the sequence across N threads running concurrently.
  uint64_t num_clients = 1;
  /// Durable persist mode: checkpoint the column (flush + data writeback +
  /// journal reset + the pool when it is dirty) every N queries. Pool
  /// edits persist on their own; this bounds the journal a kill leaves to
  /// replay.
  /// 0 disables; no-op on in-memory columns; serial (num_clients == 1) only
  /// — the closed loop would interleave checkpoints with in-flight clients
  /// nondeterministically.
  uint64_t checkpoint_every = 0;
};

struct QueryTrace {
  RangeQuery query;
  double adaptive_ms = 0;
  double fullscan_ms = 0;
  uint64_t scanned_pages = 0;
  uint64_t considered_views = 0;
  uint64_t views_after = 0;
  CandidateDecision decision = CandidateDecision::kNone;
  uint64_t match_count = 0;
  Value sum = 0;
  /// Which closed-loop client executed the query (0 when serial).
  uint64_t client = 0;
};

struct WorkloadReport {
  std::vector<QueryTrace> traces;
  /// Sums of per-query timings ACROSS clients (≈ total busy time; with one
  /// client this is the classic accumulated latency).
  double adaptive_total_ms = 0;
  double fullscan_total_ms = 0;
  /// Wall-clock time of the whole (possibly concurrent) sequence and the
  /// resulting closed-loop throughput.
  double wall_ms = 0;
  double queries_per_sec = 0;
  uint64_t num_clients = 1;
  /// Aggregated health snapshot taken after the last query (counters
  /// summed, degraded flags OR'ed across shards), so harnesses see whether
  /// (and how often) the run degraded to base-column fallbacks.
  ColumnHealth health;
  /// Per-shard health breakdown, shard order (size 1 for unsharded
  /// tables): a degraded_read_only shard stays visible here even when the
  /// rest of the table is healthy.
  std::vector<ColumnHealth> shard_health;
};

StatusOr<WorkloadReport> RunWorkload(Table* table,
                                     const std::vector<RangeQuery>& queries,
                                     const RunnerOptions& options);

}  // namespace vmsv

#endif  // VMSV_WORKLOAD_RUNNER_H_
