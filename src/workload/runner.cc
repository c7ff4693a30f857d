#include "workload/runner.h"

#include <optional>
#include <string>
#include <thread>

#include "util/macros.h"
#include "util/stopwatch.h"

namespace vmsv {

namespace {

/// Runs one query of the sequence into its trace slot. Shared verbatim by
/// the serial loop and every closed-loop client (slots are disjoint, so
/// clients need no synchronization beyond the engine's own).
Status RunOneQuery(Table* table, const RangeQuery& q,
                   bool need_baseline, bool verify, size_t index,
                   QueryTrace* trace) {
  trace->query = q;

  // The baseline runs first so neither series systematically inherits the
  // other's cache warm-up; the reference measurement stays conservative.
  std::optional<QueryExecution> baseline;
  if (need_baseline) {
    Stopwatch baseline_timer;
    auto baseline_r = table->ExecuteFullScan(q);
    if (!baseline_r.ok()) return baseline_r.status();
    trace->fullscan_ms = baseline_timer.ElapsedMillis();
    baseline = *std::move(baseline_r);
  }

  Stopwatch adaptive_timer;
  auto exec = table->Execute(q);
  if (!exec.ok()) return exec.status();
  trace->adaptive_ms = adaptive_timer.ElapsedMillis();
  trace->scanned_pages = exec->stats.scanned_pages;
  trace->considered_views = exec->stats.considered_views;
  trace->views_after = exec->stats.views_after;
  trace->decision = exec->stats.decision;
  trace->match_count = exec->match_count;
  trace->sum = exec->sum;

  if (baseline.has_value() && verify &&
      (baseline->match_count != exec->match_count ||
       baseline->sum != exec->sum)) {
    return InternalError(
        "adaptive/baseline mismatch at query " + std::to_string(index) +
        " [" + std::to_string(q.lo) + ", " + std::to_string(q.hi) +
        "]: adaptive count=" + std::to_string(exec->match_count) +
        " sum=" + std::to_string(exec->sum) +
        " vs baseline count=" + std::to_string(baseline->match_count) +
        " sum=" + std::to_string(baseline->sum));
  }
  return OkStatus();
}

}  // namespace

StatusOr<WorkloadReport> RunWorkload(Table* table,
                                     const std::vector<RangeQuery>& queries,
                                     const RunnerOptions& options) {
  if (table == nullptr) return InvalidArgument("RunWorkload needs a table");
  const uint64_t clients = options.num_clients > 0 ? options.num_clients : 1;
  WorkloadReport report;
  report.num_clients = clients;
  report.traces.resize(queries.size());
  const bool need_baseline = options.run_baseline || options.verify_results;

  if (options.warmup && !queries.empty()) {
    auto warm = table->ExecuteFullScan(queries.front());
    if (!warm.ok()) return warm.status();
  }

  Stopwatch wall;
  if (clients <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) {
      VMSV_RETURN_IF_ERROR(RunOneQuery(table, queries[i], need_baseline,
                                       options.verify_results, i,
                                       &report.traces[i]));
      if (options.checkpoint_every != 0 &&
          (i + 1) % options.checkpoint_every == 0) {
        VMSV_RETURN_IF_ERROR(table->Checkpoint());
      }
    }
  } else {
    // Closed loop: client c owns sequence slots c, c+clients, ... — disjoint
    // trace writes, no cross-thread coordination. Errors are collected per
    // client; the first (lowest client id) wins, matching the serial loop's
    // first-error semantics closely enough for callers.
    std::vector<Status> client_status(clients, OkStatus());
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (uint64_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c]() {
        for (size_t i = c; i < queries.size(); i += clients) {
          report.traces[i].client = c;
          const Status st =
              RunOneQuery(table, queries[i], need_baseline,
                          options.verify_results, i, &report.traces[i]);
          if (!st.ok()) {
            client_status[c] = st;
            return;
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (const Status& st : client_status) {
      if (!st.ok()) return st;
    }
  }
  report.wall_ms = wall.ElapsedMillis();
  if (report.wall_ms > 0 && !queries.empty()) {
    report.queries_per_sec =
        static_cast<double>(queries.size()) / (report.wall_ms / 1000.0);
  }

  for (const QueryTrace& trace : report.traces) {
    report.adaptive_total_ms += trace.adaptive_ms;
    report.fullscan_total_ms += trace.fullscan_ms;
  }
  const TableHealth table_health = table->Health();
  report.health = table_health.total;
  report.shard_health = table_health.shards;
  return report;
}

}  // namespace vmsv
