// vmsv::Db — the stable public facade of the engine.
//
// A Db is opened (or created) once and hands back a Table: a batch-first,
// Status-based query surface that hides whether the data lives in one
// AdaptiveColumn or is partitioned across N shards
// (core/shard_router.h). Everything outside src/ — benches, tests, the
// workload runner, embedders — programs against this interface; direct
// AdaptiveColumn construction (core/adaptive_layer.h) is an internal
// implementation detail.
//
//   auto table = *vmsv::Db::Create(std::move(column), {});         // 1 shard
//   auto big   = *vmsv::Db::Create(rows, value_of, opts);          // N shards
//   auto disk  = *vmsv::Db::CreateDurable("/data/t", rows, {});    // 1 shard
//   auto exec  = table->Execute({lo, hi});
//   auto batch = table->ExecuteBatch(queries);
//
// Sharding contract (details in ARCHITECTURE.md "Sharding & serving"):
// results are bit-identical to the same operations against one unsharded
// AdaptiveColumn over the same rows, for every shard count — match_count
// and sum are associative wrap-around uint64 adds merged in shard order,
// and per-shard value zones only ever SKIP shards that provably hold no
// matching value. Updates route to exactly one shard. Sharded tables live
// in memory; a durable table is one plain column.

#ifndef VMSV_CORE_DB_H_
#define VMSV_CORE_DB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_layer.h"
#include "storage/column.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

/// How a sharded table assigns pages (and with them rows) to shards.
enum class PartitionKind {
  /// Contiguous page blocks: shard i owns a balanced run of consecutive
  /// pages. Preserves range locality per shard.
  kRange,
};

/// Health across a whole table: the per-shard snapshots plus their
/// aggregate. Counters sum; degraded flags OR — one degraded shard makes
/// the TABLE report degraded, and the breakdown shows which one.
struct TableHealth {
  /// Counter-summed, flag-OR'ed aggregate of every shard.
  ColumnHealth total;
  /// Per-shard snapshots, shard order. Size 1 for unsharded tables.
  std::vector<ColumnHealth> shards;
};

struct DbOptions {
  /// Engine configuration applied to EVERY shard's AdaptiveColumn (view
  /// budget, routing mode, lifecycle, durability policy, fault seams).
  /// For durable tables, storage.persist_dir is overridden by the table's
  /// directory.
  AdaptiveConfig column;
  /// Number of shards. 1 (the default) wraps a single AdaptiveColumn with
  /// no routing layer at all — the facade costs nothing you don't use.
  /// Durable tables take 1 only.
  uint32_t shards = 1;
  /// Page-to-shard assignment for shards > 1.
  PartitionKind partition = PartitionKind::kRange;
};

/// The public query surface. Thread-safe exactly like AdaptiveColumn:
/// Execute / ExecuteBatch / ExecuteFullScan from any number of threads,
/// concurrently with Update / FlushUpdates from any thread; Checkpoint and
/// Health may run any time.
class Table {
 public:
  virtual ~Table() = default;

  /// Answers one range query adaptively. On a sharded table the query fans
  /// out to the shards whose value zone intersects [q.lo, q.hi] and the
  /// per-shard answers merge in shard order (bit-identical to unsharded).
  /// Error contract: InvalidArgument when q.lo > q.hi.
  virtual StatusOr<QueryExecution> Execute(const RangeQuery& q) = 0;

  /// Answers N in-flight queries with shared scans per shard (the
  /// batch-first path: prefer this whenever queries arrive together).
  /// Result i is bit-identical to Execute(queries[i]).
  virtual StatusOr<BatchExecution> ExecuteBatch(
      const std::vector<RangeQuery>& queries) = 0;

  /// The non-adaptive baseline: scans the base column(s), touching no view
  /// state. Bit-identical to Execute for the same query.
  /// Error contract: InvalidArgument when q.lo > q.hi.
  virtual StatusOr<QueryExecution> ExecuteFullScan(const RangeQuery& q) const = 0;

  /// Point update of one row (global row id). Routes to exactly one shard;
  /// a durable table journals ahead of the cell write.
  /// Error contract: InvalidArgument for an out-of-range row.
  virtual Status Update(uint64_t row, Value new_value) = 0;

  /// Aligns all views with the logged updates, every shard.
  virtual StatusOr<UpdateApplyStats> FlushUpdates() = 0;

  /// Every table: re-derive the exact page zones that writes loosened
  /// since the last flush or Checkpoint, every shard. A durable table also
  /// checkpoints (flush, data writeback per policy, journal reset, the
  /// pool when it is dirty); in memory nothing is flushed.
  /// Each shard's routing zone then widens to the fold of its page zones,
  /// so a write through shard(i)->mutable_column() reaches routing here.
  /// Routing zones never narrow.
  virtual Status Checkpoint() = 0;

  /// Aggregated + per-shard health snapshot (see TableHealth).
  virtual TableHealth Health() const = 0;

  /// Workload counters summed across shards. Zone-pruned shards never ran
  /// a query, so sums reflect work actually done.
  virtual CumulativeStats Metrics() const = 0;

  /// Durability counters (zeros for in-memory tables).
  virtual DurabilityStats Durability() const = 0;

  virtual uint64_t num_rows() const = 0;
  virtual uint64_t num_pages() const = 0;
  virtual uint32_t num_shards() const = 0;
  virtual bool is_durable() const = 0;

  /// \internal White-box access to shard `i`'s engine for tests and
  /// internal tooling. The returned column is owned by the table; pool
  /// introspection on it follows AdaptiveColumn's own locking caveats.
  virtual AdaptiveColumn* shard(uint32_t i) = 0;
  const AdaptiveColumn* shard(uint32_t i) const {
    return const_cast<Table*>(this)->shard(i);
  }
};

class Db {
 public:
  /// Wraps an existing filled column as a 1-shard table (options.shards
  /// must be 1 — a pre-built column has no partition to split; use the
  /// row-generator overload for sharded in-memory tables).
  /// Error contract: InvalidArgument on null column, options.shards != 1,
  /// or config errors from the underlying engine.
  static StatusOr<std::unique_ptr<Table>> Create(
      std::unique_ptr<PhysicalColumn> column, const DbOptions& options);

  /// Creates an in-memory table of `num_rows` rows, filling row r with
  /// value_of(r) — partitioned across options.shards shards, at most one
  /// per page. The generator must be pure (it is re-invoked per shard in
  /// page order).
  /// Error contract: InvalidArgument when num_rows or options.shards is 0,
  /// before anything is allocated, or on config errors from the engine.
  static StatusOr<std::unique_ptr<Table>> Create(
      uint64_t num_rows, const std::function<Value(uint64_t)>& value_of,
      const DbOptions& options);

  /// Creates a DURABLE table of `num_rows` zeroed rows under `dir`: one
  /// plain durable column (journal + manifest + data).
  /// Error contract: InvalidArgument when options.shards != 1, before the
  /// filesystem is touched; FailedPrecondition when `dir` already holds a
  /// table; IoError on filesystem failures.
  static StatusOr<std::unique_ptr<Table>> CreateDurable(
      const std::string& dir, uint64_t num_rows, const DbOptions& options);

  /// Reopens a durable table: journal replay and view restoration.
  /// Error contract: InvalidArgument when options.shards != 1; NotFound
  /// when `dir` holds no table (no MANIFEST); IoError on a corrupt
  /// directory; FailedPrecondition when it is open elsewhere.
  static StatusOr<std::unique_ptr<Table>> Open(const std::string& dir,
                                               const DbOptions& options);
};

}  // namespace vmsv

#endif  // VMSV_CORE_DB_H_
