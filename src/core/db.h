// vmsv::Db — the stable public facade of the engine.
//
// A Db is opened (or created) once and hands back a Table: a batch-first,
// Status-based query surface over N range shards, each one complete
// AdaptiveColumn (N = 1 unless DbOptions::shards asks for more).
// Everything outside src/ — benches, tests, the workload runner,
// embedders — programs against this interface; direct AdaptiveColumn
// construction (core/adaptive_layer.h) is an internal implementation
// detail.
//
//   auto table = *vmsv::Db::Create(std::move(column), {});         // 1 shard
//   auto big   = *vmsv::Db::Create(rows, value_of, opts);          // N shards
//   auto disk  = *vmsv::Db::CreateDurable("/data/t", rows, {});    // 1 shard
//   auto exec  = table->Execute({lo, hi});
//   auto batch = table->ExecuteBatch(queries);
//
// Sharding contract (details in ARCHITECTURE.md "Sharding & serving"):
// results are bit-identical to the same operations against one unsharded
// AdaptiveColumn over the same rows, for every shard count — every query
// runs on every shard, whose page zones skip the pages that hold no match,
// and match_count and sum are associative wrap-around uint64 adds merged in
// shard order. Updates route to exactly one shard. Sharded tables live in
// memory; a durable table is one plain column.

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
  /// Number of shards (1, the default: one column). Durable tables take 1
  /// only.
  uint32_t shards = 1;
  /// Page-to-shard assignment.
  PartitionKind partition = PartitionKind::kRange;
};

/// The page-to-shard assignment of one table: pure arithmetic over
/// (shards, num_rows), so every call routes identically.
struct PartitionSpec {
  uint32_t shards = 1;
  uint64_t num_rows = 0;

  /// Total pages of the logical column (rounded up like PhysicalColumn).
  uint64_t TotalPages() const;
  /// Shard owning global page `page`.
  uint32_t ShardOfPage(uint64_t page) const;
  /// Shard owning global row `row`.
  uint32_t ShardOfRow(uint64_t row) const;
  /// Pages shard `s` owns.
  uint64_t ShardPages(uint32_t s) const;
  /// Rows shard `s` owns (its pages' rows; only the shard holding the
  /// globally-last page can end mid-page).
  uint64_t ShardRows(uint32_t s) const;
  /// Global page backing shard `s`'s local page `lp` (ascending in lp, so
  /// the global tail page is always a shard's LAST local page).
  uint64_t GlobalPage(uint32_t s, uint64_t lp) const;
  /// Shard-local row id of global row `row` on ShardOfRow(row).
  uint64_t LocalRow(uint64_t row) const;
};

/// The public query surface: one logical column split into range shards,
/// shard i a complete AdaptiveColumn over the i-th page block with its own
/// maintenance mutex and view pool. Thread-safe exactly like
/// AdaptiveColumn: Execute / ExecuteBatch / ExecuteFullScan from any number
/// of threads, concurrently with Update / FlushUpdates from any thread;
/// Checkpoint and Health may run any time.
class Table {
 public:
  /// Answers one range query adaptively. The query fans out to every shard
  /// — each shard's page zones skip the pages that hold no match, and a
  /// shard with no value in [q.lo, q.hi] records the range as an empty view
  /// — and the per-shard answers merge in shard order (bit-identical to
  /// unsharded).
  /// Error contract: InvalidArgument when q.lo > q.hi.
  StatusOr<QueryExecution> Execute(const RangeQuery& q);

  /// Answers N in-flight queries with shared scans per shard (the
  /// batch-first path: prefer this whenever queries arrive together). Every
  /// shard answers the whole batch. Result i is bit-identical to
  /// Execute(queries[i]).
  /// Error contract: InvalidArgument when some query has lo > hi.
  StatusOr<BatchExecution> ExecuteBatch(const std::vector<RangeQuery>& queries);

  /// The non-adaptive baseline: scans every shard's base column, touching
  /// no view state. Bit-identical to Execute for the same query.
  /// Error contract: InvalidArgument when q.lo > q.hi.
  StatusOr<QueryExecution> ExecuteFullScan(const RangeQuery& q) const;

  /// Point update of one row (global row id). Routes to exactly one shard;
  /// a durable table journals ahead of the cell write.
  /// Error contract: InvalidArgument for an out-of-range row.
  Status Update(uint64_t row, Value new_value);

  /// Aligns all views with the logged updates, every shard.
  StatusOr<UpdateApplyStats> FlushUpdates();

  /// Every table: re-derive the exact page zones that writes loosened
  /// since the last flush or Checkpoint, every shard — writes through
  /// shard(i)->mutable_column() included. A durable table also checkpoints
  /// (flush, data writeback per policy, journal reset, the pool when it is
  /// dirty); in memory nothing is flushed.
  Status Checkpoint();

  /// Aggregated + per-shard health snapshot (see TableHealth).
  TableHealth Health() const;

  /// Workload counters summed across shards. Every shard runs every query,
  /// so `queries` counts one per shard and query.
  CumulativeStats Metrics() const;

  /// Durability counters (zeros for in-memory tables).
  DurabilityStats Durability() const;

  uint64_t num_rows() const { return spec_.num_rows; }
  uint64_t num_pages() const { return spec_.TotalPages(); }
  uint32_t num_shards() const { return spec_.shards; }
  bool is_durable() const { return shards_.front()->is_durable(); }

  /// \internal White-box access to shard `i`'s engine for tests and
  /// internal tooling. The returned column is owned by the table; pool
  /// introspection on it follows AdaptiveColumn's own locking caveats.
  AdaptiveColumn* shard(uint32_t i) { return shards_[i].get(); }
  const AdaptiveColumn* shard(uint32_t i) const { return shards_[i].get(); }

 private:
  friend class Db;

  /// Shard i holds the i-th page block of the table, in page order.
  explicit Table(std::vector<std::unique_ptr<AdaptiveColumn>> shards);

  PartitionSpec spec_;
  std::vector<std::unique_ptr<AdaptiveColumn>> shards_;
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
  /// per page. The generator is called once per row, shard by shard in
  /// page order.
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

 private:
  /// The 1-shard table over `column`, or the status its build failed with.
  static StatusOr<std::unique_ptr<Table>> OneShard(
      StatusOr<std::unique_ptr<AdaptiveColumn>> column);
};

}  // namespace vmsv

#endif  // VMSV_CORE_DB_H_
