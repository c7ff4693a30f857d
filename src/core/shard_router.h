// ShardedTable — shard-per-core scale-out for an in-memory logical column
// (ROADMAP "Shard-per-core scale-out + serving layer").
//
// A logical column of P pages is partitioned across N AdaptiveColumn
// shards, each a complete engine of its own: its own maintenance mutex,
// view pool and lifecycle manager — so adaptation, flushes, and arena
// release on one shard never serialize the others. A query's per-shard
// work fans out as one job on the engine's only executor, the global
// ThreadPool (exec/thread_pool.h); each shard's own scans then run as jobs
// nested inside that one. Sharded tables live in memory only: a durable
// table is one plain column (Db::CreateDurable).
//
// PARTITIONING is by PAGE, not row: shard i owns a balanced contiguous
// page block. Page granularity is what makes sharded results BIT-IDENTICAL
// to an unsharded oracle: the shards' pages are exactly a partition of the
// oracle's pages (including the single zero-filled tail page), so summing
// per-shard match_count/sum in shard order — associative wrap-around
// uint64 adds — reproduces the oracle's page-wise scan exactly. Updates
// route by row to exactly one shard (the one owning the row's page).
//
// QUERY FAN-OUT is pruned by per-shard VALUE ZONES: each shard keeps a
// conservative [min, max] over every value in its pages, folded from the
// column's page zones at create and only ever WIDENED — by updates, and by
// Checkpoint to the fold of the page zones, which covers writes made
// through a shard's mutable_column(). A query visits just the shards whose
// zone intersects its predicate; skipped shards provably contribute zero
// matches, so pruning never affects results.

#ifndef VMSV_CORE_SHARD_ROUTER_H_
#define VMSV_CORE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adaptive_layer.h"
#include "core/db.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

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

/// \internal The sharded Table implementation behind vmsv::Db. Constructed
/// through the row-generator Db::Create only.
class ShardedTable : public Table {
 public:
  /// Builds an in-memory sharded table, filling global row r with
  /// value_of(r).
  static StatusOr<std::unique_ptr<Table>> Create(
      uint64_t num_rows, const std::function<Value(uint64_t)>& value_of,
      const DbOptions& options);

  StatusOr<QueryExecution> Execute(const RangeQuery& q) override;
  StatusOr<BatchExecution> ExecuteBatch(
      const std::vector<RangeQuery>& queries) override;
  StatusOr<QueryExecution> ExecuteFullScan(const RangeQuery& q) const override;
  Status Update(uint64_t row, Value new_value) override;
  StatusOr<UpdateApplyStats> FlushUpdates() override;
  Status Checkpoint() override;
  TableHealth Health() const override;
  CumulativeStats Metrics() const override;
  /// In-memory shards have no durability counters.
  DurabilityStats Durability() const override { return {}; }

  uint64_t num_rows() const override { return spec_.num_rows; }
  uint64_t num_pages() const override { return spec_.TotalPages(); }
  uint32_t num_shards() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  bool is_durable() const override { return false; }
  AdaptiveColumn* shard(uint32_t i) override { return shards_[i]->column.get(); }

  /// Shards Execute(q) would visit, ascending — the zone-pruning decision
  /// exposed for routing-determinism tests.
  std::vector<uint32_t> RouteShards(const RangeQuery& q) const;

 private:
  /// One shard's engine + value zone. Zone bounds are relaxed atomics:
  /// updates widen them concurrently with routing reads, and a
  /// conservatively-stale bound only costs an extra shard visit.
  struct Shard {
    std::unique_ptr<AdaptiveColumn> column;
    std::atomic<Value> zone_lo{~Value{0}};
    std::atomic<Value> zone_hi{0};
    /// True once any value exists (a zoneless empty shard matches nothing).
    std::atomic<bool> zone_set{false};
  };

  explicit ShardedTable(PartitionSpec spec) : spec_(spec) {}

  void WidenZone(Shard& shard, Value v);

  /// Widens `shard`'s value zone by the fold of its column's page zones
  /// (AdaptiveColumn::ZoneFold; each covers its whole page, zero tail
  /// included, matching what scans see). A fresh shard's zone becomes
  /// that fold.
  void WidenZoneToFold(Shard& shard);

  bool ZoneIntersects(const Shard& shard, const RangeQuery& q) const;

  PartitionSpec spec_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vmsv

#endif  // VMSV_CORE_SHARD_ROUTER_H_
