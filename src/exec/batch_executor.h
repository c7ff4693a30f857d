// BatchExecutor — zone-filtered execution of one or several range queries
// in one pass. Where N individual scans fault and stream every page N
// times, a shared pass reads each page's data at most ONCE, and only for
// the queries whose range meets the page's [min, max] zone. The zones come
// from a table the caller owns — the column's (storage/column.h) — so the
// pass never computes one; a page whose zone meets no query is not read. A
// query that misses the zone has no value on the page, so its skipped
// kernel would have returned {0, 0}. A one-query pass is filtered the same
// way, and its consecutive meeting pages coalesce into one kernel call.
//
// Determinism: per-query accumulation follows the exact sharding of
// ParallelScanner (same shard boundaries, per-shard results merged in shard
// order), and match_count/sum are associative wrap-around adds — result i is
// bit-identical to an individual ScanPages/ScanPageRuns of queries[i] at any
// thread count.
//
// Grouping: GroupOverlappingQueries partitions a batch into connected
// components of value-range overlap. The pass tests each group's hull
// against a page's zone first, so a group none of whose members can match
// costs two compares, not one per member.

#ifndef VMSV_EXEC_BATCH_EXECUTOR_H_
#define VMSV_EXEC_BATCH_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "core/scan.h"
#include "exec/parallel_scanner.h"
#include "storage/types.h"

namespace vmsv {

/// One overlap-connected component of a query batch.
struct BatchGroup {
  /// Union hull of the members' value ranges. A page whose zone misses the
  /// hull can match no member, so the shared pass skips it wholesale.
  RangeQuery hull{0, 0};
  /// Indices into the original batch, in batch order.
  std::vector<size_t> members;
};

/// Partitions `queries` into connected components under value-range overlap
/// (transitively: a—b and b—c overlap => {a,b,c} is one group). Groups are
/// ordered by their smallest member index; members keep batch order.
std::vector<BatchGroup> GroupOverlappingQueries(
    const std::vector<RangeQuery>& queries);

/// The zones a pass consults. The page at slot s of the scanned range (run
/// offsets are slots relative to the pass's `base`) is column page
/// slot_to_page[s] — a view's slot table — or page s itself when
/// slot_to_page is null (the identity map of the base column). zones[page]
/// must bound every value of that page.
struct ZoneTable {
  const PageZone* zones = nullptr;
  const uint64_t* slot_to_page = nullptr;

  const PageZone& ForSlot(uint64_t slot) const {
    return zones[slot_to_page != nullptr ? slot_to_page[slot] : slot];
  }
};

class BatchExecutor {
 public:
  explicit BatchExecutor(const ParallelScanOptions& options = {})
      : options_(options) {}

  /// One zone-filtered pass over `num_pages` contiguous pages at `base`:
  /// result[i] is bit-identical to ParallelScanner::ScanPages(base,
  /// num_pages, queries[i]). It is the single run {0, num_pages} of
  /// SharedScanPageRuns.
  std::vector<PageScanResult> SharedScanPages(
      const Value* base, uint64_t num_pages,
      const std::vector<RangeQuery>& queries, const ZoneTable& zones) const;

  /// The same pass over discontiguous page runs (run offsets in pages
  /// relative to `base`) — the fragmented-view shape. result[i] is
  /// bit-identical to ParallelScanner::ScanPageRuns(base, runs, queries[i]).
  std::vector<PageScanResult> SharedScanPageRuns(
      const Value* base, const std::vector<PageRun>& runs,
      const std::vector<RangeQuery>& queries, const ZoneTable& zones) const;

 private:
  ParallelScanOptions options_;
};

}  // namespace vmsv

#endif  // VMSV_EXEC_BATCH_EXECUTOR_H_
