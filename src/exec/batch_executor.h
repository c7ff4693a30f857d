// BatchExecutor — shared-scan execution of several range queries in one
// pass. Where N individual scans fault and stream every page N times, a
// shared pass reads each page's data ONCE, zone first: one ComputePageZone
// pass yields the page's [min, max] and pulls it into cache, and only the
// queries whose range meets that zone run the ScanPage kernel on it. A
// query that misses the zone has no value on the page, so its skipped
// kernel would have returned {0, 0}.
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

class BatchExecutor {
 public:
  explicit BatchExecutor(const ParallelScanOptions& options = {})
      : options_(options) {}

  /// One shared pass over `num_pages` contiguous pages at `base`: result[i]
  /// is bit-identical to ParallelScanner::ScanPages(base, num_pages,
  /// queries[i]). Each page is read once for the whole batch, as the single
  /// run {0, num_pages} of SharedScanPageRuns; a one-query batch runs as
  /// exactly that ScanPages call.
  std::vector<PageScanResult> SharedScanPages(
      const Value* base, uint64_t num_pages,
      const std::vector<RangeQuery>& queries) const;

  /// The same shared pass over discontiguous page runs (run offsets in
  /// pages relative to `base`) — the fragmented-view shape. A one-query
  /// batch runs as ParallelScanner::ScanPageRuns.
  std::vector<PageScanResult> SharedScanPageRuns(
      const Value* base, const std::vector<PageRun>& runs,
      const std::vector<RangeQuery>& queries) const;

 private:
  ParallelScanOptions options_;
};

}  // namespace vmsv

#endif  // VMSV_EXEC_BATCH_EXECUTOR_H_
