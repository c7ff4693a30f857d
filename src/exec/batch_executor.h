// BatchExecutor — shared-scan execution of several range queries in one
// pass (the ROADMAP's cross-query page-sharing item). Where N individual
// scans fault and stream every page N times, a shared pass reads each page's
// data ONCE and evaluates all queries against it while it is cache-hot; a
// group-hull PageContainsAny pre-test skips the per-query kernels entirely
// on pages no member query can match.
//
// Determinism: per-query accumulation follows the exact sharding of
// ParallelScanner (same shard boundaries, per-shard results merged in shard
// order), and match_count/sum are associative wrap-around adds — result i is
// bit-identical to an individual ScanPages/ScanPageRuns of queries[i] at any
// thread count.
//
// Grouping: GroupOverlappingQueries partitions a batch into connected
// components of value-range overlap. Callers run one shared pass per group,
// so disjoint query clusters are not charged for each other's hull.

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
  /// Union hull of the members' value ranges. A page with no value in the
  /// hull can match no member, so the shared pass may skip it wholesale.
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
  /// queries[i]). Each page is read once for the whole batch; a one-query
  /// batch runs as exactly that ScanPages call.
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
