#include "exec/batch_executor.h"

#include <algorithm>
#include <numeric>

#include "exec/scan_kernels.h"

namespace vmsv {

std::vector<BatchGroup> GroupOverlappingQueries(
    const std::vector<RangeQuery>& queries) {
  // Sweep in lo order: a query starting past the running hull's hi opens a
  // new component; anything else extends the current one. O(n log n), and
  // transitive overlap falls out of the growing hull.
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&queries](size_t a, size_t b) {
    return queries[a].lo < queries[b].lo;
  });

  std::vector<BatchGroup> groups;
  for (const size_t qi : order) {
    const RangeQuery& q = queries[qi];
    if (groups.empty() || q.lo > groups.back().hull.hi) {
      groups.push_back(BatchGroup{q, {qi}});
      continue;
    }
    BatchGroup& group = groups.back();
    group.hull.hi = std::max(group.hull.hi, q.hi);
    group.members.push_back(qi);
  }
  for (BatchGroup& group : groups) {
    std::sort(group.members.begin(), group.members.end());
  }
  std::sort(groups.begin(), groups.end(),
            [](const BatchGroup& a, const BatchGroup& b) {
              return a.members.front() < b.members.front();
            });
  return groups;
}

namespace {

/// Evaluates one page for every query whose range meets the page's zone
/// (the others have no value on it). The zone pass pulls the page into
/// cache for the kernels that follow; the group hulls let a whole overlap
/// component miss in two compares.
void ScanPageZoneFirst(const Value* data,
                       const std::vector<RangeQuery>& queries,
                       const std::vector<BatchGroup>& groups,
                       PageScanResult* acc) {
  const PageZone zone = ComputePageZone(data, kValuesPerPage);
  for (const BatchGroup& group : groups) {
    if (!zone.Intersects(group.hull)) continue;
    for (const size_t qi : group.members) {
      if (zone.Intersects(queries[qi])) {
        acc[qi].Merge(ScanPage(data, kValuesPerPage, queries[qi]));
      }
    }
  }
}

}  // namespace

std::vector<PageScanResult> BatchExecutor::SharedScanPages(
    const Value* base, uint64_t num_pages,
    const std::vector<RangeQuery>& queries) const {
  // One query has nothing to share: the plain scan is the same sharding
  // without the per-page zone test, hence bit-identical and cheaper.
  if (queries.size() == 1) {
    return {ParallelScanner(options_).ScanPages(base, num_pages, queries[0])};
  }
  return SharedScanPageRuns(base, {PageRun{0, num_pages}}, queries);
}

std::vector<PageScanResult> BatchExecutor::SharedScanPageRuns(
    const Value* base, const std::vector<PageRun>& runs,
    const std::vector<RangeQuery>& queries) const {
  const ParallelScanner scanner(options_);
  if (queries.size() == 1) {
    return {scanner.ScanPageRuns(base, runs, queries[0])};
  }
  std::vector<PageScanResult> results(queries.size());
  if (queries.empty()) return results;
  const std::vector<BatchGroup> groups = GroupOverlappingQueries(queries);

  // Same concatenated-page-space sharding as ParallelScanner::ScanPageRuns;
  // one run of every page shards exactly like ParallelScanner::ScanPages.
  std::vector<uint64_t> prefix(runs.size() + 1, 0);
  for (size_t i = 0; i < runs.size(); ++i) {
    prefix[i + 1] = prefix[i] + runs[i].num_pages;
  }
  const uint64_t total_pages = prefix.back();
  if (total_pages == 0) return results;

  const unsigned shards = scanner.NumShards(total_pages);
  // partial[shard * Q + i] accumulates query i on that shard; merged in
  // shard order below, exactly like ScanShardsMerged does per query.
  std::vector<PageScanResult> partial(static_cast<size_t>(shards) *
                                      queries.size());
  scanner.ForShards(total_pages, [&](unsigned shard, uint64_t begin,
                                     uint64_t end) {
    PageScanResult* acc = partial.data() + size_t{shard} * queries.size();
    size_t ri = static_cast<size_t>(
        std::upper_bound(prefix.begin(), prefix.end(), begin) -
        prefix.begin() - 1);
    for (uint64_t pos = begin; pos < end; ++ri) {
      const uint64_t run_end = prefix[ri + 1];
      if (pos >= run_end) continue;  // skip empty runs
      const uint64_t take = (end < run_end ? end : run_end) - pos;
      const uint64_t first = runs[ri].start_page + (pos - prefix[ri]);
      for (uint64_t p = 0; p < take; ++p) {
        ScanPageZoneFirst(base + (first + p) * kValuesPerPage, queries,
                          groups, acc);
      }
      pos += take;
    }
  });
  for (unsigned shard = 0; shard < shards; ++shard) {
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i].Merge(partial[size_t{shard} * queries.size() + i]);
    }
  }
  return results;
}

}  // namespace vmsv
