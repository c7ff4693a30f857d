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

/// Scans slots [first, end) of one run for every query whose range meets
/// the slot's zone; the others have no value on the page. One query:
/// consecutive meeting slots coalesce into one kernel call. Several: each
/// page is read once for all of them while it is in cache, and a group
/// hull lets a whole overlap component miss in two compares.
void ScanSlots(const Value* base, uint64_t first, uint64_t end,
               const std::vector<RangeQuery>& queries,
               const std::vector<BatchGroup>& groups, const ZoneTable& zones,
               PageScanResult* acc) {
  if (queries.size() == 1) {
    const RangeQuery& q = queries[0];
    uint64_t slot = first;
    while (slot < end) {
      while (slot < end && !zones.ForSlot(slot).Intersects(q)) ++slot;
      const uint64_t run_start = slot;
      while (slot < end && zones.ForSlot(slot).Intersects(q)) ++slot;
      if (slot > run_start) {
        acc[0].Merge(ScanPage(base + run_start * kValuesPerPage,
                              (slot - run_start) * kValuesPerPage, q));
      }
    }
    return;
  }
  for (uint64_t slot = first; slot < end; ++slot) {
    const PageZone& zone = zones.ForSlot(slot);
    const Value* data = base + slot * kValuesPerPage;
    for (const BatchGroup& group : groups) {
      if (!zone.Intersects(group.hull)) continue;
      for (const size_t qi : group.members) {
        if (zone.Intersects(queries[qi])) {
          acc[qi].Merge(ScanPage(data, kValuesPerPage, queries[qi]));
        }
      }
    }
  }
}

}  // namespace

std::vector<PageScanResult> BatchExecutor::SharedScanPages(
    const Value* base, uint64_t num_pages,
    const std::vector<RangeQuery>& queries, const ZoneTable& zones) const {
  return SharedScanPageRuns(base, {PageRun{0, num_pages}}, queries, zones);
}

std::vector<PageScanResult> BatchExecutor::SharedScanPageRuns(
    const Value* base, const std::vector<PageRun>& runs,
    const std::vector<RangeQuery>& queries, const ZoneTable& zones) const {
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

  const ParallelScanner scanner(options_);
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
      ScanSlots(base, first, first + take, queries, groups, zones, acc);
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
