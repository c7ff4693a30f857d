// ParallelScanner — contiguous sharding of page-granular scan work over the
// global ThreadPool, with deterministic merge. A range of n items is split
// into `threads` contiguous shards (shard s covers [n*s/threads,
// n*(s+1)/threads)); each shard is scanned by one thread and the per-shard
// results are merged IN SHARD ORDER, so match_count/sum are bit-identical
// to the serial pass for any thread count (sums wrap mod 2^64 and lane
// addition is commutative, but we do not even rely on that). Each sharded
// scan is one ThreadPool job; when the caller is itself a pool task (a
// shard's slice of a fanned-out query) the job nests inside that one, and
// with every worker busy the caller simply scans all shards itself.
//
// A serial cutoff (VMSV_SERIAL_CUTOFF, pages, default 2048) keeps
// smoke-scale runs (256 pages) off the pool: below the cutoff everything
// runs inline on the caller.

#ifndef VMSV_EXEC_PARALLEL_SCANNER_H_
#define VMSV_EXEC_PARALLEL_SCANNER_H_

#include <cstdint>
#include <vector>

#include "core/scan.h"
#include "exec/thread_pool.h"
#include "storage/types.h"

namespace vmsv {

/// Serial cutoff in pages: item counts at or below run inline. VMSV_SERIAL_CUTOFF.
uint64_t DefaultSerialCutoffPages();

struct ParallelScanOptions {
  /// Scan parallelism; 0 means DefaultScanThreads() (VMSV_THREADS).
  unsigned threads = 0;
  /// Item counts <= cutoff run serially; ~0 means DefaultSerialCutoffPages().
  uint64_t serial_cutoff = ~uint64_t{0};
};

/// A maximal run of contiguous pages, in page units relative to some base —
/// the currency of scans over a view's member pages in the base mapping
/// (core/virtual_view.h).
struct PageRun {
  uint64_t start_page = 0;
  uint64_t num_pages = 0;
};

class ParallelScanner {
 public:
  explicit ParallelScanner(const ParallelScanOptions& options = {});

  unsigned threads() const { return threads_; }
  uint64_t serial_cutoff() const { return serial_cutoff_; }

  /// Shards [0, n_items) is split into (1 when below the cutoff).
  unsigned NumShards(uint64_t n_items) const;

  /// Invokes fn(shard, begin, end) for every shard of [0, n_items);
  /// shards are disjoint, contiguous, ascending in `shard`, and cover the
  /// range exactly. fn runs concurrently across shards — it must only touch
  /// shard-local state; the caller merges per-shard results in shard order.
  template <typename Fn>
  void ForShards(uint64_t n_items, Fn&& fn) const {
    const unsigned shards = NumShards(n_items);
    if (shards <= 1) {
      if (n_items > 0) fn(0u, uint64_t{0}, n_items);
      return;
    }
    ThreadPool::Global().Run(
        shards, shards, [&](uint64_t s) {
          fn(static_cast<unsigned>(s), ShardBegin(n_items, shards, s),
             ShardBegin(n_items, shards, s + 1));
        });
  }

  /// Runs fn(begin, end) -> PageScanResult once per shard of [0, n_items)
  /// and merges the results in shard order — the shape every probe loop
  /// shares (zone map, bitmap, page-id vector, view slot lists).
  template <typename Fn>
  PageScanResult ScanShardsMerged(uint64_t n_items, Fn&& fn) const {
    const unsigned shards = NumShards(n_items);
    if (shards <= 1) {
      return n_items > 0 ? fn(uint64_t{0}, n_items) : PageScanResult{};
    }
    std::vector<PageScanResult> partial(shards);
    ForShards(n_items, [&](unsigned shard, uint64_t begin, uint64_t end) {
      partial[shard] = fn(begin, end);
    });
    PageScanResult total;
    for (const PageScanResult& r : partial) total.Merge(r);
    return total;
  }

  /// Sharded filter scan of `num_pages` contiguous pages at `base`,
  /// bit-identical to ScanPage(base, num_pages * kValuesPerPage, q).
  PageScanResult ScanPages(const Value* base, uint64_t num_pages,
                           const RangeQuery& q) const;

  /// Sharded filter scan of discontiguous page runs at `base` (run offsets
  /// in pages): how a view without an arena reads its member pages. Shards
  /// over the TOTAL page count — shard boundaries may split a long run, so
  /// one run parallelizes exactly like a dense column, and variable run
  /// lengths stay load-balanced. Scattered pages still burn a kernel call
  /// per small run within each shard and break hardware prefetch streams
  /// at every gap. Results are bit-identical to the equivalent
  /// dense scan for any thread count (sum wraps mod 2^64; grouping is
  /// immaterial).
  PageScanResult ScanPageRuns(const Value* base, const std::vector<PageRun>& runs,
                              const RangeQuery& q) const;

  static uint64_t ShardBegin(uint64_t n_items, unsigned shards, uint64_t s) {
    return n_items * s / shards;
  }

 private:
  unsigned threads_;
  uint64_t serial_cutoff_;
};

}  // namespace vmsv

#endif  // VMSV_EXEC_PARALLEL_SCANNER_H_
