// Parallel sharded scans must be invisible in the results: any thread
// count, any shard split, any cutoff — match_count and sum bit-identical to
// the serial reference pass on the seed-42 golden distributions, with
// shard-boundary off-by-one cases pinned explicitly. The ThreadPool under
// them must run concurrent and nested jobs to exact completion.

#include "exec/parallel_scanner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "vmsv.h"
#include "exec/scan_kernels.h"
#include "index/zone_map_index.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

std::unique_ptr<PhysicalColumn> GoldenColumn(DataDistribution kind,
                                             uint64_t pages) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = 100'000'000;
  spec.seed = 42;
  auto column = MakeColumn(spec, pages * kValuesPerPage);
  EXPECT_TRUE(column.ok());
  return std::move(column).ValueOrDie();
}

ParallelScanner MakeScanner(unsigned threads) {
  ParallelScanOptions options;
  options.threads = threads;
  options.serial_cutoff = 0;  // force sharding even at test scale
  return ParallelScanner(options);
}

TEST(ParallelScannerTest, ShardsPartitionExactly) {
  // Off-by-one shapes: n around each multiple of the thread count, plus
  // degenerate n < threads. Shards must be contiguous, ascending, disjoint,
  // and cover [0, n) exactly.
  for (const unsigned threads : {2u, 3u, 4u, 7u, 8u}) {
    const ParallelScanner scanner = MakeScanner(threads);
    for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                             uint64_t{threads - 1}, uint64_t{threads},
                             uint64_t{threads + 1}, uint64_t{1023},
                             uint64_t{1024}, uint64_t{1025}}) {
      const unsigned shards = scanner.NumShards(n);
      ASSERT_GE(shards, 1u);
      ASSERT_LE(shards, threads);
      ASSERT_LE(uint64_t{shards}, n);
      std::vector<std::pair<uint64_t, uint64_t>> ranges(shards);
      scanner.ForShards(n, [&](unsigned shard, uint64_t begin, uint64_t end) {
        ranges[shard] = {begin, end};
      });
      uint64_t expected_begin = 0;
      for (unsigned s = 0; s < shards; ++s) {
        EXPECT_EQ(ranges[s].first, expected_begin)
            << "threads=" << threads << " n=" << n << " shard=" << s;
        EXPECT_GT(ranges[s].second, ranges[s].first);  // no empty shard
        expected_begin = ranges[s].second;
      }
      EXPECT_EQ(expected_begin, n) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelScannerTest, SerialCutoffKeepsSmallScansInline) {
  ParallelScanOptions options;
  options.threads = 8;
  options.serial_cutoff = 256;
  const ParallelScanner scanner(options);
  EXPECT_EQ(scanner.NumShards(256), 1u);  // at the cutoff: serial
  EXPECT_EQ(scanner.NumShards(1), 1u);
  EXPECT_GT(scanner.NumShards(257), 1u);  // above: sharded
}

TEST(ParallelScannerTest, ResultsIdenticalAcrossThreadCounts) {
  for (const DataDistribution kind :
       {DataDistribution::kUniform, DataDistribution::kSine}) {
    auto column = GoldenColumn(kind, 67);  // odd page count: uneven shards
    const Value* base =
        reinterpret_cast<const Value*>(column->base_arena().data());
    const std::vector<RangeQuery> queries = {
        {0, 50'000'000}, {123, 456}, {0, ~Value{0}}, {50'000'000, 50'000'001}};
    for (const RangeQuery& q : queries) {
      const PageScanResult ref =
          ScanPageScalar(base, column->num_pages() * kValuesPerPage, q);
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const PageScanResult got =
            MakeScanner(threads).ScanPages(base, column->num_pages(), q);
        EXPECT_EQ(ref.match_count, got.match_count)
            << DistributionName(kind) << " threads=" << threads;
        EXPECT_EQ(ref.sum, got.sum)
            << DistributionName(kind) << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelScannerTest, AdaptiveColumnAgreesWithSerialScan) {
  // End to end through the adaptive layer: the full-scan baseline and the
  // adaptive path must agree regardless of how the engine shards underneath
  // (thread count comes from the environment here; the runner's
  // verify_results logic is exercised by the figure harness smoke tier).
  auto column = GoldenColumn(DataDistribution::kSine, 48);
  const Value* base =
      reinterpret_cast<const Value*>(column->base_arena().data());
  const RangeQuery q{10'000'000, 30'000'000};
  const PageScanResult ref =
      ScanPageScalar(base, column->num_pages() * kValuesPerPage, q);
  auto adaptive_r = Db::Create(std::move(column), {});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;
  auto full = adaptive->ExecuteFullScan(q);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->match_count, ref.match_count);
  EXPECT_EQ(full->sum, ref.sum);
  auto exec = adaptive->Execute(q);  // full scan + candidate view
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->match_count, ref.match_count);
  EXPECT_EQ(exec->sum, ref.sum);
  auto from_view = adaptive->Execute(q);  // answered from the view
  ASSERT_TRUE(from_view.ok());
  EXPECT_EQ(from_view->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(from_view->match_count, ref.match_count);
  EXPECT_EQ(from_view->sum, ref.sum);
}

TEST(ParallelScannerTest, ZoneMapRebuildRangeOnlyTouchesRange) {
  auto column = GoldenColumn(DataDistribution::kUniform, 16);
  ZoneMapIndex index;
  ASSERT_TRUE(index.Build(*column, 0, 100'000'000).ok());
  const RangeQuery q{0, 1'000'000};
  const IndexQueryResult before = index.Query(*column, q);

  // Rewrite one page's worth of rows, then rebuild just that page: the
  // index must answer exactly like a full rebuild.
  const uint64_t page = 7;
  auto* mutable_column = column.get();
  for (uint64_t i = 0; i < kValuesPerPage; ++i) {
    mutable_column->Set(page * kValuesPerPage + i, 500'000);
  }
  ASSERT_TRUE(index.RebuildRange(*column, page, 1).ok());
  ZoneMapIndex fresh;
  ASSERT_TRUE(fresh.Build(*column, 0, 100'000'000).ok());
  const IndexQueryResult incremental = index.Query(*column, q);
  const IndexQueryResult rebuilt = fresh.Query(*column, q);
  EXPECT_EQ(incremental.match_count, rebuilt.match_count);
  EXPECT_EQ(incremental.sum, rebuilt.sum);
  EXPECT_GT(incremental.match_count, before.match_count);

  // Out-of-range rebuilds must be rejected, not crash — including inputs
  // where first_page + n_pages wraps around uint64.
  EXPECT_FALSE(index.RebuildRange(*column, 16, 1).ok());
  EXPECT_FALSE(index.RebuildRange(*column, 15, 2).ok());
  EXPECT_FALSE(index.RebuildRange(*column, ~uint64_t{0}, 2).ok());
  EXPECT_FALSE(index.RebuildRange(*column, 1, ~uint64_t{0}).ok());
}

TEST(ParallelScannerTest, BackToBackJobsStayIsolated) {
  // Every query issues a fresh pool job; a straggler worker from job N must
  // never claim a task of job N+1 (it would run N's dead lambda or steal a
  // shard). Hammer back-to-back jobs and check every scan's result.
  auto column = GoldenColumn(DataDistribution::kUniform, 32);
  const Value* base =
      reinterpret_cast<const Value*>(column->base_arena().data());
  const RangeQuery q{0, 50'000'000};
  const PageScanResult ref =
      ScanPageScalar(base, column->num_pages() * kValuesPerPage, q);
  const ParallelScanner scanner = MakeScanner(4);
  for (int i = 0; i < 500; ++i) {
    const PageScanResult got = scanner.ScanPages(base, column->num_pages(), q);
    ASSERT_EQ(ref.match_count, got.match_count) << "iteration " << i;
    ASSERT_EQ(ref.sum, got.sum) << "iteration " << i;
  }
}

TEST(ThreadPoolTest, NestedRunCompletesWithExactSum) {
  // The shape of a fanned-out shard query whose own scan runs in parallel:
  // every outer task calls Run. Inner jobs must finish even while every
  // pool worker is busy with an outer task.
  constexpr uint64_t kOuter = 8;
  constexpr uint64_t kInner = 64;
  std::atomic<uint64_t> sum{0};
  ThreadPool::Global().Run(kOuter, 4, [&](uint64_t o) {
    ThreadPool::Global().Run(kInner, 4, [&](uint64_t i) {
      sum.fetch_add(o * kInner + i, std::memory_order_relaxed);
    });
  });
  constexpr uint64_t kTotal = kOuter * kInner;
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

/// Which client thread runs the current task; -1 on pool workers.
thread_local int tl_client = -1;

TEST(ThreadPoolTest, ConcurrentBackToBackJobsStayIsolated) {
  // The concurrent-job version of BackToBackJobsStayIsolated: 4 clients
  // issue back-to-back jobs at once. Every task runs exactly once (the
  // job's sum is exact), and a client thread only ever runs tasks of its
  // own jobs — a waiting caller never picks up another job's work.
  constexpr int kClients = 4;
  constexpr uint64_t kJobs = 200;
  constexpr uint64_t kTasks = 16;
  std::atomic<uint64_t> bad_sums{0};
  std::atomic<uint64_t> foreign_tasks{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      tl_client = c;
      for (uint64_t j = 0; j < kJobs; ++j) {
        const uint64_t base = (static_cast<uint64_t>(c) * kJobs + j) * kTasks;
        std::atomic<uint64_t> sum{0};
        ThreadPool::Global().Run(kTasks, 4, [&](uint64_t t) {
          if (tl_client != -1 && tl_client != c) foreign_tasks.fetch_add(1);
          sum.fetch_add(base + t, std::memory_order_relaxed);
        });
        if (sum.load() != kTasks * base + kTasks * (kTasks - 1) / 2) {
          bad_sums.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad_sums.load(), 0u);
  EXPECT_EQ(foreign_tasks.load(), 0u);
}

}  // namespace
}  // namespace vmsv
