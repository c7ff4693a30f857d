// Concurrent-engine coverage: epoch reclamation, shared-scan batch
// execution (grouping, bit-identity vs individual execution, the zone-table
// skip at page edges, identity and view-shaped slot maps), N reader threads
// racing an updater and lifecycle maintenance against a serial oracle, the
// cached member run list, and the multi-client workload runner. The whole
// suite also runs under ThreadSanitizer in CI.

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "core/virtual_view.h"
#include "exec/batch_executor.h"
#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "rewiring/vm_io.h"
#include "util/epoch.h"
#include "util/random.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr uint64_t kTestPages = 64;
constexpr Value kMaxValue = 100'000'000;

std::unique_ptr<PhysicalColumn> MakeTestColumn(DataDistribution kind,
                                               double noise = 0.10) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  spec.noise = noise;
  auto column_r = MakeColumn(spec, kTestPages * kValuesPerPage);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  return std::move(column_r).ValueOrDie();
}

// ---------------------------------------------------------------------------
// EpochManager

TEST(EpochManagerTest, RetireDefersUntilGuardsExit) {
  EpochManager epoch;
  std::atomic<int> freed{0};
  {
    EpochManager::Guard guard = epoch.Enter();
    epoch.Retire([&freed] { ++freed; });
    EXPECT_EQ(epoch.limbo_size(), 1u);
    // The pre-retire guard pins the entry...
    EXPECT_EQ(epoch.TryReclaim(), 0u);
    EXPECT_EQ(freed.load(), 0);
    // ...and a guard entered AFTER the retire does not (it can never have
    // seen the retired object).
    EpochManager::Guard later = epoch.Enter();
    EXPECT_EQ(epoch.TryReclaim(), 0u);  // first guard still active
  }
  EXPECT_EQ(epoch.TryReclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(epoch.limbo_size(), 0u);
}

TEST(EpochManagerTest, LaterGuardDoesNotPinEarlierRetire) {
  EpochManager epoch;
  std::atomic<int> freed{0};
  epoch.Retire([&freed] { ++freed; });
  EpochManager::Guard later = epoch.Enter();  // entered after the retire
  EXPECT_EQ(epoch.TryReclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochManagerTest, WaitQuiescentCoversConcurrentGuards) {
  EpochManager epoch;
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_may_exit{false};
  std::atomic<int> freed{0};
  std::thread reader([&] {
    EpochManager::Guard guard = epoch.Enter();
    reader_in.store(true);
    while (!reader_may_exit.load()) std::this_thread::yield();
  });
  while (!reader_in.load()) std::this_thread::yield();
  epoch.Retire([&freed] { ++freed; });
  std::thread releaser([&] { reader_may_exit.store(true); });
  // Must block until the reader's guard exits, then reclaim.
  epoch.WaitQuiescent();
  EXPECT_EQ(freed.load(), 1);
  reader.join();
  releaser.join();
}

TEST(EpochManagerTest, RetireObjectRunsDestructorOnReclaim) {
  struct Token {
    std::atomic<int>* counter;
    explicit Token(std::atomic<int>* c) : counter(c) {}
    ~Token() { ++*counter; }
  };
  EpochManager epoch;
  std::atomic<int> destroyed{0};
  epoch.RetireObject(std::make_unique<Token>(&destroyed));
  EXPECT_EQ(destroyed.load(), 0);
  epoch.WaitQuiescent();
  EXPECT_EQ(destroyed.load(), 1);
}

// ---------------------------------------------------------------------------
// BatchExecutor

TEST(BatchExecutorTest, GroupsOverlapComponents) {
  const std::vector<RangeQuery> queries = {
      {0, 10}, {5, 20}, {30, 40}, {15, 18}, {41, 50}};
  const std::vector<BatchGroup> groups = GroupOverlappingQueries(queries);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(groups[0].hull.lo, 0u);
  EXPECT_EQ(groups[0].hull.hi, 20u);
  EXPECT_EQ(groups[1].members, (std::vector<size_t>{2}));
  EXPECT_EQ(groups[2].members, (std::vector<size_t>{4}));
}

/// A view-shaped copy of a column for zone-table passes: slot s holds
/// column page slot_to_page[s], the pages out of order, and every fifth
/// slot is a hole. A hole holds values across the whole domain, so a pass
/// that read one would be caught; `runs` are the live slots between holes.
struct ViewShape {
  std::vector<Value> data;
  std::vector<uint64_t> slot_to_page;
  std::vector<PageRun> runs;

  const Value* base() const { return data.data(); }
};

ViewShape MakeViewShape(const PhysicalColumn& column) {
  constexpr uint64_t kHole = ~uint64_t{0};
  const uint64_t pages = column.num_pages();
  ViewShape shape;
  for (uint64_t i = 0; i < pages; ++i) {
    if (i % 5 == 4) shape.slot_to_page.push_back(kHole);
    shape.slot_to_page.push_back((i * 37 + 11) % pages);  // a permutation
  }
  shape.data.resize(shape.slot_to_page.size() * kValuesPerPage);
  for (uint64_t slot = 0; slot < shape.slot_to_page.size(); ++slot) {
    Value* out = shape.data.data() + slot * kValuesPerPage;
    const uint64_t page = shape.slot_to_page[slot];
    if (page == kHole) {
      for (uint64_t i = 0; i < kValuesPerPage; ++i) {
        out[i] = i * (~Value{0} / (kValuesPerPage - 1));
      }
      continue;
    }
    std::copy(column.PageData(page), column.PageData(page) + kValuesPerPage,
              out);
    if (!shape.runs.empty() &&
        shape.runs.back().start_page + shape.runs.back().num_pages == slot) {
      ++shape.runs.back().num_pages;
    } else {
      shape.runs.push_back(PageRun{slot, 1});
    }
  }
  return shape;
}

/// Runs `queries` as one shared pass and as one-query passes over the
/// column (identity zone map: dense, and every other page as runs) and
/// over its view-shaped copy (slot -> page map), at every available kernel
/// and threads {1, 2, 5}; each result must equal the plain ScanPages /
/// ScanPageRuns of its query.
void ExpectZoneFilteredPassesExact(const PhysicalColumn& column,
                                   const std::vector<RangeQuery>& queries) {
  const Value* base =
      reinterpret_cast<const Value*>(column.base_arena().data());
  const uint64_t pages = column.num_pages();
  std::vector<PageRun> every_other;
  for (uint64_t page = 0; page < pages; page += 2) {
    every_other.push_back(PageRun{page, 1});
  }
  const ViewShape view = MakeViewShape(column);
  const ZoneTable identity{column.zones(), nullptr};
  const ZoneTable view_zones{column.zones(), view.slot_to_page.data()};

  const ScanKernel restore = ActiveScanKernel();
  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kAvx2, ScanKernel::kAvx512}) {
    if (!ScanKernelAvailable(kernel)) continue;
    ASSERT_TRUE(SetActiveScanKernel(kernel).ok());
    for (const unsigned threads : {1u, 2u, 5u}) {
      ParallelScanOptions options;
      options.threads = threads;
      options.serial_cutoff = 0;  // force sharding even at test scale
      const ParallelScanner scanner(options);
      const BatchExecutor executor(options);
      const auto check = [&](const char* shape,
                             const std::vector<RangeQuery>& batch,
                             const std::vector<PageScanResult>& got,
                             const auto& want_of) {
        ASSERT_EQ(got.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          SCOPED_TRACE(std::string(ScanKernelName(kernel)) + " threads=" +
                       std::to_string(threads) + " " + shape + " batch=" +
                       std::to_string(batch.size()) + " q=" +
                       std::to_string(i));
          const PageScanResult want = want_of(batch[i]);
          EXPECT_EQ(got[i].match_count, want.match_count);
          EXPECT_EQ(got[i].sum, want.sum);
        }
      };
      std::vector<std::vector<RangeQuery>> batches = {queries};
      for (const RangeQuery& q : queries) batches.push_back({q});
      for (const std::vector<RangeQuery>& batch : batches) {
        check("dense", batch,
              executor.SharedScanPages(base, pages, batch, identity),
              [&](const RangeQuery& q) {
                return scanner.ScanPages(base, pages, q);
              });
        check("every-other", batch,
              executor.SharedScanPageRuns(base, every_other, batch, identity),
              [&](const RangeQuery& q) {
                return scanner.ScanPageRuns(base, every_other, q);
              });
        check("view", batch,
              executor.SharedScanPageRuns(view.base(), view.runs, batch,
                                          view_zones),
              [&](const RangeQuery& q) {
                return scanner.ScanPageRuns(view.base(), view.runs, q);
              });
      }
    }
  }
  ASSERT_TRUE(SetActiveScanKernel(restore).ok());
}

TEST(BatchExecutorTest, SharedScanBitIdenticalAcrossKernelsAndThreads) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  ExpectZoneFilteredPassesExact(
      *column, {
                   {0, kMaxValue / 2},
                   {kMaxValue / 4, (3 * kMaxValue) / 4},
                   {kMaxValue / 3, kMaxValue / 2},
                   {(9 * kMaxValue) / 10, kMaxValue},  // second component
                   {kMaxValue + 1, kMaxValue + 2},     // matches nothing
               });
}

TEST(BatchExecutorTest, ZoneSkipIsExactAtPageEdges) {
  // A sine column keeps each page's values in a narrow zone, so most (page,
  // query) pairs are skipped. The partial last page is zero-filled.
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, kTestPages * kValuesPerPage - 100);
  ASSERT_TRUE(column_r.ok()) << column_r.status().ToString();
  const std::unique_ptr<PhysicalColumn> column =
      std::move(column_r).ValueOrDie();
  ASSERT_EQ(column->num_pages(), kTestPages);
  const Value* base =
      reinterpret_cast<const Value*>(column->base_arena().data());
  const auto page_zone = [base](uint64_t page) {
    return ComputePageZone(base + page * kValuesPerPage, kValuesPerPage);
  };

  // Two even edge pages, so the every-other-page runs cover them as well.
  // Their extremes go to their first and last slots, one page each way
  // round, where a zone pass that dropped an end value would miss them.
  // Set only widens a zone, so the exact one is installed afterwards.
  const auto move_extremes = [&](uint64_t page, uint64_t min_slot,
                                 uint64_t max_slot) {
    const uint64_t row = page * kValuesPerPage;
    column->Set(row + min_slot, page_zone(page).min - 7);
    column->Set(row + max_slot, page_zone(page).max + 7);
    column->SetZone(page, page_zone(page));
  };
  move_extremes(10, 0, kValuesPerPage - 1);
  move_extremes(40, kValuesPerPage - 1, 0);

  std::vector<RangeQuery> queries = {{0, 0}, {~Value{0} - 1, ~Value{0}}};
  for (const uint64_t page : {uint64_t{10}, uint64_t{40}}) {
    const PageZone zone = page_zone(page);
    ASSERT_GT(zone.min, Value{1000});
    queries.push_back({zone.min - 1000, zone.min});      // ends at min
    queries.push_back({zone.max, zone.max + 1000});      // starts at max
    queries.push_back({zone.min - 1000, zone.min - 1});  // one below min
    queries.push_back({zone.max + 1, zone.max + 1000});  // one above max
    // The gap between two adjacent values of the page: inside the zone, so
    // the kernel runs, yet no value of this page matches.
    std::vector<Value> values(base + page * kValuesPerPage,
                              base + (page + 1) * kValuesPerPage);
    std::sort(values.begin(), values.end());
    size_t gap = 1;
    while (gap < values.size() && values[gap] - values[gap - 1] < 3) ++gap;
    ASSERT_LT(gap, values.size());
    queries.push_back({values[gap - 1] + 1, values[gap] - 1});
  }
  Rng rng(17);
  const Value width = kMaxValue / 100;
  for (int i = 0; i < 32; ++i) {
    const Value lo = rng.Below(kMaxValue - width);
    queries.push_back({lo, lo + width});
  }

  // The column's table must be the exact zones, and the data must keep
  // exercising both sides of the zone test: a pair the pass skips, and a
  // pair whose range only touches the zone's edge.
  uint64_t skipped_pairs = 0;
  uint64_t edge_pairs = 0;
  for (uint64_t page = 0; page < kTestPages; ++page) {
    const PageZone zone = page_zone(page);
    ASSERT_EQ(column->zones()[page].min, zone.min) << "page " << page;
    ASSERT_EQ(column->zones()[page].max, zone.max) << "page " << page;
    for (const RangeQuery& q : queries) {
      if (!zone.Intersects(q)) {
        ++skipped_pairs;
      } else if (q.hi == zone.min || q.lo == zone.max) {
        ++edge_pairs;
      }
    }
  }
  EXPECT_GT(skipped_pairs, 0u);
  EXPECT_GT(edge_pairs, 0u);
  EXPECT_EQ(page_zone(kTestPages - 1).min, 0u) << "tail is not zero-filled";

  ExpectZoneFilteredPassesExact(*column, queries);
}

// ---------------------------------------------------------------------------
// Concurrent readers vs serial oracle

TEST(ConcurrentEngineTest, ConcurrentReadersMatchSerialOracle) {
  AdaptiveConfig config;
  config.max_views = 4;  // force budget pressure under concurrent adaptation
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  std::vector<RangeQuery> queries;
  for (uint64_t i = 0; i < 8; ++i) {
    const Value lo = i * (kMaxValue / 10);
    queries.push_back(RangeQuery{lo, lo + kMaxValue / 8});
  }
  // Readers-only: the data never changes, so every result must equal the
  // serial full-scan oracle no matter how adaptation interleaves.
  std::vector<QueryExecution> oracle;
  for (const RangeQuery& q : queries) {
    auto r = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(r.ok());
    oracle.push_back(*r);
  }

  constexpr int kReaders = 4;
  constexpr int kIterations = 40;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t qi = (t + i) % queries.size();
        auto exec = adaptive->Execute(queries[qi]);
        if (!exec.ok() || exec->match_count != oracle[qi].match_count ||
            exec->sum != oracle[qi].sum) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  // 8 distinct ranges through a 4-view budget: the engine had to exercise
  // the eviction/drop path concurrently.
  const CumulativeStats m = adaptive->shard(0)->metrics();
  EXPECT_GT(m.views_evicted + m.candidates_dropped, 0u);
  // With no reader in flight, the limbo list must drain completely.
  adaptive->shard(0)->epoch_manager().TryReclaim();
  EXPECT_EQ(adaptive->shard(0)->epoch_manager().limbo_size(), 0u);
}

TEST(ConcurrentEngineTest, ConcurrentLazyMaterializationOfDistinctViews) {
  // Many reader threads racing the first (lazy) materialization of eight
  // different views: every scan must see a fully built arena. Threshold 1
  // maps each view at its first hit.
  AdaptiveConfig config;
  config.materialize_after_hits = 1;
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  std::vector<RangeQuery> queries;
  for (uint64_t i = 0; i < 8; ++i) {
    const Value lo = i * (kMaxValue / 10);
    queries.push_back(RangeQuery{lo, lo + kMaxValue / 12});
  }
  std::vector<QueryExecution> oracle;
  for (const RangeQuery& q : queries) {
    auto r = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(r.ok());
    oracle.push_back(*r);
    // Create the candidate (lazy: page list only) so the concurrent phase
    // below starts with 8 unmaterialized views to race on.
    ASSERT_TRUE(adaptive->Execute(q).ok());
  }

  constexpr int kReaders = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 24; ++i) {
        const size_t qi = (t + i) % queries.size();
        auto exec = adaptive->Execute(queries[qi]);
        if (!exec.ok() || exec->match_count != oracle[qi].match_count ||
            exec->sum != oracle[qi].sum) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentEngineTest, RacingReadersMapAViewOnceAtTheThresholdHit) {
  // Four readers race across the threshold hit of one view. Every answer
  // is exact, and the view maps exactly once: one reservation plus one mmap
  // per file run, however the readers interleave.
  constexpr uint64_t kThreshold = 16;
  FaultInjectingVmIo io;
  AdaptiveConfig config;
  config.materialize_after_hits = kThreshold;
  config.vm_io = &io;
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;
  const RangeQuery range{20'000'000, 40'000'000};
  const RangeQuery inside{22'000'000, 38'000'000};
  auto oracle = adaptive->ExecuteFullScan(inside);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(adaptive->Execute(range).ok());  // the miss: a lazy candidate
  const VirtualView* view =
      adaptive->shard(0)->view_index().views().front().get();

  // Hits 1 to 14 read over base and map nothing.
  io.Arm(VmFaultPlan{});
  for (uint64_t hit = 1; hit < kThreshold - 1; ++hit) {
    auto exec = adaptive->Execute(inside);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
  }
  ASSERT_FALSE(view->is_materialized());
  ASSERT_EQ(io.op_count(), 0u);

  // The readers' first two hits include the threshold hit, the 16th.
  constexpr int kReaders = 4;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      ++ready;
      while (ready.load() < kReaders) std::this_thread::yield();
      for (int i = 0; i < 8; ++i) {
        auto exec = adaptive->Execute(inside);
        if (!exec.ok() || exec->match_count != oracle->match_count ||
            exec->sum != oracle->sum ||
            exec->stats.decision != CandidateDecision::kAnsweredFromView) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(view->is_materialized());
  const FaultInjectingVmIo::Stats stats = io.stats();
  EXPECT_EQ(stats.mmaps, 1 + view->num_page_runs());
  EXPECT_EQ(stats.munmaps, 0u);
}

/// Readers race an updater whose flushes move whole pages in and out of
/// the views. At threshold 1 the views hold arenas, so the flushes map
/// pages at the tail and swap-remove them in place; above it the views
/// read over base, and each flush edits the membership the readers' runs
/// come from.
void RaceReadersUpdaterAndMaintenance(uint64_t materialize_after_hits) {
  AdaptiveConfig config;
  config.materialize_after_hits = materialize_after_hits;
  config.max_views = 4;
  // Clean page-value bands so whole-page rewrites change view membership.
  auto column = MakeTestColumn(DataDistribution::kLinear, /*noise=*/0.0);

  // The deterministic update script: fully rewrite two pages to a far value
  // (page-membership churn: swap-removes and tail appends), plus scattered
  // single-row updates.
  struct ScriptedUpdate {
    uint64_t row;
    Value value;
  };
  std::vector<ScriptedUpdate> script;
  for (const uint64_t page : {uint64_t{3}, uint64_t{9}}) {
    for (uint64_t row = page * kValuesPerPage; row < (page + 1) * kValuesPerPage;
         ++row) {
      script.push_back(ScriptedUpdate{row, (9 * kMaxValue) / 10});
    }
  }
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    script.push_back(ScriptedUpdate{rng.Below(kTestPages * kValuesPerPage),
                                    rng.Below(kMaxValue + 1)});
  }

  std::vector<RangeQuery> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    const Value lo = i * (kMaxValue / 8);
    queries.push_back(RangeQuery{lo, lo + kMaxValue / 6});
  }
  // Queries nested strictly inside those six. Answered from a wider view,
  // they read only the pages whose zone meets them, while the updater
  // moves the zones of pages 3 and 9.
  for (uint64_t i = 0; i < 6; ++i) {
    const Value lo = i * (kMaxValue / 8) + kMaxValue / 24;
    queries.push_back(RangeQuery{lo, lo + kMaxValue / 12});
  }

  // Serial oracle: the engine linearizes every read against a PREFIX of the
  // update script (updates exclude readers; queries flush before
  // answering), so each observed (count, sum) must equal the full-scan
  // result after some prefix. Built incrementally: one value changes per
  // step, so each query's aggregate adjusts in O(1).
  std::vector<Value> shadow(kTestPages * kValuesPerPage);
  for (uint64_t row = 0; row < shadow.size(); ++row) {
    shadow[row] = column->Get(row);
  }
  std::vector<std::set<std::pair<uint64_t, Value>>> valid(queries.size());
  std::vector<std::pair<uint64_t, Value>> current(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    uint64_t count = 0;
    Value sum = 0;
    for (const Value v : shadow) {
      if (queries[qi].Contains(v)) {
        ++count;
        sum += v;
      }
    }
    current[qi] = {count, sum};
    valid[qi].insert(current[qi]);
  }
  for (const ScriptedUpdate& update : script) {
    const Value old_value = shadow[update.row];
    shadow[update.row] = update.value;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto& [count, sum] = current[qi];
      if (queries[qi].Contains(old_value)) {
        --count;
        sum -= old_value;
      }
      if (queries[qi].Contains(update.value)) {
        ++count;
        sum += update.value;
      }
      valid[qi].insert(current[qi]);
    }
  }

  auto adaptive_r = Db::Create(std::move(column), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  constexpr int kReaders = 3;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      int i = 0;
      // Keep reading until the writer finished, then one final sweep so
      // every reader also observes the terminal state.
      while (true) {
        const bool finish = writer_done.load();
        const size_t qi = (t + i++) % queries.size();
        auto exec = adaptive->Execute(queries[qi]);
        if (!exec.ok() ||
            valid[qi].count({exec->match_count, exec->sum}) == 0) {
          ++failures;
          return;
        }
        if (finish && i > 2 * static_cast<int>(queries.size())) return;
      }
    });
  }
  std::thread writer([&] {
    for (size_t u = 0; u < script.size(); ++u) {
      adaptive->Update(script[u].row, script[u].value);
      // Periodic explicit flushes exercise the writer-driven maintenance
      // path; in between, readers flush for themselves.
      if (u % 200 == 199) {
        auto flushed = adaptive->FlushUpdates();
        if (!flushed.ok()) ++failures;
      }
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Terminal state must equal the final oracle prefix exactly.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto exec = adaptive->Execute(queries[qi]);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->match_count, current[qi].first) << "query " << qi;
    EXPECT_EQ(exec->sum, current[qi].second);
    auto baseline = adaptive->ExecuteFullScan(queries[qi]);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(exec->match_count, baseline->match_count);
    EXPECT_EQ(exec->sum, baseline->sum);
  }
  adaptive->shard(0)->epoch_manager().TryReclaim();
  EXPECT_EQ(adaptive->shard(0)->epoch_manager().limbo_size(), 0u);
}

TEST(ConcurrentEngineTest, ReadersRaceUpdaterAndLifecycleMaintenance) {
  for (const uint64_t threshold :
       {uint64_t{1}, AdaptiveConfig{}.materialize_after_hits}) {
    SCOPED_TRACE("materialize_after_hits=" + std::to_string(threshold));
    RaceReadersUpdaterAndMaintenance(threshold);
  }
}

TEST(ConcurrentEngineTest, ZoneTighteningRacesLockFreeZoneReaders) {
  // Readers loop over ranges in the lower half of the domain while a writer
  // moves values only within the upper half and calls Checkpoint between
  // its Updates, so the readers' answers cannot change. The table sits on a
  // column attached to a loaded file: every zone starts loose, with no
  // update pending, so the writer's first Checkpoint re-derives every zone
  // while the readers' view hits, candidate builds and base passes read
  // them lock-free. Each Update loosens a zone again for the flush or the
  // next Checkpoint.
  auto attached = PhysicalColumn::Attach(
      MakeTestColumn(DataDistribution::kSine)->file(),
      kTestPages * kValuesPerPage);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto adaptive_r = Db::Create(std::move(attached).ValueOrDie(), DbOptions{});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;
  const PhysicalColumn& column = adaptive->shard(0)->column();
  const Value half = kMaxValue / 2;

  std::vector<RangeQuery> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    const Value lo = i * (kMaxValue / 16);
    queries.push_back(RangeQuery{lo, lo + kMaxValue / 10});
    queries.push_back(RangeQuery{lo + kMaxValue / 40, lo + kMaxValue / 20});
  }
  std::vector<QueryExecution> oracle;
  for (const RangeQuery& q : queries) {
    ASSERT_LT(q.hi, half);
    auto r = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(r.ok());
    oracle.push_back(*r);
  }
  std::vector<uint64_t> upper_rows;
  for (uint64_t row = 0; row < column.num_rows(); row += 97) {
    if (column.Get(row) >= half) upper_rows.push_back(row);
  }
  ASSERT_GE(upper_rows.size(), 16u);

  constexpr int kReaders = 3;
  std::atomic<int> answered{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = t; !writer_done.load() || i < 2 * queries.size(); ++i) {
        const size_t qi = i % queries.size();
        auto exec = adaptive->Execute(queries[qi]);
        if (!exec.ok() || exec->match_count != oracle[qi].match_count ||
            exec->sum != oracle[qi].sum) {
          ++failures;
          return;
        }
        ++answered;
      }
    });
  }
  std::thread writer([&] {
    while (answered.load() < 2 * kReaders) std::this_thread::yield();
    if (!adaptive->Checkpoint().ok()) ++failures;
    Rng rng(31);
    for (int u = 0; u < 400; ++u) {
      const uint64_t row = upper_rows[rng.Below(upper_rows.size())];
      if (!adaptive->Update(row, half + rng.Below(half)).ok() ||
          !adaptive->Checkpoint().ok()) {
        ++failures;
      }
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // A last write removes a page's max, and Checkpoint alone narrows its
  // zone (an in-memory Checkpoint flushes nothing).
  const uint64_t page = PhysicalColumn::PageOfRow(upper_rows.front());
  const PageZone wide = ComputePageZone(column.PageData(page), kValuesPerPage);
  ASSERT_GT(wide.max, half);
  uint64_t max_row = page * kValuesPerPage;
  while (column.Get(max_row) != wide.max) ++max_row;
  ASSERT_TRUE(adaptive->Update(max_row, half).ok());
  ASSERT_TRUE(adaptive->Checkpoint().ok());
  EXPECT_TRUE(adaptive->shard(0)->HasPendingUpdates());
  EXPECT_TRUE(column.LoosePages().empty());
  for (uint64_t p = 0; p < column.num_pages(); ++p) {
    const PageZone exact = ComputePageZone(column.PageData(p), kValuesPerPage);
    EXPECT_EQ(column.zones()[p].min, exact.min) << p;
    EXPECT_EQ(column.zones()[p].max, exact.max) << p;
  }
  EXPECT_LT(column.zones()[page].max, wide.max);
}

// ---------------------------------------------------------------------------
// Batch vs individual execution

TEST(ConcurrentEngineTest, BatchBitIdenticalToIndividualAndScansFewerPages) {
  // Heavily overlapping workload: every query windows the same half of the
  // domain.
  std::vector<RangeQuery> queries;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    const Value lo = rng.Below(kMaxValue / 2);
    queries.push_back(RangeQuery{lo, lo + kMaxValue / 3});
  }

  AdaptiveConfig config;
  auto individual_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  auto batch_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(individual_r.ok() && batch_r.ok());
  auto& individual = *individual_r;
  auto& batch = *batch_r;

  std::vector<QueryExecution> individual_results;
  for (const RangeQuery& q : queries) {
    auto exec = individual->Execute(q);
    ASSERT_TRUE(exec.ok());
    individual_results.push_back(*exec);
  }
  const uint64_t individual_pages = individual->shard(0)->metrics().scanned_pages;

  auto batch_exec = batch->ExecuteBatch(queries);
  ASSERT_TRUE(batch_exec.ok());
  ASSERT_EQ(batch_exec->queries.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch_exec->queries[i].match_count,
              individual_results[i].match_count)
        << "query " << i;
    EXPECT_EQ(batch_exec->queries[i].sum, individual_results[i].sum);
  }
  // The shared pass reads each base page once for the whole batch; the
  // individual engine paid for (at least) one full scan plus a view scan
  // per subsequent query.
  EXPECT_LT(batch_exec->shared_scanned_pages, individual_pages);
  EXPECT_LT(batch_exec->shared_scanned_pages,
            batch_exec->individual_equivalent_pages);
  EXPECT_GE(batch_exec->overlap_groups, 1u);
  // Per-query accounting must add up to the batch totals.
  uint64_t charged = 0;
  for (const QueryExecution& exec : batch_exec->queries) {
    charged += exec.stats.scanned_pages;
  }
  EXPECT_EQ(charged, batch_exec->shared_scanned_pages);

  // Batches never adapt, so warm the pool with Execute: the next batch then
  // routes its members through shared VIEW passes, and results must still
  // match the full-scan oracle.
  for (const RangeQuery& q : queries) ASSERT_TRUE(batch->Execute(q).ok());
  auto warm_batch = batch->ExecuteBatch(queries);
  ASSERT_TRUE(warm_batch.ok());
  EXPECT_GT(warm_batch->view_answered, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto baseline = batch->ExecuteFullScan(queries[i]);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(warm_batch->queries[i].match_count, baseline->match_count);
    EXPECT_EQ(warm_batch->queries[i].sum, baseline->sum);
  }
}

// ---------------------------------------------------------------------------
// Satellite: cached member run list

TEST(ConcurrentEngineTest, RunListCacheStaysCorrectAcrossMembershipChanges) {
  // A view without an arena scans its cached member runs over the base
  // mapping, so every edit below reaches the cache through Scan and
  // num_page_runs().
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view_r = BuildViewByScan(*column, 0, kMaxValue,
                                ViewCreationOptions{/*coalesce_runs=*/true,
                                                    /*background_mapping=*/false,
                                                    /*lazy_materialize=*/true});
  ASSERT_TRUE(view_r.ok());
  auto view = std::move(view_r).ValueOrDie();
  ASSERT_FALSE(view->is_materialized());
  for (uint64_t page = 1; page < kTestPages; page += 2) {
    ASSERT_TRUE(view->RemovePage(page).ok());
  }
  const RangeQuery q{0, kMaxValue};

  auto reference = [&](const VirtualView& v) {
    PageScanResult ref;
    v.ForEachPage([&](uint64_t page) {
      ref.Merge(ScanPageScalar(column->PageData(page), kValuesPerPage, q));
    });
    return ref;
  };
  auto reference_runs = [](const VirtualView& v) {
    uint64_t runs = 0;
    uint64_t next = ~uint64_t{0};
    v.ForEachPage([&](uint64_t page) {
      if (page != next) ++runs;
      next = page + 1;
    });
    return runs;
  };

  // First scan builds the cache; every membership change must invalidate it
  // (a stale cache would scan a removed page or miss an added one).
  EXPECT_EQ(view->num_page_runs(), reference_runs(*view));
  PageScanResult ref = reference(*view);
  PageScanResult got = view->Scan(q);
  EXPECT_EQ(got.match_count, ref.match_count);
  EXPECT_EQ(got.sum, ref.sum);

  ASSERT_TRUE(view->RemovePage(2).ok());
  EXPECT_EQ(view->num_page_runs(), reference_runs(*view));
  ref = reference(*view);
  got = view->Scan(q);
  EXPECT_EQ(got.match_count, ref.match_count);
  EXPECT_EQ(got.sum, ref.sum);

  ASSERT_TRUE(view->AppendPage(1).ok());
  EXPECT_EQ(view->num_page_runs(), reference_runs(*view));
  ref = reference(*view);
  got = view->Scan(q);
  EXPECT_EQ(got.match_count, ref.match_count);
  EXPECT_EQ(got.sum, ref.sum);
  EXPECT_FALSE(view->is_materialized());
}

// ---------------------------------------------------------------------------
// Multi-client workload runner

TEST(ConcurrentEngineTest, MultiClientRunnerMergesTracesAndVerifies) {
  AdaptiveConfig config;
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  QueryWorkloadSpec spec;
  spec.num_queries = 30;
  spec.domain_hi = kMaxValue;
  spec.seed = 11;
  const auto queries = MakeFixedSelectivityWorkload(spec, 0.10);

  RunnerOptions options;
  options.run_baseline = false;
  options.verify_results = true;  // every client checks its own answers
  options.num_clients = 3;
  auto report_r = RunWorkload(adaptive.get(), queries, options);
  ASSERT_TRUE(report_r.ok()) << report_r.status().ToString();
  const WorkloadReport& report = *report_r;

  EXPECT_EQ(report.num_clients, 3u);
  EXPECT_GT(report.queries_per_sec, 0.0);
  EXPECT_GT(report.wall_ms, 0.0);
  ASSERT_EQ(report.traces.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Traces land in sequence slots regardless of executing client.
    EXPECT_EQ(report.traces[i].query, queries[i]);
    EXPECT_EQ(report.traces[i].client, i % 3);
  }
  EXPECT_GT(report.adaptive_total_ms, 0.0);
}

}  // namespace
}  // namespace vmsv
