// Tiered cold-view lifecycle suite (ARCHITECTURE.md "Tiering model"): the
// demoted flag in a manifest pool slot, the demote → reopen → promote
// acceptance round-trip (bit-identical to a never-demoted column), demoted
// membership surviving a flush or a checkpoint and a kill, seeded
// randomized interleavings of update/flush/demote/checkpoint/reopen
// against the full-scan serial oracle, pressure relief's pool edits
// surviving a kill, and the demote-while-scan race (the CI TSAN job runs
// this binary).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "scoped_temp_dir.h"
#include "rewiring/vm_io.h"
#include "storage/manifest.h"
#include "storage/storage_io.h"
#include "util/env.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;

uint64_t TestPages() { return GetEnvUint64("VMSV_PAGES", 64); }

using ScratchDir = ScopedTempDir;

DistributionSpec SineSpec() {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  return spec;
}

std::vector<RangeQuery> TestQueries(uint64_t n, uint64_t seed) {
  QueryWorkloadSpec wspec;
  wspec.num_queries = n;
  wspec.domain_hi = kMaxValue;
  wspec.seed = seed;
  return MakeFixedSelectivityWorkload(wspec, 0.10);
}

/// Small hot budget so organic demotions trigger; roomy cold budget so the
/// tests control trimming explicitly.
AdaptiveConfig TieringConfig() {
  AdaptiveConfig config;
  config.max_views = 4;
  config.max_cold_views = 8;
  config.lifecycle.eviction_margin = 0.05;
  return config;
}

/// Owns the facade table while exposing the underlying engine, so the
/// white-box tiering assertions read like they always have.
struct OwnedColumn {
  std::unique_ptr<Table> table;
  AdaptiveColumn* operator->() const { return table->shard(0); }
  AdaptiveColumn& operator*() const { return *table->shard(0); }
  AdaptiveColumn* get() const { return table->shard(0); }
  void reset() { table.reset(); }
};

StatusOr<OwnedColumn> OpenColumn(const std::string& dir,
                                 const AdaptiveConfig& config) {
  auto table_r = Db::Open(dir, DbOptions{config});
  if (!table_r.ok()) return table_r.status();
  return OwnedColumn{std::move(table_r).ValueOrDie()};
}

OwnedColumn MakeDurable(const std::string& dir, const AdaptiveConfig& config) {
  auto table_r = Db::CreateDurable(dir, TestPages() * kValuesPerPage,
                                   DbOptions{config});
  EXPECT_TRUE(table_r.ok()) << table_r.status().ToString();
  OwnedColumn adaptive{std::move(table_r).ValueOrDie()};
  FillColumn(SineSpec(), adaptive->mutable_column());
  return adaptive;
}

struct QueryResult {
  uint64_t match_count;
  Value sum;
  bool operator==(const QueryResult& o) const {
    return match_count == o.match_count && sum == o.sum;
  }
  bool operator!=(const QueryResult& o) const { return !(*this == o); }
};

QueryResult Adaptive(AdaptiveColumn* adaptive, const RangeQuery& q) {
  auto exec = adaptive->Execute(q);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  return QueryResult{exec->match_count, exec->sum};
}

/// The serial oracle: the base column is the ground truth no tier state can
/// corrupt, so a full scan is always bit-exact.
QueryResult Oracle(const AdaptiveColumn* adaptive, const RangeQuery& q) {
  auto exec = adaptive->ExecuteFullScan(q);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  return QueryResult{exec->match_count, exec->sum};
}

size_t ColdCount(const AdaptiveColumn& adaptive) {
  size_t cold = 0;
  for (const auto& view : adaptive.view_index().views()) {
    if (view->demoted()) ++cold;
  }
  return cold;
}

/// The pool as (lo, hi, demoted), sorted — what a reopen must reproduce.
std::vector<std::tuple<Value, Value, bool>> PoolShape(
    const AdaptiveColumn& adaptive) {
  std::vector<std::tuple<Value, Value, bool>> shape;
  for (const auto& view : adaptive.view_index().views()) {
    shape.emplace_back(view->lo(), view->hi(), view->demoted());
  }
  std::sort(shape.begin(), shape.end());
  return shape;
}

/// The names in `dir`, sorted.
std::vector<std::string> DirListing(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// First demoted view missing at least one column page (so an update can
/// deterministically GROW its membership), or nullptr.
const VirtualView* FindDemotedViewWithAbsentPage(const AdaptiveColumn& adaptive,
                                                 uint64_t* absent_page) {
  for (const auto& view : adaptive.view_index().views()) {
    if (!view->demoted()) continue;
    const std::vector<uint64_t> pages = view->physical_pages();
    const std::unordered_set<uint64_t> held(pages.begin(), pages.end());
    for (uint64_t page = 0; page < adaptive.column().num_pages(); ++page) {
      if (held.count(page) == 0) {
        *absent_page = page;
        return view.get();
      }
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Manifest: the demoted flag in a pool slot

TEST(ManifestTierTest, DemotedFlagSurvivesSlotRoundTrip) {
  const std::optional<ManifestPool> pool = DecodeManifestPool(
      EncodeManifestPool(3, {{0, 50, 10, /*demoted=*/true},
                             {60, 90, 4, /*demoted=*/false}}));
  ASSERT_TRUE(pool.has_value());
  ASSERT_EQ(pool->views.size(), 2u);
  EXPECT_TRUE(pool->views[0].demoted);
  EXPECT_FALSE(pool->views[1].demoted);
  EXPECT_EQ(pool->views[1].lo, 60u);
}

// ---------------------------------------------------------------------------
// Engine lifecycle

TEST(TieringTest, DemoteKeepsViewRoutableAndPromotesOnHit) {
  ScratchDir scratch("tiering");
  // Threshold 1: a routed hit re-maps a demoted view at once.
  AdaptiveConfig config = TieringConfig();
  config.materialize_after_hits = 1;
  auto adaptive = MakeDurable(scratch.path(), config);
  const auto queries = TestQueries(4, 97);
  std::vector<QueryResult> expected;
  for (const RangeQuery& q : queries) expected.push_back(Oracle(adaptive.get(), q));
  for (const RangeQuery& q : queries) ASSERT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
  const size_t pool = adaptive->view_index().num_partial_views();
  ASSERT_GT(pool, 0u);

  const size_t demoted = adaptive->DemoteColdestViews(pool);
  EXPECT_EQ(demoted, pool);
  EXPECT_EQ(ColdCount(*adaptive), pool);
  EXPECT_EQ(adaptive->Health().views_demoted, pool);
  EXPECT_EQ(adaptive->lifecycle_stats().demotions, pool);

  // A routed query re-materializes the demoted view and promotes it — same
  // answer, and the pool keeps its members (no destroy).
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Adaptive(adaptive.get(), queries[i]), expected[i]);
  }
  EXPECT_GT(adaptive->Health().views_promoted, 0u);
  EXPECT_LT(ColdCount(*adaptive), pool);
  EXPECT_EQ(adaptive->view_index().num_partial_views(), pool);
}

TEST(TieringTest, DemotedViewMapsAgainOnlyAtTheThreshold) {
  // A view that loses its arena starts counting again: it answers over
  // base until its hits since the demotion reach the threshold, and the
  // hit that gets there re-maps and promotes it.
  ScratchDir scratch("tiering_threshold");
  AdaptiveConfig config = TieringConfig();
  config.materialize_after_hits = 3;
  auto adaptive = MakeDurable(scratch.path(), config);
  const RangeQuery q{20'000'000, 30'000'000};
  const QueryResult expected = Oracle(adaptive.get(), q);
  Adaptive(adaptive.get(), q);  // the miss: a lazy candidate
  const VirtualView* view = adaptive->view_index().views().front().get();
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "created" : "demoted");
    for (int hit = 1; hit <= 3; ++hit) {
      EXPECT_FALSE(view->is_materialized()) << "before hit " << hit;
      EXPECT_EQ(Adaptive(adaptive.get(), q), expected);
    }
    EXPECT_TRUE(view->is_materialized());
    EXPECT_FALSE(view->demoted());
    if (round == 0) {
      ASSERT_EQ(adaptive->DemoteColdestViews(1), 1u);
    }
  }
  EXPECT_EQ(adaptive->Health().views_promoted, 1u);
}

TEST(TieringTest, DemoteReopenPromoteBitIdenticalToNeverDemoted) {
  // The acceptance contract: a column that demoted its views, checkpointed,
  // restarted, and promoted them back answers every query bit-identically
  // to a column that never demoted anything.
  ScratchDir tiered_dir("tiering_a");
  ScratchDir control_dir("tiering_b");
  const auto queries = TestQueries(6, 131);
  // Threshold 1: the reopened pool's routed hits re-map and promote.
  AdaptiveConfig tiered_config = TieringConfig();
  tiered_config.materialize_after_hits = 1;

  std::vector<QueryResult> tiered;
  {
    auto adaptive = MakeDurable(tiered_dir.path(), tiered_config);
    for (const RangeQuery& q : queries) Adaptive(adaptive.get(), q);
    ASSERT_GT(adaptive->DemoteColdestViews(
                  adaptive->view_index().num_partial_views()), 0u);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
  }
  {
    auto reopen_r = OpenColumn(tiered_dir.path(), tiered_config);
    ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
    auto adaptive = std::move(reopen_r).ValueOrDie();
    EXPECT_GT(adaptive->Health().cold_view_reloads, 0u);
    EXPECT_GT(ColdCount(*adaptive), 0u);
    for (const RangeQuery& q : queries) {
      tiered.push_back(Adaptive(adaptive.get(), q));
    }
    EXPECT_GT(adaptive->Health().views_promoted, 0u);
  }

  std::vector<QueryResult> control;
  {
    AdaptiveConfig config = TieringConfig();
    config.lifecycle.enable_demotion = false;
    auto adaptive = MakeDurable(control_dir.path(), config);
    for (const RangeQuery& q : queries) Adaptive(adaptive.get(), q);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    adaptive.reset();  // release the journal flock before reopening
    auto reopen_r = OpenColumn(control_dir.path(), config);
    ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
    adaptive = std::move(reopen_r).ValueOrDie();
    for (const RangeQuery& q : queries) {
      control.push_back(Adaptive(adaptive.get(), q));
    }
  }
  EXPECT_EQ(tiered, control);
}

TEST(TieringTest, TierStateSurvivesKillWithoutCheckpoint) {
  // The demotion's own slot write (no checkpoint after the demote) must
  // reopen the view demoted, with the pages its range defines.
  ScratchDir scratch("tiering_kill");
  const auto queries = TestQueries(4, 53);
  size_t demoted = 0;
  {
    auto adaptive = MakeDurable(scratch.path(), TieringConfig());
    for (const RangeQuery& q : queries) Adaptive(adaptive.get(), q);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    demoted = adaptive->DemoteColdestViews(2);
    ASSERT_GT(demoted, 0u);
    // No checkpoint: the object drops here, simulating a kill (there is
    // deliberately no destructor checkpoint).
  }
  auto reopen_r = OpenColumn(scratch.path(), TieringConfig());
  ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
  auto adaptive = std::move(reopen_r).ValueOrDie();
  EXPECT_EQ(ColdCount(*adaptive), demoted);
  EXPECT_EQ(adaptive->Health().cold_view_reloads, demoted);
  for (const RangeQuery& q : queries) {
    EXPECT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
  }
}

TEST(TieringTest, ColdBudgetTrimsLowestScoringColdView) {
  ScratchDir scratch("tiering_trim");
  AdaptiveConfig config = TieringConfig();
  config.max_cold_views = 1;
  auto adaptive = MakeDurable(scratch.path(), config);
  const auto queries = TestQueries(4, 97);
  for (const RangeQuery& q : queries) Adaptive(adaptive.get(), q);
  const size_t pool = adaptive->view_index().num_partial_views();
  ASSERT_GT(pool, 1u);
  EXPECT_EQ(adaptive->DemoteColdestViews(pool), pool);
  // The trim destroyed all but max_cold_views of them.
  EXPECT_EQ(ColdCount(*adaptive), 1u);
  EXPECT_EQ(adaptive->view_index().num_partial_views(), 1u);
  EXPECT_GT(adaptive->metrics().views_evicted, 0u);
  // Queries still answer exactly (destroyed ranges re-adapt via full scan).
  for (const RangeQuery& q : queries) {
    EXPECT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
  }
}

TEST(TieringTest, DemotedMembershipChangeSurvivesKillAfterFlush) {
  // A flush that moves a page into a demoted view writes no slot, exactly
  // as for a hot view; a kill right after it reopens the new membership,
  // derived from the data. The second round checkpoints instead of
  // flushing: the pool is clean, so it writes no slot either, and a kill
  // after it reopens the same membership. Either way no write after create
  // renames a file or fsyncs the directory, and the directory holds
  // exactly the column's durable files.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint" : "flush");
    ScratchDir scratch(checkpoint ? "tiering_cold_checkpoint"
                                  : "tiering_cold_flush");
    const auto queries = TestQueries(4, 97);
    RangeQuery probe{0, 0};
    uint64_t absent_page = 0;
    std::vector<std::tuple<Value, Value, bool>> shape;
    FaultInjectingIo io;  // no fault plan: counts real I/O
    FaultInjectingIo::Stats created;
    {
      AdaptiveConfig config = TieringConfig();
      config.storage.io = &io;
      auto adaptive = MakeDurable(scratch.path(), config);
      created = io.stats();
      for (const RangeQuery& q : queries) Adaptive(adaptive.get(), q);
      ASSERT_TRUE(adaptive->Checkpoint().ok());
      ASSERT_GT(adaptive->DemoteColdestViews(
                    adaptive->view_index().num_partial_views()), 0u);
      const VirtualView* view =
          FindDemotedViewWithAbsentPage(*adaptive, &absent_page);
      ASSERT_NE(view, nullptr);
      probe = RangeQuery{view->lo(), view->hi()};
      ASSERT_TRUE(adaptive->Update(absent_page * kValuesPerPage,
                                   (probe.lo + probe.hi) / 2).ok());
      const DurabilityStats before = adaptive->durability_stats();
      if (checkpoint) {
        ASSERT_TRUE(adaptive->Checkpoint().ok());
      } else {
        auto flushed = adaptive->FlushUpdates();
        ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
      }
      ASSERT_TRUE(view->demoted());
      ASSERT_TRUE(view->ContainsPage(absent_page));
      const DurabilityStats after = adaptive->durability_stats();
      EXPECT_EQ(after.manifest_writes, before.manifest_writes);
      EXPECT_FALSE(after.manifest_dirty);
      shape = PoolShape(*adaptive);
    }  // kill: nothing runs after the flush or checkpoint
    EXPECT_EQ(io.stats().renames, created.renames);
    EXPECT_EQ(io.stats().dir_fsyncs, created.dir_fsyncs);
    EXPECT_EQ(DirListing(scratch.path()),
              (std::vector<std::string>{"MANIFEST", "MANIFEST.0", "MANIFEST.1",
                                        "column.dat", "journal.wal"}));
    auto reopen_r = OpenColumn(scratch.path(), TieringConfig());
    ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
    auto adaptive = std::move(reopen_r).ValueOrDie();
    EXPECT_EQ(PoolShape(*adaptive), shape);
    const VirtualView* restored =
        adaptive->view_index().FindSmallestCovering(probe);
    ASSERT_NE(restored, nullptr);
    EXPECT_TRUE(restored->ContainsPage(absent_page));
    EXPECT_EQ(Adaptive(adaptive.get(), probe), Oracle(adaptive.get(), probe));
    for (const RangeQuery& q : queries) {
      EXPECT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
    }
  }
}

TEST(TieringTest, DemotionDisabledIsNoOp) {
  ScratchDir scratch("tiering_off");
  AdaptiveConfig config = TieringConfig();
  config.lifecycle.enable_demotion = false;
  auto adaptive = MakeDurable(scratch.path(), config);
  for (const RangeQuery& q : TestQueries(3, 97)) Adaptive(adaptive.get(), q);
  EXPECT_EQ(adaptive->DemoteColdestViews(8), 0u);
  EXPECT_EQ(ColdCount(*adaptive), 0u);
  EXPECT_EQ(adaptive->Health().views_demoted, 0u);
}

TEST(TieringTest, PressureReliefPoolSurvivesKill) {
  // Pressure relief runs outside any flush, so the pool edits it makes —
  // demotions, the cold-tier trim they trigger, and destroy-evictions when
  // demotion is off — must reach a slot: a kill before the next
  // checkpoint must reopen exactly the pool the engine had, not resurrect
  // views relief destroyed.
  for (const bool demotion : {true, false}) {
    SCOPED_TRACE(demotion ? "demotion on" : "demotion off");
    ScratchDir scratch(demotion ? "tiering_relief_on" : "tiering_relief_off");
    FaultInjectingVmIo vm_io;
    AdaptiveConfig config = TieringConfig();
    config.materialize_after_hits = 1;  // each routed hit maps
    config.max_cold_views = 1;
    config.lifecycle.enable_demotion = demotion;
    config.vm_io = &vm_io;
    constexpr Value kWidth = 2'000'000;
    std::vector<RangeQuery> queries;
    for (const Value lo : {10'000'000, 40'000'000, 70'000'000, 85'000'000}) {
      queries.push_back(RangeQuery{lo, lo + kWidth});
    }
    std::vector<std::tuple<Value, Value, bool>> before;
    {
      auto adaptive = MakeDurable(scratch.path(), config);
      // The first three ranges become materialized views (creation, then a
      // routed hit), each written to a slot as it is created.
      for (size_t i = 0; i < 3; ++i) {
        Adaptive(adaptive.get(), queries[i]);
        Adaptive(adaptive.get(), queries[i]);
      }
      ASSERT_EQ(adaptive->view_index().num_partial_views(), 3u);
      ASSERT_TRUE(adaptive->Checkpoint().ok());
      EXPECT_EQ(adaptive->DemoteColdestViews(1), demotion ? 1u : 0u);
      // Mappings now fail for good. The fourth range adapts (a lazy
      // candidate maps nothing), its first routed hit fails to map and
      // raises the pressure flag, and the next query runs relief.
      VmFaultPlan plan;
      plan.op_index = 1;
      plan.sticky = true;
      plan.target = VmOp::kMmap;
      vm_io.Arm(plan);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(Adaptive(adaptive.get(), queries[3]),
                  Oracle(adaptive.get(), queries[3]));
      }
      const ColumnHealth health = adaptive->Health();
      EXPECT_GT(demotion ? health.views_demoted : health.emergency_evictions,
                1u);
      before = PoolShape(*adaptive);
      // No checkpoint: dropping the table here is the kill.
    }
    config.vm_io = nullptr;
    auto reopen_r = OpenColumn(scratch.path(), config);
    ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
    auto adaptive = std::move(reopen_r).ValueOrDie();
    EXPECT_EQ(PoolShape(*adaptive), before);
    for (const RangeQuery& q : queries) {
      EXPECT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized lifecycle property test

TEST(TieringLifecycleTest, SeededInterleavingsMatchSerialOracle) {
  // Seeded interleavings of query / update / flush / demote / checkpoint /
  // reopen. Invariant after every query: the adaptive answer is
  // bit-identical to the full-scan serial oracle over the same base column
  // — no interleaving of tier transitions may corrupt a result.
  for (const uint64_t seed : {11ull, 29ull, 47ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScratchDir scratch("tiering_rand");
    const AdaptiveConfig config = TieringConfig();
    auto adaptive = MakeDurable(scratch.path(), config);
    std::mt19937_64 rng(seed);
    const auto queries = TestQueries(32, 1000 + seed);
    const uint64_t num_rows = adaptive->column().num_rows();
    size_t qi = 0;

    for (int step = 0; step < 150; ++step) {
      switch (rng() % 10) {
        case 0: case 1: case 2: case 3: {  // query + oracle check
          const RangeQuery q = queries[qi++ % queries.size()];
          const QueryResult got = Adaptive(adaptive.get(), q);
          const QueryResult want = Oracle(adaptive.get(), q);
          ASSERT_EQ(got, want) << "step " << step;
          break;
        }
        case 4: case 5: {  // update: half leave the domain, half move inside
          const uint64_t row = rng() % num_rows;
          const Value value = (rng() % 2 == 0) ? kMaxValue + 1 + (rng() % 512)
                                               : rng() % kMaxValue;
          ASSERT_TRUE(adaptive->Update(row, value).ok());
          break;
        }
        case 6: {
          auto flushed = adaptive->FlushUpdates();
          ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
          break;
        }
        case 7:
          adaptive->DemoteColdestViews(1 + rng() % 2);
          break;
        case 8:
          ASSERT_TRUE(adaptive->Checkpoint().ok());
          break;
        case 9: {  // kill + reopen (journal replay covers unflushed updates)
          adaptive.reset();
          auto reopen_r = OpenColumn(scratch.path(), config);
          ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
          adaptive = std::move(reopen_r).ValueOrDie();
          break;
        }
      }
    }
    // Final sweep: every query agrees with the oracle.
    for (const RangeQuery& q : queries) {
      ASSERT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
    }
  }
}

// ---------------------------------------------------------------------------
// Demote-while-scan race (the CI TSAN job runs this suite)

TEST(TieringConcurrencyTest, DemoteWhileScanStaysExact) {
  ScratchDir scratch("tiering_race");
  AdaptiveConfig config = TieringConfig();
  config.max_views = 8;
  auto adaptive = MakeDurable(scratch.path(), config);
  const auto queries = TestQueries(8, 97);
  std::vector<QueryResult> expected;
  for (const RangeQuery& q : queries) {
    Adaptive(adaptive.get(), q);  // build the pool
    expected.push_back(Oracle(adaptive.get(), q));
  }

  // Readers hammer the routed path (materialize + promote) while the main
  // thread keeps demoting the pool out from under them. The epoch scheme
  // must keep every answer exact; TSAN checks the memory orderings.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      std::mt19937_64 rng(900 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t i = rng() % queries.size();
        auto exec = adaptive->Execute(queries[i]);
        if (!exec.ok() || exec->match_count != expected[i].match_count ||
            exec->sum != expected[i].sum) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (int round = 0; round < 40; ++round) {
    adaptive->DemoteColdestViews(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(adaptive->Health().views_demoted, 0u);
  EXPECT_GT(adaptive->Health().views_promoted, 0u);
  // The tier churn must persist cleanly afterwards.
  ASSERT_TRUE(adaptive->Checkpoint().ok());
}

}  // namespace
}  // namespace vmsv
