// Arena-release suite (ARCHITECTURE.md "Arena release"): a pool view is
// in one of two states, with an arena or without one, and in-memory and
// durable pools behave the same. Covered here: a released view stays
// routable and maps again only at its threshold hit; a slot entry an
// older writer flagged as demoted reopens as an ordinary view; release →
// reopen → map is bit-identical to a column that never released; a
// release writes no slot, so a kill after it, after a flush that moved a
// page into an arena-less view, or after pressure relief reopens the pool
// the engine had; seeded interleavings of update/flush/release/checkpoint/
// reopen against the full-scan serial oracle; and the release-while-scan
// race (the CI TSAN job runs this binary).

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "scoped_temp_dir.h"
#include "rewiring/vm_io.h"
#include "storage/journal.h"
#include "storage/manifest.h"
#include "storage/storage_io.h"
#include "util/env.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"

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

/// Small budget so organic evictions trigger; threshold 1, so every routed
/// hit maps and a release has arenas to release.
AdaptiveConfig TieringConfig() {
  AdaptiveConfig config;
  config.max_views = 4;
  config.materialize_after_hits = 1;
  config.lifecycle.eviction_margin = 0.05;
  return config;
}

/// Owns the facade table while exposing the underlying engine, so the
/// white-box assertions read like they always have.
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

/// The same column in memory (`dir` empty) or durable under `dir`.
OwnedColumn MakeTestColumn(const std::string& dir,
                           const AdaptiveConfig& config) {
  if (!dir.empty()) return MakeDurable(dir, config);
  auto column_r = MakeColumn(SineSpec(), TestPages() * kValuesPerPage);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  auto table_r =
      Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  EXPECT_TRUE(table_r.ok()) << table_r.status().ToString();
  return OwnedColumn{std::move(table_r).ValueOrDie()};
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

/// The serial oracle: the base column is the ground truth no pool state can
/// corrupt, so a full scan is always bit-exact.
QueryResult Oracle(const AdaptiveColumn* adaptive, const RangeQuery& q) {
  auto exec = adaptive->ExecuteFullScan(q);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  return QueryResult{exec->match_count, exec->sum};
}

/// Runs every query twice: the miss builds a view, the repeat maps it.
void BuildAndMap(AdaptiveColumn* adaptive,
                 const std::vector<RangeQuery>& queries) {
  for (const RangeQuery& q : queries) {
    Adaptive(adaptive, q);
    Adaptive(adaptive, q);
  }
}

size_t MappedCount(const AdaptiveColumn& adaptive) {
  size_t mapped = 0;
  for (const auto& view : adaptive.view_index().views()) {
    if (view->is_materialized()) ++mapped;
  }
  return mapped;
}

/// The pool as (lo, hi), sorted — what a reopen must reproduce.
std::vector<std::pair<Value, Value>> PoolShape(const AdaptiveColumn& adaptive) {
  std::vector<std::pair<Value, Value>> shape;
  for (const auto& view : adaptive.view_index().views()) {
    shape.emplace_back(view->lo(), view->hi());
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

/// First view without an arena missing at least one column page (so an
/// update can deterministically GROW its membership), or nullptr.
const VirtualView* FindArenalessViewWithAbsentPage(
    const AdaptiveColumn& adaptive, uint64_t* absent_page) {
  for (const auto& view : adaptive.view_index().views()) {
    if (view->is_materialized()) continue;
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

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// ---------------------------------------------------------------------------
// Manifest: a slot entry flagged demoted by an older writer

TEST(ManifestTierTest, DemotedEntryReopensAsOrdinaryView) {
  // Writers before the tier went set flags bit 0 on a demoted view. Such a
  // directory must reopen that entry as an ordinary view without an arena:
  // it answers exactly and maps at its threshold hit.
  ScratchDir scratch("tiering_compat");
  AdaptiveConfig config = TieringConfig();
  config.materialize_after_hits = 3;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
  }
  const RangeQuery demoted{20'000'000, 30'000'000};
  const RangeQuery plain{60'000'000, 70'000'000};
  // The v4 slot record, by hand: magic | seq | count | per view lo | hi |
  // creation cost | flags | crc32.
  std::string slot("VMSVPOOL", 8);
  PutU64(&slot, 1'000);
  PutU64(&slot, 2);
  const std::pair<RangeQuery, uint64_t> entries[] = {{demoted, 1}, {plain, 0}};
  for (const auto& [range, flags] : entries) {
    PutU64(&slot, range.lo);
    PutU64(&slot, range.hi);
    PutU64(&slot, 10);
    PutU64(&slot, flags);
  }
  const uint32_t crc = Crc32(slot.data(), slot.size());
  slot.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  {
    std::ofstream out(ManifestSlotPath(scratch.path(), 0),
                      std::ios::binary | std::ios::trunc);
    out.write(slot.data(), static_cast<std::streamsize>(slot.size()));
  }

  auto reopen_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
  auto adaptive = std::move(reopen_r).ValueOrDie();
  EXPECT_EQ(PoolShape(*adaptive),
            (std::vector<std::pair<Value, Value>>{{demoted.lo, demoted.hi},
                                                  {plain.lo, plain.hi}}));
  EXPECT_EQ(adaptive->durability_stats().views_restored, 2u);
  const VirtualView* view =
      adaptive->view_index().FindSmallestCovering(demoted);
  ASSERT_NE(view, nullptr);
  for (int hit = 1; hit <= 3; ++hit) {
    EXPECT_FALSE(view->is_materialized()) << "before hit " << hit;
    EXPECT_EQ(Adaptive(adaptive.get(), demoted),
              Oracle(adaptive.get(), demoted));
  }
  EXPECT_TRUE(view->is_materialized());
  EXPECT_EQ(adaptive->Health().views_promoted, 1u);

  // The encoder writes 0 in the flags word.
  const std::string encoded = EncodeManifestPool(1, {{0, 50, 10}});
  uint64_t flags = ~uint64_t{0};
  std::memcpy(&flags, encoded.data() + 8 + 2 * 8 + 3 * 8, sizeof(flags));
  EXPECT_EQ(flags, 0u);
}

// ---------------------------------------------------------------------------
// Engine lifecycle

TEST(TieringTest, ReleaseKeepsViewRoutableAndMapsOnHit) {
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "in memory");
    ScratchDir scratch("tiering");
    auto adaptive = MakeTestColumn(durable ? scratch.path() : std::string(),
                                   TieringConfig());
    const auto queries = TestQueries(4, 97);
    std::vector<QueryResult> expected;
    for (const RangeQuery& q : queries) {
      expected.push_back(Oracle(adaptive.get(), q));
    }
    BuildAndMap(adaptive.get(), queries);
    const size_t pool = adaptive->view_index().num_partial_views();
    const size_t mapped = MappedCount(*adaptive);
    ASSERT_GT(mapped, 0u);

    EXPECT_EQ(adaptive->ReleaseColdestArenas(pool), mapped);
    EXPECT_EQ(MappedCount(*adaptive), 0u);
    EXPECT_EQ(adaptive->Health().views_demoted, mapped);
    EXPECT_EQ(adaptive->view_index().num_partial_views(), pool);

    // A routed query maps the view again — same answer, and the pool keeps
    // its members.
    const uint64_t mapped_before = adaptive->Health().views_promoted;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(Adaptive(adaptive.get(), queries[i]), expected[i]);
    }
    EXPECT_GT(adaptive->Health().views_promoted, mapped_before);
    EXPECT_GT(MappedCount(*adaptive), 0u);
    EXPECT_EQ(adaptive->view_index().num_partial_views(), pool);
  }
}

TEST(TieringTest, ReleasedViewMapsAgainOnlyAtTheThreshold) {
  // A view that loses its arena starts counting again: it answers over
  // base until its hits since the release reach the threshold, and the
  // hit that gets there maps it.
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "in memory");
    ScratchDir scratch("tiering_threshold");
    AdaptiveConfig config = TieringConfig();
    config.materialize_after_hits = 3;
    auto adaptive =
        MakeTestColumn(durable ? scratch.path() : std::string(), config);
    const RangeQuery q{20'000'000, 30'000'000};
    const QueryResult expected = Oracle(adaptive.get(), q);
    Adaptive(adaptive.get(), q);  // the miss: a lazy candidate
    const VirtualView* view = adaptive->view_index().views().front().get();
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(round == 0 ? "created" : "released");
      for (int hit = 1; hit <= 3; ++hit) {
        EXPECT_FALSE(view->is_materialized()) << "before hit " << hit;
        EXPECT_EQ(Adaptive(adaptive.get(), q), expected);
      }
      EXPECT_TRUE(view->is_materialized());
      if (round == 0) {
        ASSERT_EQ(adaptive->ReleaseColdestArenas(1), 1u);
      }
    }
    EXPECT_EQ(adaptive->Health().views_demoted, 1u);
    EXPECT_EQ(adaptive->Health().views_promoted, 2u);
  }
}

TEST(TieringTest, ReleaseReopenMapBitIdenticalToNeverReleased) {
  // A column that released its arenas, checkpointed, restarted, and mapped
  // its views again answers every query bit-identically to a column that
  // never released anything, and reopens the same pool.
  ScratchDir released_dir("tiering_a");
  ScratchDir control_dir("tiering_b");
  const auto queries = TestQueries(6, 131);
  const AdaptiveConfig config = TieringConfig();

  const auto run = [&](const std::string& dir, bool release,
                       std::vector<QueryResult>* results,
                       std::vector<std::pair<Value, Value>>* shape) {
    {
      auto adaptive = MakeDurable(dir, config);
      BuildAndMap(adaptive.get(), queries);
      if (release) {
        ASSERT_GT(adaptive->ReleaseColdestArenas(
                      adaptive->view_index().num_partial_views()),
                  0u);
      }
      ASSERT_TRUE(adaptive->Checkpoint().ok());
    }
    auto reopen_r = OpenColumn(dir, config);
    ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
    auto adaptive = std::move(reopen_r).ValueOrDie();
    *shape = PoolShape(*adaptive);
    for (const RangeQuery& q : queries) {
      results->push_back(Adaptive(adaptive.get(), q));
    }
    EXPECT_GT(adaptive->Health().views_promoted, 0u);
  };
  std::vector<QueryResult> released;
  std::vector<QueryResult> control;
  std::vector<std::pair<Value, Value>> released_shape;
  std::vector<std::pair<Value, Value>> control_shape;
  run(released_dir.path(), /*release=*/true, &released, &released_shape);
  run(control_dir.path(), /*release=*/false, &control, &control_shape);
  EXPECT_EQ(released, control);
  EXPECT_EQ(released_shape, control_shape);
}

TEST(TieringTest, ReleaseWritesNoSlotAndSurvivesKill) {
  // Ranges and membership do not change, so a release writes no slot and
  // leaves the pool clean; a kill right after it reopens the same pool.
  ScratchDir scratch("tiering_kill");
  const auto queries = TestQueries(4, 53);
  std::vector<std::pair<Value, Value>> shape;
  {
    auto adaptive = MakeDurable(scratch.path(), TieringConfig());
    BuildAndMap(adaptive.get(), queries);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    const DurabilityStats before = adaptive->durability_stats();
    ASSERT_GT(adaptive->ReleaseColdestArenas(2), 0u);
    const DurabilityStats after = adaptive->durability_stats();
    EXPECT_EQ(after.manifest_writes, before.manifest_writes);
    EXPECT_FALSE(after.manifest_dirty);
    shape = PoolShape(*adaptive);
    // No checkpoint: the object drops here, simulating a kill (there is
    // deliberately no destructor checkpoint).
  }
  auto reopen_r = OpenColumn(scratch.path(), TieringConfig());
  ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
  auto adaptive = std::move(reopen_r).ValueOrDie();
  EXPECT_EQ(PoolShape(*adaptive), shape);
  for (const RangeQuery& q : queries) {
    EXPECT_EQ(Adaptive(adaptive.get(), q), Oracle(adaptive.get(), q));
  }
}

TEST(TieringTest, ArenalessMembershipChangeSurvivesKillAfterFlush) {
  // A flush that moves a page into a view without an arena writes no slot,
  // exactly as for a mapped view; a kill right after it reopens the new
  // membership, derived from the data. The second round checkpoints
  // instead of flushing: the pool is clean, so it writes no slot either,
  // and a kill after it reopens the same membership. Either way no write
  // after create renames a file or fsyncs the directory, and the directory
  // holds exactly the column's durable files.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint" : "flush");
    ScratchDir scratch(checkpoint ? "tiering_arenaless_checkpoint"
                                  : "tiering_arenaless_flush");
    const auto queries = TestQueries(4, 97);
    RangeQuery probe{0, 0};
    uint64_t absent_page = 0;
    std::vector<std::pair<Value, Value>> shape;
    FaultInjectingIo io;  // no fault plan: counts real I/O
    FaultInjectingIo::Stats created;
    {
      AdaptiveConfig config = TieringConfig();
      config.storage.io = &io;
      auto adaptive = MakeDurable(scratch.path(), config);
      created = io.stats();
      BuildAndMap(adaptive.get(), queries);
      ASSERT_TRUE(adaptive->Checkpoint().ok());
      ASSERT_GT(adaptive->ReleaseColdestArenas(
                    adaptive->view_index().num_partial_views()), 0u);
      const VirtualView* view =
          FindArenalessViewWithAbsentPage(*adaptive, &absent_page);
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
      ASSERT_FALSE(view->is_materialized());
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

TEST(TieringTest, PressureReliefPoolSurvivesKill) {
  // Pressure relief runs outside any flush and only releases arenas: it
  // writes no slot, and a kill before the next checkpoint reopens exactly
  // the pool the engine had.
  ScratchDir scratch("tiering_relief");
  FaultInjectingVmIo vm_io;
  AdaptiveConfig config = TieringConfig();
  config.vm_io = &vm_io;
  constexpr Value kWidth = 2'000'000;
  std::vector<RangeQuery> queries;
  for (const Value lo : {10'000'000, 40'000'000, 70'000'000, 85'000'000}) {
    queries.push_back(RangeQuery{lo, lo + kWidth});
  }
  std::vector<std::pair<Value, Value>> before;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    // The first three ranges become mapped views (creation, then a routed
    // hit), each written to a slot as it is created; the fourth becomes a
    // view without an arena.
    BuildAndMap(adaptive.get(), {queries[0], queries[1], queries[2]});
    Adaptive(adaptive.get(), queries[3]);
    ASSERT_EQ(adaptive->view_index().num_partial_views(), 4u);
    ASSERT_EQ(MappedCount(*adaptive), 3u);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    const uint64_t writes = adaptive->durability_stats().manifest_writes;
    // Mappings now fail for good. The fourth view's routed hit fails to
    // map and raises the pressure flag, and each later query runs relief.
    VmFaultPlan plan;
    plan.op_index = 1;
    plan.sticky = true;
    plan.target = VmOp::kMmap;
    vm_io.Arm(plan);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(Adaptive(adaptive.get(), queries[3]),
                Oracle(adaptive.get(), queries[3]));
    }
    EXPECT_GT(adaptive->Health().views_demoted, 1u);
    EXPECT_EQ(adaptive->view_index().num_partial_views(), 4u);
    EXPECT_EQ(adaptive->durability_stats().manifest_writes, writes);
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

// ---------------------------------------------------------------------------
// Randomized lifecycle property test

TEST(TieringLifecycleTest, SeededInterleavingsMatchSerialOracle) {
  // Seeded interleavings of query / update / flush / release / checkpoint /
  // reopen. Invariant after every query: the adaptive answer is
  // bit-identical to the full-scan serial oracle over the same base column
  // — no interleaving of arena releases may corrupt a result.
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
          adaptive->ReleaseColdestArenas(1 + rng() % 2);
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
// Release-while-scan race (the CI TSAN job runs this suite)

TEST(TieringConcurrencyTest, ReleaseWhileScanStaysExact) {
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

  // Readers hammer the routed path (each hit maps a view without an arena)
  // while the main thread keeps releasing arenas out from under them. The
  // epoch scheme must keep every answer exact; TSAN checks the memory
  // orderings.
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
    adaptive->ReleaseColdestArenas(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(adaptive->Health().views_demoted, 0u);
  EXPECT_GT(adaptive->Health().views_promoted, 0u);
  // The churn must persist cleanly afterwards.
  ASSERT_TRUE(adaptive->Checkpoint().ok());
}

}  // namespace
}  // namespace vmsv
