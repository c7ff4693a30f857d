// Tiered cold-view lifecycle suite (ARCHITECTURE.md "Tiering model"): the
// set-tier manifest delta on demoted entries, the demote → reopen →
// promote acceptance round-trip (bit-identical to a never-demoted column),
// demoted membership surviving a flush or a checkpoint and a kill, a
// directory whose manifest still records page lists reopening exactly,
// seeded randomized interleavings of update/flush/demote/checkpoint/reopen
// against the full-scan serial oracle, pressure relief's pool edits
// surviving a kill, and the demote-while-scan race (the CI TSAN job runs
// this binary).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "scoped_temp_dir.h"
#include "exec/scan_kernels.h"
#include "rewiring/vm_io.h"
#include "storage/journal.h"  // Crc32
#include "storage/manifest.h"
#include "util/env.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

namespace fs = std::filesystem;

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

/// Every view's sorted page set, by durable id.
std::map<uint64_t, std::vector<uint64_t>> Members(
    const AdaptiveColumn& adaptive) {
  std::map<uint64_t, std::vector<uint64_t>> members;
  for (const auto& view : adaptive.view_index().views()) {
    std::vector<uint64_t> pages = view->physical_pages();
    std::sort(pages.begin(), pages.end());
    members[view->durable_id()] = std::move(pages);
  }
  return members;
}

/// The file names in `dir`, sorted.
std::vector<std::string> DirListing(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Pages of the column holding any value in q.
std::vector<uint64_t> PagesHolding(const PhysicalColumn& column,
                                   const RangeQuery& q) {
  std::vector<uint64_t> pages;
  for (uint64_t page = 0; page < column.num_pages(); ++page) {
    if (PageContainsAny(column.PageData(page), kValuesPerPage, q)) {
      pages.push_back(page);
    }
  }
  return pages;
}

/// Little-endian writer for hand-built manifest files.
struct Bytes {
  std::string buf;
  void U32(uint32_t v) { buf.append(reinterpret_cast<const char*>(&v), 4); }
  void U64(uint64_t v) { buf.append(reinterpret_cast<const char*>(&v), 8); }
  void Pages(const std::vector<uint64_t>& pages) {
    U64(pages.size());
    for (const uint64_t page : pages) U64(page);
  }
};

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Manifest: deltas on demoted entries

TEST(ManifestTierTest, SetTierDeltaFlipsFlagInPlace) {
  ViewManifest manifest;
  manifest.epoch = 2;
  manifest.views.push_back(ManifestView{7, 100, 200, 25, /*demoted=*/false});

  ManifestDelta demote;
  demote.op = ManifestDeltaOp::kSetViewTier;
  demote.epoch = 2;
  demote.view.id = 7;
  demote.view.demoted = true;

  EXPECT_EQ(ApplyManifestDeltas(&manifest, {demote}), 1u);
  ASSERT_EQ(manifest.views.size(), 1u);
  EXPECT_TRUE(manifest.views[0].demoted);
  EXPECT_EQ(manifest.views[0].hi, 200u);

  // Unknown id: no-op (the view may have been trimmed meanwhile).
  ManifestDelta stray = demote;
  stray.view.id = 99;
  EXPECT_EQ(ApplyManifestDeltas(&manifest, {stray}), 1u);
  EXPECT_EQ(manifest.views.size(), 1u);
}

TEST(ManifestTierTest, DemotedFlagSurvivesBaseSnapshotRoundTrip) {
  ScratchDir scratch("manifest_tier");
  ViewManifest manifest;
  manifest.num_rows = 1000;
  manifest.num_pages = 10;
  manifest.epoch = 1;
  manifest.next_view_id = 3;
  manifest.views.push_back(ManifestView{1, 0, 50, 10, /*demoted=*/true});
  manifest.views.push_back(ManifestView{2, 60, 90, 4, /*demoted=*/false});
  ASSERT_TRUE(WriteManifest(scratch.path(), manifest, /*sync=*/true).ok());
  auto read_r = ReadManifest(scratch.path());
  ASSERT_TRUE(read_r.ok()) << read_r.status().ToString();
  ASSERT_EQ(read_r->views.size(), 2u);
  EXPECT_TRUE(read_r->views[0].demoted);
  EXPECT_FALSE(read_r->views[1].demoted);
}

TEST(ManifestTierTest, ReadsVersion2ManifestAsAllHot) {
  // A store written before the tier flag existed (version 2: no per-view
  // flags word) must open with every view hot — not fail with a version
  // error. Hand-serialized v2 bytes, since the writer only emits v3 now.
  ScratchDir scratch("manifest_v2");
  std::string buf;
  buf.append("VMSVMAN1", 8);
  auto put_u32 = [&buf](uint32_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_u64 = [&buf](uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(2);     // version
  put_u32(0);     // reserved
  put_u64(1000);  // num_rows
  put_u64(10);    // num_pages
  put_u64(0);     // pool_generation
  put_u64(1);     // epoch
  put_u64(3);     // next_view_id
  put_u64(2);     // view count
  // v2 view record: id, lo, hi, creation_scanned_pages, page_count, pages —
  // no flags word.
  put_u64(1); put_u64(0); put_u64(50); put_u64(10); put_u64(2);
  put_u64(3); put_u64(4);
  put_u64(2); put_u64(60); put_u64(90); put_u64(4); put_u64(0);
  put_u32(Crc32(buf.data(), buf.size()));
  {
    std::ofstream out(ManifestPath(scratch.path()),
                      std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    ASSERT_TRUE(out.good());
  }
  auto read_r = ReadManifest(scratch.path());
  ASSERT_TRUE(read_r.ok()) << read_r.status().ToString();
  EXPECT_EQ(read_r->next_view_id, 3u);
  ASSERT_EQ(read_r->views.size(), 2u);
  EXPECT_FALSE(read_r->views[0].demoted);
  EXPECT_EQ(read_r->views[0].lo, 0u);
  EXPECT_EQ(read_r->views[0].hi, 50u);
  EXPECT_EQ(read_r->views[0].creation_scanned_pages, 10u);
  EXPECT_FALSE(read_r->views[1].demoted);
  EXPECT_EQ(read_r->views[1].id, 2u);
  EXPECT_EQ(read_r->views[1].lo, 60u);
  EXPECT_EQ(read_r->views[1].hi, 90u);
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
  // The set-tier delta alone (no base snapshot after the demote) must
  // reopen the view demoted, with the pages its manifest entry holds.
  ScratchDir scratch("tiering_kill");
  const auto queries = TestQueries(4, 53);
  size_t demoted = 0;
  {
    auto adaptive = MakeDurable(scratch.path(), TieringConfig());
    for (const RangeQuery& q : queries) Adaptive(adaptive.get(), q);
    ASSERT_TRUE(adaptive->Checkpoint().ok());  // base snapshot: all hot
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
  // A flush that moves a page into a demoted view appends nothing and
  // writes no snapshot, exactly as for a hot view; a kill right after it
  // reopens the new membership, derived from the data. The second round
  // checkpoints instead of flushing: the snapshot writes ranges only, and a
  // kill after it reopens the same membership.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint" : "flush");
    ScratchDir scratch(checkpoint ? "tiering_cold_checkpoint"
                                  : "tiering_cold_flush");
    const auto queries = TestQueries(4, 97);
    RangeQuery probe{0, 0};
    uint64_t absent_page = 0;
    std::vector<std::tuple<Value, Value, bool>> shape;
    {
      auto adaptive = MakeDurable(scratch.path(), TieringConfig());
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
      if (checkpoint) {
        EXPECT_EQ(after.manifest_writes, before.manifest_writes + 1);
      } else {
        EXPECT_EQ(after.manifest_writes, before.manifest_writes);
        EXPECT_EQ(after.manifest_delta_appends, before.manifest_delta_appends);
      }
      EXPECT_FALSE(after.manifest_stale);
      shape = PoolShape(*adaptive);
    }  // kill: nothing runs after the flush or checkpoint
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

TEST(TieringTest, DirectoryWithPageListsReopensExactly) {
  // Directories written while the manifest recorded membership hold a v3
  // MANIFEST whose entries carry page lists and a delta log that may hold
  // add-pages (op 5) and remove-pages (op 6) records. Such a directory must
  // open with every view's pages derived from its range and the data —
  // wrong lists and page records change nothing — and replay must move
  // past the page records to the set-range record behind them.
  ScratchDir scratch("tiering_layout");
  std::map<uint64_t, std::vector<uint64_t>> members;
  {
    auto adaptive = MakeDurable(scratch.path(), TieringConfig());
    for (const RangeQuery& q : TestQueries(6, 131)) Adaptive(adaptive.get(), q);
    ASSERT_GT(adaptive->DemoteColdestViews(2), 0u);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    members = Members(*adaptive);
  }  // kill
  EXPECT_EQ(DirListing(scratch.path()),
            (std::vector<std::string>{"MANIFEST", "MANIFEST.delta",
                                      "column.dat", "journal.wal"}));
  auto manifest_r = ReadManifest(scratch.path());
  ASSERT_TRUE(manifest_r.ok()) << manifest_r.status().ToString();
  const ViewManifest& manifest = *manifest_r;
  const std::vector<ManifestView>& views = manifest.views;
  ASSERT_GE(views.size(), 3u);
  /// The pages of view `i` does NOT hold.
  const auto absent = [&](size_t i) {
    std::vector<uint64_t> pages;
    const std::vector<uint64_t>& held = members[views[i].id];
    for (uint64_t page = 0; page < TestPages(); ++page) {
      if (!std::binary_search(held.begin(), held.end(), page)) {
        pages.push_back(page);
      }
    }
    return pages;
  };

  // MANIFEST: every entry lists its pages, except view 0, which lists
  // exactly the pages it does not hold.
  Bytes base;
  base.buf.append("VMSVMAN1", 8);
  base.U32(3);  // version
  base.U32(0);  // reserved
  base.U64(manifest.num_rows);
  base.U64(manifest.num_pages);
  base.U64(manifest.pool_generation);
  base.U64(manifest.epoch);
  base.U64(manifest.next_view_id);
  base.U64(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    base.U64(views[i].id);
    base.U64(views[i].lo);
    base.U64(views[i].hi);
    base.U64(views[i].creation_scanned_pages);
    base.U64(views[i].demoted ? 1 : 0);
    base.Pages(i == 0 ? absent(0) : members[views[i].id]);
  }
  base.U32(Crc32(base.buf.data(), base.buf.size()));
  WriteFile(ManifestPath(scratch.path()), base.buf);

  // MANIFEST.delta: op 5 adds to view 1 every page it does not hold, op 6
  // removes every page of view 2, then a set-range widens the last view.
  const ManifestView& widened = views.back();
  const Value wider_hi = std::min<Value>(widened.hi + kMaxValue / 20, kMaxValue);
  ASSERT_GT(wider_hi, widened.hi);
  Bytes log;
  log.buf.append("VMSVMDL1", 8);
  const auto record = [&](uint32_t op, const ManifestView& view, Value hi,
                          const std::vector<uint64_t>& pages) {
    const size_t start = log.buf.size();
    log.U32(op);
    log.U32(0);  // reserved
    log.U64(manifest.epoch);
    log.U64(view.id);
    log.U64(op == 4 ? view.lo : 0);
    log.U64(op == 4 ? hi : 0);
    log.U64(0);  // creation_scanned_pages
    log.U64(0);  // flags
    log.Pages(pages);
    log.U32(Crc32(log.buf.data() + start, log.buf.size() - start));
    log.U32(0x4C44u);
  };
  record(5, views[1], 0, absent(1));
  record(6, views[2], 0, members[views[2].id]);
  record(4, widened, wider_hi, {});
  WriteFile(ManifestDeltaPath(scratch.path()), log.buf);

  {
    auto reopen_r = OpenColumn(scratch.path(), TieringConfig());
    ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
    auto adaptive = std::move(reopen_r).ValueOrDie();
    const DurabilityStats stats = adaptive->durability_stats();
    EXPECT_FALSE(stats.manifest_delta_tail_truncated);
    EXPECT_EQ(stats.manifest_deltas_replayed, 3u);
    EXPECT_FALSE(stats.manifest_stale);
    ASSERT_EQ(adaptive->view_index().num_partial_views(), views.size());
    for (const auto& view : adaptive->view_index().views()) {
      EXPECT_EQ(view->physical_pages(),
                PagesHolding(adaptive->column(), view->value_range()))
          << "view " << view->durable_id();
      if (view->durable_id() == widened.id) {
        EXPECT_EQ(view->hi(), wider_hi) << "replay stopped before set-range";
      } else {
        EXPECT_EQ(Members(*adaptive)[view->durable_id()],
                  members[view->durable_id()]);
      }
    }
    // The next snapshot records ranges only.
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    EXPECT_EQ(fs::file_size(ManifestPath(scratch.path())),
              68 + 48 * views.size());
    members = Members(*adaptive);
    // Queries strictly inside each view route to a view and answer exactly.
    for (const auto& view : adaptive->view_index().views()) {
      if (view->hi() - view->lo() < 2) continue;
      const RangeQuery inside{view->lo() + 1, view->hi() - 1};
      EXPECT_EQ(Adaptive(adaptive.get(), inside),
                Oracle(adaptive.get(), inside));
    }
  }
  auto reopen_r = OpenColumn(scratch.path(), TieringConfig());
  ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
  auto adaptive = std::move(reopen_r).ValueOrDie();
  EXPECT_EQ(Members(*adaptive), members);
  EXPECT_FALSE(adaptive->durability_stats().manifest_stale);
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
  // demotion is off — must reach the delta log: a kill before the next
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
      // routed hit), and the checkpoint snapshots them.
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
