// sharded_table_test — the Table contract behind vmsv::Db:
//
//   * PartitionSpec arithmetic (page partition is exact, tail page last);
//   * BIT-IDENTITY: sharded scans, batches, and updates produce exactly the
//     match_count/sum an unsharded oracle produces, for every shard count,
//     under seeded query/update/flush interleavings;
//   * every shard answers every query: each shard adapts exactly like an
//     unsharded column over its own rows, and a value written anywhere —
//     through Update, or through a shard's mutable_column() followed by
//     Checkpoint — is found;
//   * durable tables are one plain column: a sharded CreateDurable or Open
//     is refused before the filesystem is touched;
//   * the batch cover-routing fix: ExecuteBatch consults the same
//     cost-based multi-view cover path as Execute (regression pins the
//     page accounting);
//   * concurrent readers + writer on a sharded table (TSAN coverage).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan_kernels.h"
#include "scoped_temp_dir.h"
#include "vmsv.h"

namespace vmsv {
namespace {

constexpr uint64_t kPages = 16;
constexpr uint64_t kRows = kPages * kValuesPerPage;

/// Deterministic, page-spanning value mix (full 64-bit multiply keeps the
/// low bits varied); modulo keeps the domain queryable.
Value MixValue(uint64_t row) { return (row * 2654435761ull) % 1'000'000; }

/// Identity data: value == row. Gives the range shards DISJOINT value
/// sets, so most queries match on some shards and not on others.
Value IdentityValue(uint64_t row) { return row; }

AdaptiveConfig MultiViewConfig() {
  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.max_views = 4;
  return config;
}

DbOptions ShardedOptions(uint32_t shards) {
  DbOptions options;
  options.column = MultiViewConfig();
  options.shards = shards;
  return options;
}

void ExpectSameAnswer(const QueryExecution& got, const QueryExecution& want,
                      const char* what) {
  EXPECT_EQ(got.match_count, want.match_count) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
}

// ---------------------------------------------------------------------------
// PartitionSpec arithmetic

void CheckPartitionArithmetic(uint32_t shards, uint64_t num_rows) {
  PartitionSpec spec;
  spec.shards = shards;
  spec.num_rows = num_rows;

  const uint64_t total_pages = spec.TotalPages();
  EXPECT_EQ(total_pages, (num_rows + kValuesPerPage - 1) / kValuesPerPage);

  // The shards' pages are an exact partition: every global page is owned by
  // the shard whose GlobalPage() enumeration produces it, exactly once.
  uint64_t pages_seen = 0;
  uint64_t rows_seen = 0;
  std::vector<int> owner(total_pages, -1);
  for (uint32_t s = 0; s < shards; ++s) {
    const uint64_t shard_pages = spec.ShardPages(s);
    pages_seen += shard_pages;
    rows_seen += spec.ShardRows(s);
    uint64_t prev = 0;
    for (uint64_t lp = 0; lp < shard_pages; ++lp) {
      const uint64_t gp = spec.GlobalPage(s, lp);
      ASSERT_LT(gp, total_pages);
      EXPECT_EQ(owner[gp], -1) << "page owned twice";
      owner[gp] = static_cast<int>(s);
      EXPECT_EQ(spec.ShardOfPage(gp), s);
      if (lp > 0) {
        EXPECT_GT(gp, prev) << "GlobalPage must ascend in lp";
      }
      prev = gp;
    }
  }
  EXPECT_EQ(pages_seen, total_pages);
  EXPECT_EQ(rows_seen, num_rows);

  // The global tail page must be its owner's LAST local page — that is what
  // keeps the zero-filled tail in the same page-wise position the oracle
  // scans it in.
  const uint64_t tail = total_pages - 1;
  const uint32_t tail_owner = spec.ShardOfPage(tail);
  EXPECT_EQ(spec.GlobalPage(tail_owner, spec.ShardPages(tail_owner) - 1),
            tail);

  // Row routing agrees with page routing, and LocalRow round-trips.
  for (uint64_t row = 0; row < num_rows;
       row += kValuesPerPage / 3 + 1) {
    const uint32_t s = spec.ShardOfRow(row);
    EXPECT_EQ(s, spec.ShardOfPage(row / kValuesPerPage));
    const uint64_t local = spec.LocalRow(row);
    ASSERT_LT(local, spec.ShardRows(s));
    const uint64_t back = spec.GlobalPage(s, local / kValuesPerPage) *
                              kValuesPerPage +
                          local % kValuesPerPage;
    EXPECT_EQ(back, row);
  }
}

TEST(PartitionSpec, RangeArithmetic) {
  CheckPartitionArithmetic(4, 10 * kValuesPerPage - 100);
  CheckPartitionArithmetic(3, 7 * kValuesPerPage);
  CheckPartitionArithmetic(1, kRows);
}

// ---------------------------------------------------------------------------
// Bit-identity against an unsharded oracle

/// Drives the same seeded query/update/flush interleaving into `table` and
/// a 1-shard oracle and requires every answer to be bit-identical.
void RunOracleInterleaving(uint32_t shards, uint64_t seed) {
  auto oracle_r = Db::Create(kRows, MixValue, DbOptions{MultiViewConfig()});
  ASSERT_TRUE(oracle_r.ok()) << oracle_r.status().message();
  auto sharded_r = Db::Create(kRows, MixValue, ShardedOptions(shards));
  ASSERT_TRUE(sharded_r.ok()) << sharded_r.status().message();
  auto oracle = *std::move(oracle_r);
  auto sharded = *std::move(sharded_r);
  ASSERT_EQ(sharded->num_shards(), shards);
  ASSERT_EQ(sharded->num_rows(), oracle->num_rows());
  ASSERT_EQ(sharded->num_pages(), oracle->num_pages());

  std::mt19937_64 rng(seed);
  auto random_query = [&rng]() {
    Value a = rng() % 1'000'000;
    Value b = rng() % 1'000'000;
    if (a > b) std::swap(a, b);
    return RangeQuery{a, b};
  };

  for (int op = 0; op < 150; ++op) {
    const uint64_t kind_roll = rng() % 10;
    if (kind_roll < 6) {
      const RangeQuery q = random_query();
      auto want = oracle->Execute(q);
      auto got = sharded->Execute(q);
      ASSERT_TRUE(want.ok()) << want.status().message();
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectSameAnswer(*got, *want, "Execute");
    } else if (kind_roll < 9) {
      const uint64_t row = rng() % kRows;
      const Value v = rng() % 2'000'000;  // may exceed the initial domain
      ASSERT_TRUE(oracle->Update(row, v).ok());
      ASSERT_TRUE(sharded->Update(row, v).ok());
    } else {
      ASSERT_TRUE(oracle->FlushUpdates().ok());
      ASSERT_TRUE(sharded->FlushUpdates().ok());
    }
    if (op % 50 == 49) {
      const RangeQuery everything{0, ~Value{0}};
      auto want = oracle->ExecuteFullScan(everything);
      auto got = sharded->ExecuteFullScan(everything);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameAnswer(*got, *want, "ExecuteFullScan");
    }
  }

  // The batch path merges per-shard batches per query — same contract.
  // Both batches run the shared pass, so each answer is also checked
  // against a full scan, which does not.
  std::vector<RangeQuery> batch;
  for (int i = 0; i < 16; ++i) batch.push_back(random_query());
  auto want_batch = oracle->ExecuteBatch(batch);
  auto got_batch = sharded->ExecuteBatch(batch);
  ASSERT_TRUE(want_batch.ok()) << want_batch.status().message();
  ASSERT_TRUE(got_batch.ok()) << got_batch.status().message();
  ASSERT_EQ(got_batch->queries.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameAnswer(got_batch->queries[i], want_batch->queries[i],
                     "ExecuteBatch");
    auto full = oracle->ExecuteFullScan(batch[i]);
    ASSERT_TRUE(full.ok()) << full.status().message();
    ExpectSameAnswer(got_batch->queries[i], *full, "ExecuteBatch vs full scan");
  }
}

TEST(ShardedTable, RangeBitIdentity) {
  RunOracleInterleaving(2, 17);
  RunOracleInterleaving(4, 18);
  RunOracleInterleaving(8, 19);
}

TEST(ShardedTable, TailPageBitIdentity) {
  // A partial tail page is the historically fragile case: the sharded scan
  // must see the same zero-filled tail the oracle does.
  const uint64_t rows = 5 * kValuesPerPage - 77;
  {
    auto oracle = *Db::Create(rows, MixValue, {});
    auto sharded = *Db::Create(rows, MixValue, ShardedOptions(3));
    // Zero is IN-domain for the tail page — both sides must count the
    // zero-filled slack identically.
    const std::vector<RangeQuery> tail_queries = {
        RangeQuery{0, 0}, RangeQuery{0, ~Value{0}}, RangeQuery{1, 999}};
    for (const RangeQuery& q : tail_queries) {
      auto want = oracle->Execute(q);
      auto got = sharded->Execute(q);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameAnswer(*got, *want, "tail query");
    }
    // As one batch, the tail page meets the shared pass's zone test.
    auto batch = sharded->ExecuteBatch(tail_queries);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    ASSERT_EQ(batch->queries.size(), tail_queries.size());
    for (size_t i = 0; i < tail_queries.size(); ++i) {
      auto full = oracle->ExecuteFullScan(tail_queries[i]);
      ASSERT_TRUE(full.ok());
      ExpectSameAnswer(batch->queries[i], *full, "tail batch vs full scan");
    }
  }

  // Zone-filtered scans on 4 shards. Identity data gives each page a narrow
  // zone, so view hits, candidate builds and base passes skip pages; the
  // last shard's tail page must keep its zeros inside its zone.
  auto oracle = *Db::Create(rows, IdentityValue, {});
  auto sharded = *Db::Create(rows, IdentityValue, ShardedOptions(4));
  ASSERT_EQ(sharded->num_shards(), 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    const PhysicalColumn& column = sharded->shard(s)->column();
    for (uint64_t page = 0; page < column.num_pages(); ++page) {
      const PageZone exact =
          ComputePageZone(column.PageData(page), kValuesPerPage);
      EXPECT_EQ(column.zones()[page].min, exact.min) << s << ":" << page;
      EXPECT_EQ(column.zones()[page].max, exact.max) << s << ":" << page;
    }
  }
  ASSERT_TRUE(sharded->Execute({0, rows - 1}).ok());  // one view per shard
  const std::vector<RangeQuery> inner = {
      {0, 0}, {1, 100}, {600, 700}, {1000, 1100}, {2100, 2200}, {2400, 2482},
      {2400, 5000}};  // the last one leaves the views: a full scan
  for (const RangeQuery& q : inner) {
    auto got = sharded->Execute(q);
    auto want = oracle->ExecuteFullScan(q);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswer(*got, *want, "inner query vs full scan");
  }
  auto batch = sharded->ExecuteBatch(inner);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  for (size_t i = 0; i < inner.size(); ++i) {
    auto want = oracle->ExecuteFullScan(inner[i]);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(batch->queries[i], *want, "inner batch vs full scan");
  }
  // {600, 700} is a view hit on shard 0 that skips its first page.
  EXPECT_FALSE(sharded->shard(0)->column().zones()[0].Intersects({600, 700}));
  EXPECT_TRUE(sharded->shard(0)->view_index().views().front()->ContainsPage(0));
}

// Fails while a 1-shard ExecuteFullScan accepted lo > hi, which the 4-shard
// table refused.
TEST(ShardedTable, InvalidArgumentsMatchContract) {
  // Zero shards is refused, as on every other Db entry point.
  EXPECT_EQ(Db::Create(kRows, MixValue, ShardedOptions(0)).status().code(),
            StatusCode::kInvalidArgument);
  for (const uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    auto table = *Db::Create(kRows, MixValue, ShardedOptions(shards));
    ASSERT_EQ(table->num_shards(), shards);
    EXPECT_EQ(table->Execute({10, 5}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(table->ExecuteBatch({{0, 1}, {10, 5}}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(table->ExecuteFullScan({10, 5}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(table->Update(kRows, 1).code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardedTable, ShardCountClampsToPages) {
  // Every shard owns at least one page: 2 pages cap 8 requested shards at 2.
  auto table = *Db::Create(2 * kValuesPerPage, MixValue, ShardedOptions(8));
  EXPECT_EQ(table->num_shards(), 2u);
  auto exec = table->Execute({0, ~Value{0}});
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->match_count, 2 * kValuesPerPage);
}

// ---------------------------------------------------------------------------
// Every shard answers every query

TEST(ShardedTable, BeyondTheDomainAnswersZeroUntilWritten) {
  const uint64_t rows = 8 * kValuesPerPage;
  auto table_r = Db::Create(rows, IdentityValue, ShardedOptions(4));
  ASSERT_TRUE(table_r.ok());
  auto table = *std::move(table_r);

  // Beyond the domain: no shard holds a value, and Execute answers 0.
  const RangeQuery beyond{rows + 1000, rows + 2000};
  auto miss = table->Execute(beyond);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->match_count, 0u);
  EXPECT_EQ(miss->sum, 0u);

  // A value written there is then found.
  ASSERT_TRUE(table->Update(0, rows + 1500).ok());
  auto hit = table->Execute(beyond);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->match_count, 1u);
  EXPECT_EQ(hit->sum, rows + 1500);
}

/// A pool as each view's (lo, hi, pages), in pool order.
std::vector<std::tuple<Value, Value, uint64_t>> PoolOf(
    const AdaptiveColumn& column) {
  std::vector<std::tuple<Value, Value, uint64_t>> pool;
  for (const auto& view : column.view_index().views()) {
    pool.emplace_back(view->lo(), view->hi(), view->num_pages());
  }
  return pool;
}

// Fails while per-shard value zones pruned the fan-out: a shard holding no
// value of a query never ran it, so it counted fewer queries and held no
// empty view for the range.
TEST(ShardedTable, EachShardAdaptsLikeAColumnOverItsRows) {
  const uint64_t rows = 8 * kValuesPerPage;
  auto table = *Db::Create(rows, IdentityValue, ShardedOptions(4));
  ASSERT_EQ(table->num_shards(), 4u);
  // Shard s holds the values [1024 s, 1024 (s + 1)).
  const std::vector<RangeQuery> sequence = {
      {0, 100},       {1100, 1200}, {1000, 3000}, {rows + 10, rows + 20},
      {0, 100},       {3500, 4000}, {2000, 2100}, {1100, 1200},
      {0, ~Value{0}},
  };
  for (const RangeQuery& q : sequence) {
    auto got = table->Execute(q);
    auto want = table->ExecuteFullScan(q);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswer(*got, *want, "sharded query");
  }

  const PartitionSpec spec{4, rows};
  for (uint32_t s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    const uint64_t first = spec.GlobalPage(s, 0) * kValuesPerPage;
    auto alone = *Db::Create(
        spec.ShardRows(s), [first](uint64_t row) { return first + row; },
        DbOptions{MultiViewConfig()});
    for (const RangeQuery& q : sequence) ASSERT_TRUE(alone->Execute(q).ok());

    const CumulativeStats got = table->shard(s)->metrics();
    const CumulativeStats want = alone->Metrics();
    EXPECT_EQ(got.queries, want.queries);
    EXPECT_EQ(got.scanned_pages, want.scanned_pages);
    EXPECT_EQ(got.fullscan_equivalent_pages, want.fullscan_equivalent_pages);
    EXPECT_EQ(got.views_created, want.views_created);
    EXPECT_EQ(got.views_discarded, want.views_discarded);
    EXPECT_EQ(got.views_replaced, want.views_replaced);
    EXPECT_EQ(got.views_evicted, want.views_evicted);
    EXPECT_EQ(got.candidates_dropped, want.candidates_dropped);
    EXPECT_EQ(PoolOf(*table->shard(s)), PoolOf(*alone->shard(0)));
  }
}

TEST(ShardedTable, ExecuteFullScanVisitsEveryShard) {
  // The non-adaptive baseline reads every base page of every shard: it is
  // the ground truth the adaptive path is checked against.
  const uint64_t rows = 4 * kValuesPerPage;
  auto table = *Db::Create(rows, IdentityValue, ShardedOptions(4));
  auto full = table->ExecuteFullScan({0, 50});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->match_count, 51u);
  EXPECT_EQ(full->stats.scanned_pages, table->num_pages());
}

// ---------------------------------------------------------------------------
// Health and metrics

TEST(ShardedTable, HealthAndMetricsAggregateAcrossShards) {
  auto table = *Db::Create(kRows, MixValue, ShardedOptions(4));
  ASSERT_TRUE(table->Execute({0, ~Value{0}}).ok());
  const TableHealth health = table->Health();
  EXPECT_EQ(health.shards.size(), 4u);
  uint64_t fallbacks = 0;
  for (const ColumnHealth& shard : health.shards) {
    fallbacks += shard.base_fallbacks;
  }
  EXPECT_EQ(health.total.base_fallbacks, fallbacks);
  const CumulativeStats metrics = table->Metrics();
  EXPECT_GE(metrics.queries, 1u);
  EXPECT_GT(metrics.scanned_pages, 0u);
}

// ---------------------------------------------------------------------------
// Durable tables are one plain column

TEST(ShardedTableDurable, UnshardedLayoutStaysPlain) {
  ScopedTempDir scratch("sharded_plain");
  const uint64_t rows = 2 * kValuesPerPage;
  {
    auto table = *Db::CreateDurable(scratch.path(), rows, {});
    ASSERT_EQ(table->num_shards(), 1u);
    ASSERT_TRUE(table->Update(3, 99).ok());
    ASSERT_TRUE(table->Checkpoint().ok());
  }
  // A durable table writes exactly a plain column's files, so old
  // directories and tools keep working.
  std::set<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"MANIFEST", "MANIFEST.0",
                                          "MANIFEST.1", "column.dat",
                                          "journal.wal"}));
  auto reopened = *Db::Open(scratch.path(), {});
  EXPECT_EQ(reopened->num_shards(), 1u);
  EXPECT_EQ(reopened->shard(0)->column().Get(3), 99u);
}

TEST(ShardedTableDurable, OpenMissingDirIsNotFound) {
  ScopedTempDir scratch("sharded_open_missing");
  EXPECT_EQ(Db::Open(scratch.path() + "/nope", {}).status().code(),
            StatusCode::kNotFound);
}

// Fails while a sharded CreateDurable built a descriptor and one directory
// per shard.
TEST(ShardedTableDurable, CreateDurableRefusesShards) {
  ScopedTempDir scratch("sharded_create_refused");
  const std::string dir = scratch.path() + "/table";
  EXPECT_EQ(Db::CreateDurable(dir, 4 * kValuesPerPage, ShardedOptions(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// Fails while Db::Open ignored options.shards.
TEST(ShardedTableDurable, OpenRefusesShards) {
  ScopedTempDir scratch("sharded_open_refused");
  ASSERT_TRUE(Db::CreateDurable(scratch.path(), 2 * kValuesPerPage, {}).ok());
  EXPECT_EQ(Db::Open(scratch.path(), ShardedOptions(2)).status().code(),
            StatusCode::kInvalidArgument);
  auto reopened = Db::Open(scratch.path(), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
}

// ---------------------------------------------------------------------------
// Batch cover routing (the ExecuteBatch routing-gap regression)

TEST(BatchCoverRouting, BatchUsesTheCostBasedCoverPath) {
  // Two disjoint views that jointly (but not individually) cover the batch
  // queries. Before the fix, ExecuteBatch only consulted single-view
  // routing and sent these queries to the base pass — a full-column scan;
  // now it consults Route's cost-based cover and scans only the
  // deduplicated cover pages.
  const uint64_t rows = 32 * kValuesPerPage;
  AdaptiveConfig config = MultiViewConfig();
  config.cost_based_routing = true;
  auto table = *Db::Create(rows, IdentityValue, DbOptions{config});

  auto warm_a = table->Execute({1000, 5000});
  ASSERT_TRUE(warm_a.ok());
  ASSERT_EQ(warm_a->stats.decision, CandidateDecision::kInserted);
  auto warm_b = table->Execute({5001, 9000});
  ASSERT_TRUE(warm_b.ok());
  ASSERT_EQ(warm_b->stats.decision, CandidateDecision::kInserted);

  const std::vector<RangeQuery> batch = {{2000, 8000}, {2500, 7500}};
  auto batch_r = table->ExecuteBatch(batch);
  ASSERT_TRUE(batch_r.ok()) << batch_r.status().message();
  const BatchExecution& out = *batch_r;

  // Both answered from the two-view cover, not the base column.
  EXPECT_EQ(out.view_answered, 2u);
  EXPECT_EQ(out.base_answered, 0u);
  for (const QueryExecution& exec : out.queries) {
    EXPECT_EQ(exec.stats.decision, CandidateDecision::kAnsweredFromView);
    EXPECT_EQ(exec.stats.considered_views, 2u);
  }

  // Page accounting pinned: with value==row, views [1000,5000] and
  // [5001,9000] together hold pages 1..17 — 17 unique pages, far below the
  // 32-page column the old base pass would have scanned. The shared cost
  // lands on the group leader; the follower rides free.
  EXPECT_EQ(out.shared_scanned_pages, 17u);
  EXPECT_LT(out.shared_scanned_pages, table->num_pages());
  EXPECT_EQ(out.queries[0].stats.scanned_pages, out.shared_scanned_pages);
  EXPECT_EQ(out.queries[1].stats.scanned_pages, 0u);
  EXPECT_EQ(out.individual_equivalent_pages, 2 * out.shared_scanned_pages);

  // And the answers are still exact.
  for (size_t i = 0; i < batch.size(); ++i) {
    auto want = table->ExecuteFullScan(batch[i]);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(out.queries[i], *want, "cover answer");
  }
}

// ---------------------------------------------------------------------------
// Writes made through a shard's mutable_column() are found: every query runs
// on every shard, and Checkpoint re-derives the page zones they loosened.

constexpr uint64_t kZoneRows = 64 * kValuesPerPage;

/// Sets every shard row to 1000 + its shard-local row through the shard's
/// mutable_column(), bypassing Update.
void WriteShardsThroughColumns(Table* table) {
  for (uint32_t s = 0; s < table->num_shards(); ++s) {
    PhysicalColumn* column = table->shard(s)->mutable_column();
    for (uint64_t row = 0; row < column->num_rows(); ++row) {
      column->Set(row, 1000 + row);
    }
  }
}

void ExpectWrittenRangeRoutes(Table* table, const char* what) {
  const RangeQuery q{1000, 2000};
  auto full = table->ExecuteFullScan(q);
  auto got = table->Execute(q);
  ASSERT_TRUE(full.ok() && got.ok());
  EXPECT_EQ(full->match_count, 2 * 1001u) << what;
  ExpectSameAnswer(*got, *full, what);
}

// Every value written lies outside the values the table was created with.
TEST(ShardedTable, CheckpointRoutesWritesThroughShardColumns) {
  auto table_r = Db::Create(
      kZoneRows, [](uint64_t) { return Value{0}; }, ShardedOptions(2));
  ASSERT_TRUE(table_r.ok()) << table_r.status().message();
  auto table = *std::move(table_r);
  WriteShardsThroughColumns(table.get());
  ASSERT_TRUE(table->Checkpoint().ok());
  ExpectWrittenRangeRoutes(table.get(), "in memory");
}

// Updates that race Checkpoint with values outside the created ones are all
// found afterwards.
TEST(ShardedTable, CheckpointFoldKeepsRacingUpdateWidenings) {
  auto table_r = Db::Create(kRows, [](uint64_t) { return Value{0}; },
                            ShardedOptions(2));
  ASSERT_TRUE(table_r.ok());
  auto table = *std::move(table_r);
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread checkpointer([&]() {
    while (!done.load()) {
      if (!table->Checkpoint().ok()) failed.store(true);
    }
  });
  std::vector<Value> written;
  std::mt19937_64 rng(17);
  for (int i = 0; i < 100; ++i) {
    const Value v = 1'000'000 + rng() % 1'000'000;
    if (!table->Update(rng() % kRows, v).ok()) failed.store(true);
    written.push_back(v);
  }
  done.store(true);
  checkpointer.join();
  ASSERT_FALSE(failed.load());
  for (const Value v : written) {
    auto full = table->ExecuteFullScan({v, v});
    auto got = table->Execute({v, v});
    ASSERT_TRUE(full.ok() && got.ok());
    ExpectSameAnswer(*got, *full, "written value");
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSAN job runs every unit test)

TEST(ShardedTable, ConcurrentReadersAndWriter) {
  auto table_r = Db::Create(kRows, MixValue, ShardedOptions(4));
  ASSERT_TRUE(table_r.ok());
  auto table = *std::move(table_r);

  // The writer records its script so the oracle can replay it serially.
  std::vector<std::pair<uint64_t, Value>> script;
  std::atomic<bool> failed{false};

  std::thread writer([&]() {
    std::mt19937_64 rng(7);
    for (int i = 0; i < 200; ++i) {
      const uint64_t row = rng() % kRows;
      const Value v = rng() % 1'000'000;
      script.emplace_back(row, v);
      if (!table->Update(row, v).ok()) failed.store(true);
      if (i % 25 == 24 && !table->FlushUpdates().ok()) failed.store(true);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      std::mt19937_64 rng(100 + t);
      for (int i = 0; i < 60; ++i) {
        Value a = rng() % 1'000'000;
        Value b = rng() % 1'000'000;
        if (a > b) std::swap(a, b);
        auto exec = table->Execute({a, b});
        if (!exec.ok() || exec->match_count > kRows) failed.store(true);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(table->FlushUpdates().ok());

  // Serial replay into an oracle: the concurrent run must have converged
  // to the same final cells.
  auto oracle = *Db::Create(kRows, MixValue, {});
  for (const auto& [row, v] : script) ASSERT_TRUE(oracle->Update(row, v).ok());
  ASSERT_TRUE(oracle->FlushUpdates().ok());
  for (const RangeQuery q :
       {RangeQuery{0, ~Value{0}}, RangeQuery{0, 250'000},
        RangeQuery{250'001, 900'000}}) {
    auto want = oracle->ExecuteFullScan(q);
    auto got = table->ExecuteFullScan(q);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameAnswer(*got, *want, "post-concurrency scan");
  }
}

}  // namespace
}  // namespace vmsv
