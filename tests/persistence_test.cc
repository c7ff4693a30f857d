// Durable-backend test suite: journal round-trip + idempotent replay,
// manifest atomicity, file-backed memory files, and the acceptance contract
// — a restart round-trip whose post-reopen scans are bit-identical to the
// pre-restart execution (ISSUE 5 / ARCHITECTURE.md "Durability model").

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "exec/scan_kernels.h"
#include "rewiring/vm_io.h"
#include "scoped_temp_dir.h"
#include "storage/journal.h"
#include "storage/manifest.h"
#include "storage/storage_io.h"
#include "util/env.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

namespace fs = std::filesystem;

constexpr Value kMaxValue = 100'000'000;

uint64_t TestPages() { return GetEnvUint64("VMSV_PAGES", 64); }

/// Shared scratch-dir RAII (tests/scoped_temp_dir.h): per-process sweep
/// collects directories leaked by runs that aborted mid-assertion.
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

/// Owns the facade table while exposing the engine underneath for the
/// white-box durability assertions.
struct OwnedColumn {
  std::unique_ptr<Table> table;
  AdaptiveColumn* operator->() const { return table->shard(0); }
  AdaptiveColumn& operator*() const { return *table->shard(0); }
  AdaptiveColumn* get() const { return table ? table->shard(0) : nullptr; }
  void reset() { table.reset(); }
};

StatusOr<OwnedColumn> OpenColumn(const std::string& dir,
                                 const AdaptiveConfig& config) {
  auto table_r = Db::Open(dir, DbOptions{config});
  if (!table_r.ok()) return table_r.status();
  return OwnedColumn{std::move(table_r).ValueOrDie()};
}

/// Creates a populated durable column under `dir`.
OwnedColumn MakeDurable(const std::string& dir,
                        const AdaptiveConfig& config = {}) {
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
};

std::vector<QueryResult> ExecuteAll(AdaptiveColumn* adaptive,
                                    const std::vector<RangeQuery>& queries) {
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    auto exec = adaptive->Execute(q);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    out.push_back(QueryResult{exec->match_count, exec->sum});
  }
  return out;
}

std::vector<QueryResult> FullScanAll(AdaptiveColumn* adaptive,
                                     const std::vector<RangeQuery>& queries) {
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    auto exec = adaptive->ExecuteFullScan(q);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    out.push_back(QueryResult{exec->match_count, exec->sum});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Journal

TEST(JournalTest, AppendReplayRoundTrip) {
  ScratchDir scratch("journal");
  const std::string path = scratch.path() + "/journal.wal";
  const std::vector<RowUpdate> updates = {
      {7, 100, 200}, {7, 200, 300}, {4096, 0, 1}, {0, ~Value{0}, 0}};
  {
    auto open_r = WriteAheadJournal::Open(path);
    ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
    ASSERT_TRUE(open_r->replayed.empty());
    auto journal = std::move(open_r.ValueOrDie().journal);
    for (const RowUpdate& u : updates) {
      ASSERT_TRUE(journal->Append(u, /*sync=*/false).ok());
    }
    ASSERT_TRUE(journal->Sync().ok());
    EXPECT_EQ(journal->record_count(), updates.size());
  }
  auto reopen_r = WriteAheadJournal::Open(path);
  ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
  EXPECT_FALSE(reopen_r->tail_truncated);
  ASSERT_EQ(reopen_r->replayed.size(), updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(reopen_r->replayed[i].row, updates[i].row);
    EXPECT_EQ(reopen_r->replayed[i].old_value, updates[i].old_value);
    EXPECT_EQ(reopen_r->replayed[i].new_value, updates[i].new_value);
  }
}

TEST(JournalTest, ReplayIsIdempotentAcrossReopens) {
  ScratchDir scratch("journal_idem");
  const std::string path = scratch.path() + "/journal.wal";
  {
    auto open_r = WriteAheadJournal::Open(path);
    ASSERT_TRUE(open_r.ok());
    auto journal = std::move(open_r.ValueOrDie().journal);
    ASSERT_TRUE(journal->Append({1, 10, 20}, true).ok());
    ASSERT_TRUE(journal->Append({2, 30, 40}, true).ok());
  }
  // Opening replays but does NOT consume: a second open (the kill-between-
  // open-and-flush case) must replay the identical record sequence.
  for (int round = 0; round < 3; ++round) {
    auto open_r = WriteAheadJournal::Open(path);
    ASSERT_TRUE(open_r.ok());
    ASSERT_EQ(open_r->replayed.size(), 2u) << "round " << round;
    EXPECT_EQ(open_r->replayed[0].row, 1u);
    EXPECT_EQ(open_r->replayed[1].new_value, 40u);
    EXPECT_EQ(open_r->journal->record_count(), 2u);
  }
}

TEST(JournalTest, TornTailIsDroppedOnce) {
  ScratchDir scratch("journal_torn");
  const std::string path = scratch.path() + "/journal.wal";
  {
    auto open_r = WriteAheadJournal::Open(path);
    ASSERT_TRUE(open_r.ok());
    auto journal = std::move(open_r.ValueOrDie().journal);
    ASSERT_TRUE(journal->Append({1, 10, 20}, true).ok());
    ASSERT_TRUE(journal->Append({2, 30, 40}, true).ok());
  }
  {
    // Simulate a crash mid-append: a partial garbage record at the tail.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("torngarbage", 11);
  }
  auto open_r = WriteAheadJournal::Open(path);
  ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
  EXPECT_TRUE(open_r->tail_truncated);
  ASSERT_EQ(open_r->replayed.size(), 2u);
  {
    // The tail was truncated away: appends after recovery replay cleanly.
    auto journal = std::move(open_r.ValueOrDie().journal);
    ASSERT_TRUE(journal->Append({3, 50, 60}, true).ok());
  }
  auto again_r = WriteAheadJournal::Open(path);
  ASSERT_TRUE(again_r.ok());
  EXPECT_FALSE(again_r->tail_truncated);
  ASSERT_EQ(again_r->replayed.size(), 3u);
  EXPECT_EQ(again_r->replayed[2].row, 3u);
}

TEST(JournalTest, ResetForgetsAndRejectsForeignFiles) {
  ScratchDir scratch("journal_reset");
  const std::string path = scratch.path() + "/journal.wal";
  {
    auto open_r = WriteAheadJournal::Open(path);
    ASSERT_TRUE(open_r.ok());
    auto journal = std::move(open_r.ValueOrDie().journal);
    ASSERT_TRUE(journal->Append({1, 10, 20}, true).ok());
    ASSERT_TRUE(journal->Reset().ok());
    EXPECT_EQ(journal->record_count(), 0u);
    ASSERT_TRUE(journal->Append({5, 1, 2}, true).ok());
  }
  auto open_r = WriteAheadJournal::Open(path);
  ASSERT_TRUE(open_r.ok());
  ASSERT_EQ(open_r->replayed.size(), 1u);  // only the post-reset record
  EXPECT_EQ(open_r->replayed[0].row, 5u);

  const std::string bogus = scratch.path() + "/not_a_journal";
  {
    std::ofstream f(bogus, std::ios::binary);
    f.write("DEADBEEFDEADBEEF", 16);
  }
  EXPECT_FALSE(WriteAheadJournal::Open(bogus).ok());
}

// ---------------------------------------------------------------------------
// CRC-32 (journal, manifest and delta log all frame with it)

/// The bitwise reflected CRC-32 the table-driven one must equal bit for
/// bit: every journal, manifest and delta log written before the table
/// version still has to verify. Returns the register before the final
/// inversion so a caller can extend it byte by byte.
uint32_t BitwiseCrcStep(uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
  }
  return crc;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, EqualsBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4097;
  std::vector<unsigned char> buf(kMaxLen + 8);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (unsigned char& byte : buf) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<unsigned char>(state >> 56);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* start = buf.data() + offset;
    uint32_t reference = 0xFFFFFFFFu;  // register after `len` bytes
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(start, len), ~reference)
          << "offset " << offset << " length " << len;
      if (len < kMaxLen) reference = BitwiseCrcStep(reference, start[len]);
    }
  }
}

// ---------------------------------------------------------------------------
// Manifest

TEST(ManifestTest, RoundTrip) {
  ScratchDir scratch("manifest");
  ViewManifest manifest;
  manifest.num_rows = 12345;
  manifest.num_pages = 25;
  manifest.pool_generation = 7;
  manifest.epoch = 3;
  manifest.next_view_id = 9;
  manifest.views.push_back(ManifestView{7, 100, 200, 25, /*demoted=*/false});
  manifest.views.push_back(ManifestView{8, 0, 50, 10, /*demoted=*/true});
  ASSERT_TRUE(WriteManifest(scratch.path(), manifest, /*sync=*/true).ok());
  // Ranges only: the fixed part plus 48 bytes per view.
  EXPECT_EQ(fs::file_size(ManifestPath(scratch.path())), 68u + 2 * 48u);
  EXPECT_EQ(ManifestSnapshotBytes(2), 68u + 2 * 48u);

  auto read_r = ReadManifest(scratch.path());
  ASSERT_TRUE(read_r.ok()) << read_r.status().ToString();
  EXPECT_EQ(read_r->num_rows, 12345u);
  EXPECT_EQ(read_r->num_pages, 25u);
  EXPECT_EQ(read_r->pool_generation, 7u);
  EXPECT_EQ(read_r->epoch, 3u);
  EXPECT_EQ(read_r->next_view_id, 9u);
  ASSERT_EQ(read_r->views.size(), 2u);
  EXPECT_EQ(read_r->views[0].id, 7u);
  EXPECT_EQ(read_r->views[1].id, 8u);
  EXPECT_EQ(read_r->views[0].lo, 100u);
  EXPECT_EQ(read_r->views[0].hi, 200u);
  EXPECT_EQ(read_r->views[0].creation_scanned_pages, 25u);
  EXPECT_FALSE(read_r->views[0].demoted);
  EXPECT_TRUE(read_r->views[1].demoted);
}

TEST(ManifestTest, ReplaceIsAtomicAndCorruptionIsDetected) {
  ScratchDir scratch("manifest_atomic");
  EXPECT_EQ(ReadManifest(scratch.path()).status().code(), StatusCode::kNotFound);

  ViewManifest manifest;
  manifest.num_rows = 10;
  manifest.num_pages = 1;
  ASSERT_TRUE(WriteManifest(scratch.path(), manifest, true).ok());
  manifest.views.push_back(ManifestView{1, 1, 2, 1, /*demoted=*/false});
  ASSERT_TRUE(WriteManifest(scratch.path(), manifest, true).ok());
  // The tmp file never lingers after a successful replace.
  EXPECT_FALSE(fs::exists(ManifestPath(scratch.path()) + ".tmp"));
  auto read_r = ReadManifest(scratch.path());
  ASSERT_TRUE(read_r.ok());
  EXPECT_EQ(read_r->views.size(), 1u);

  // Flip one byte: the checksum must catch it.
  {
    std::fstream f(ManifestPath(scratch.path()),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    const char x = 0x5A;
    f.write(&x, 1);
  }
  EXPECT_EQ(ReadManifest(scratch.path()).status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// File-backed memory file

TEST(FileBackedMemoryFileTest, CreateOpenSyncAndGeometryCheck) {
  ScratchDir scratch("pmf");
  const std::string path = scratch.path() + "/column.dat";
  {
    auto file_r = PhysicalMemoryFile::CreateAt(path, 4);
    ASSERT_TRUE(file_r.ok()) << file_r.status().ToString();
    EXPECT_EQ(file_r->backend(), MemoryFileBackend::kFile);
    EXPECT_EQ(file_r->num_pages(), 4u);
    EXPECT_EQ(file_r->path(), path);
    EXPECT_TRUE(file_r->Sync(/*wait=*/false).ok());
    EXPECT_TRUE(file_r->Sync(/*wait=*/true).ok());
  }
  EXPECT_TRUE(PhysicalMemoryFile::OpenAt(path, 4).ok());
  EXPECT_EQ(PhysicalMemoryFile::OpenAt(path, 8).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      PhysicalMemoryFile::OpenAt(scratch.path() + "/missing.dat", 4)
          .status()
          .code(),
      StatusCode::kNotFound);
  // Create() is the anonymous-backend entry point only.
  EXPECT_FALSE(PhysicalMemoryFile::Create(4, MemoryFileBackend::kFile).ok());
}

TEST(FileBackedMemoryFileTest, DataSurvivesReattach) {
  ScratchDir scratch("pmf_persist");
  const std::string path = scratch.path() + "/column.dat";
  const uint64_t rows = 2 * kValuesPerPage;
  {
    auto file_r = PhysicalMemoryFile::CreateAt(path, 2);
    ASSERT_TRUE(file_r.ok());
    auto file =
        std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
    auto column_r = PhysicalColumn::Attach(file, rows);
    ASSERT_TRUE(column_r.ok()) << column_r.status().ToString();
    for (uint64_t row = 0; row < rows; ++row) {
      (*column_r)->Set(row, row * 3 + 1);
    }
  }
  auto file_r = PhysicalMemoryFile::OpenAt(path, 2);
  ASSERT_TRUE(file_r.ok());
  auto file =
      std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto column_r = PhysicalColumn::Attach(file, rows);
  ASSERT_TRUE(column_r.ok());
  for (uint64_t row = 0; row < rows; ++row) {
    ASSERT_EQ((*column_r)->Get(row), row * 3 + 1) << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// AdaptiveColumn durable round trips

TEST(DurableColumnTest, CreateRejectsExistingAndOpenRejectsMissing) {
  ScratchDir scratch("durable_guard");
  EXPECT_EQ(OpenColumn(scratch.path(), {}).status().code(),
            StatusCode::kNotFound);
  auto adaptive = MakeDurable(scratch.path());
  ASSERT_NE(adaptive.get(), nullptr);
  EXPECT_TRUE(adaptive->is_durable());
  EXPECT_EQ(
      Db::CreateDurable(scratch.path(), 100, {}).status().code(),
      StatusCode::kFailedPrecondition);
}

// The acceptance contract: create + adapt + update + flush, destroy the
// process state, Open the same directory — every query result bit-identical
// to pre-restart execution, with the views restored rather than rebuilt.
TEST(DurableColumnTest, RestartRoundTripIsBitIdentical) {
  ScratchDir scratch("durable_roundtrip");
  // Few enough distinct ranges that the pool covers them all: post-restart
  // queries must then be answerable from restored views alone.
  const auto queries = TestQueries(12, 11);
  std::vector<QueryResult> before;
  uint64_t views_before = 0;
  {
    AdaptiveConfig config;
    config.max_views = 32;
    auto adaptive = MakeDurable(scratch.path(), config);
    ExecuteAll(adaptive.get(), queries);  // adapt: views materialize
    for (uint64_t row = 0; row < adaptive->column().num_rows();
         row += kValuesPerPage / 2) {
      ASSERT_TRUE(adaptive->Update(row, (row * 7919) % kMaxValue).ok());
    }
    before = ExecuteAll(adaptive.get(), queries);  // flush-first realigns
    views_before = adaptive->view_index().num_partial_views();
    ASSERT_TRUE(adaptive->Checkpoint().ok());
  }  // destruction without further flushing = the clean-ish restart

  AdaptiveConfig config;
  config.max_views = 32;
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  const DurabilityStats stats = reopened->durability_stats();
  EXPECT_EQ(stats.views_restored, views_before);
  EXPECT_EQ(stats.journal_replayed, 0u);  // checkpoint reset the journal

  // Restored views answer without a single adaptation full scan.
  const std::vector<QueryResult> after = ExecuteAll(reopened.get(), queries);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "query " << i << " diverged";
  }
  EXPECT_EQ(reopened->metrics().views_created, 0u)
      << "covered queries should hit restored views, not rebuild them";
  // And the adaptive answers agree with fresh full scans over the
  // recovered data.
  EXPECT_EQ(FullScanAll(reopened.get(), queries), after);
}

TEST(DurableColumnTest, RestoredViewsAnswerOverBase) {
  // Open restores views without arenas. Below materialize_after_hits they
  // answer from their page runs over the base mapping, so a mapping layer
  // that fails every call is never even called.
  ScratchDir scratch("durable_over_base");
  const auto queries = TestQueries(12, 11);
  {
    AdaptiveConfig config;
    config.max_views = 32;
    auto adaptive = MakeDurable(scratch.path(), config);
    ExecuteAll(adaptive.get(), queries);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
  }
  FaultInjectingVmIo io;
  AdaptiveConfig config;
  config.max_views = 32;
  config.vm_io = &io;
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  ASSERT_GT(reopened->view_index().num_partial_views(), 0u);
  VmFaultPlan plan;
  plan.op_index = 1;
  plan.sticky = true;
  io.Arm(plan);
  for (const RangeQuery& q : queries) {
    auto exec = reopened->Execute(q);
    auto oracle = reopened->ExecuteFullScan(q);
    ASSERT_TRUE(exec.ok() && oracle.ok());
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
    EXPECT_EQ(exec->match_count, oracle->match_count);
    EXPECT_EQ(exec->sum, oracle->sum);
  }
  EXPECT_EQ(io.op_count(), 0u);
  for (const auto& view : reopened->view_index().views()) {
    EXPECT_FALSE(view->is_materialized());
  }
  EXPECT_EQ(reopened->Health().map_failures, 0u);
  EXPECT_EQ(reopened->Health().base_fallbacks, 0u);
}

// Kill-and-reopen with UNFLUSHED journaled updates: replay must restore the
// exact pre-kill state, and replaying twice (kill again between Open and the
// first flush) must land in the same state — idempotency end to end. One
// replayed update puts a value outside its page's zone: Open derives the
// zones after the replay, and queries strictly inside the restored views
// read that page (and skip others) by those zones.
TEST(DurableColumnTest, KillAndReopenReplaysJournalIdempotently) {
  ScratchDir scratch("durable_kill");
  const auto queries = TestQueries(16, 5);
  std::vector<RangeQuery> inner;
  std::vector<QueryResult> oracle;
  std::vector<QueryResult> inner_oracle;
  const uint64_t updated_rows = 64;
  uint64_t zone_page = 0;
  Value zone_value = 0;
  {
    auto adaptive = MakeDurable(scratch.path());
    ExecuteAll(adaptive.get(), queries);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    // Updates are journaled but never flushed: the manifest still shows the
    // pre-update memberships when the process "dies".
    for (uint64_t i = 0; i < updated_rows; ++i) {
      const uint64_t row = (i * 37) % adaptive->column().num_rows();
      ASSERT_TRUE(adaptive->Update(row, (i * 104729) % kMaxValue).ok());
    }
    // The last update: a value inside a view's range but below its member
    // page's zone. Each view also gets a query strictly inside its range.
    const PhysicalColumn& column = adaptive->column();
    bool found = false;
    for (const auto& view : adaptive->view_index().views()) {
      const Value width = view->hi() - view->lo();
      inner.push_back({view->lo() + width / 3, view->hi() - width / 3});
      view->ForEachPage([&](uint64_t page) {
        const PageZone zone =
            ComputePageZone(column.PageData(page), kValuesPerPage);
        if (found || zone.min < view->lo() + 2) return;
        found = true;
        zone_page = page;
        zone_value = view->lo() + 1;
      });
    }
    ASSERT_TRUE(found) << "no view page with room below its zone";
    ASSERT_TRUE(
        adaptive->Update(zone_page * kValuesPerPage + 3, zone_value).ok());
    inner.push_back({zone_value, zone_value});
    oracle = FullScanAll(adaptive.get(), queries);  // reads current values
    inner_oracle = FullScanAll(adaptive.get(), inner);
  }  // kill: no flush, journal holds the updates

  for (int incarnation = 0; incarnation < 2; ++incarnation) {
    auto reopened_r = OpenColumn(scratch.path(), {});
    ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
    auto reopened = std::move(reopened_r).ValueOrDie();
    EXPECT_GT(reopened->durability_stats().journal_replayed, 0u)
        << "incarnation " << incarnation;
    EXPECT_TRUE(reopened->HasPendingUpdates());
    // Open derived the replayed page's zone.
    EXPECT_EQ(reopened->column().zones()[zone_page].min, zone_value);
    // Full scans see replayed values even before any flush.
    EXPECT_EQ(FullScanAll(reopened.get(), queries), oracle)
        << "incarnation " << incarnation;
    if (incarnation == 0) {
      // Kill again WITHOUT querying: the journal must still be intact
      // because no flush consumed it.
      continue;
    }
    // Second incarnation: adaptive execution flushes first, realigning the
    // restored views against the replayed updates — results must match the
    // full-scan oracle bit for bit.
    EXPECT_EQ(ExecuteAll(reopened.get(), queries), oracle);
    EXPECT_FALSE(reopened->HasPendingUpdates());
    EXPECT_EQ(ExecuteAll(reopened.get(), inner), inner_oracle);
    uint64_t skipped = 0;
    for (const RangeQuery& q : inner) {
      const VirtualView* view = reopened->view_index().FindSmallestCovering(q);
      ASSERT_NE(view, nullptr);
      view->ForEachPage([&](uint64_t page) {
        if (!reopened->column().zones()[page].Intersects(q)) ++skipped;
      });
    }
    EXPECT_GT(skipped, 0u) << "no view hit skips a page";
  }
}

TEST(DurableColumnTest, FlushPoliciesAllRecover) {
  for (const FlushPolicy policy :
       {FlushPolicy::kNone, FlushPolicy::kAsync, FlushPolicy::kSync}) {
    ScratchDir scratch("durable_policy");
    const auto queries = TestQueries(8, 23);
    AdaptiveConfig config;
    config.storage.data_flush = policy;
    std::vector<QueryResult> before;
    {
      auto adaptive = MakeDurable(scratch.path(), config);
      ASSERT_TRUE(adaptive->Update(3, 777).ok());
      before = ExecuteAll(adaptive.get(), queries);
      ASSERT_TRUE(adaptive->Checkpoint().ok());
    }
    auto reopened_r = OpenColumn(scratch.path(), config);
    ASSERT_TRUE(reopened_r.ok())
        << FlushPolicyName(policy) << ": " << reopened_r.status().ToString();
    EXPECT_EQ(ExecuteAll(reopened_r->get(), queries), before)
        << FlushPolicyName(policy);
  }
}

TEST(DurableColumnTest, JournalSyncEveryUpdateRoundTrips) {
  ScratchDir scratch("durable_syncupd");
  AdaptiveConfig config;
  config.storage.group_commit_batch = 1;
  std::vector<QueryResult> oracle;
  const auto queries = TestQueries(6, 31);
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    ASSERT_TRUE(adaptive->Update(1, 42).ok());
    ASSERT_TRUE(adaptive->Update(1, 43).ok());
    oracle = FullScanAll(adaptive.get(), queries);
  }  // kill without flush
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok());
  EXPECT_EQ(reopened_r->get()->durability_stats().journal_replayed, 2u);
  EXPECT_EQ(FullScanAll(reopened_r->get(), queries), oracle);
}

TEST(DurableColumnTest, RunnerCheckpointEveryPersistsMidSequence) {
  ScratchDir scratch("durable_runner");
  auto adaptive = MakeDurable(scratch.path());
  RunnerOptions options;
  options.run_baseline = false;
  options.verify_results = true;
  options.checkpoint_every = 4;
  auto report_r = RunWorkload(adaptive.table.get(), TestQueries(12, 9), options);
  ASSERT_TRUE(report_r.ok()) << report_r.status().ToString();
  // Initial manifest + at least one mid-sequence refresh.
  EXPECT_GT(adaptive->durability_stats().manifest_writes, 1u);
  // The on-disk manifest reflects the live pool.
  auto manifest_r = ReadManifest(scratch.path());
  ASSERT_TRUE(manifest_r.ok());
  EXPECT_EQ(manifest_r->views.size(),
            adaptive->view_index().num_partial_views());
}

TEST(DurableColumnTest, CreateDurableLocksBeforeTouchingColumnData) {
  ScratchDir scratch("durable_createlock");
  const auto queries = TestQueries(6, 17);
  auto adaptive = MakeDurable(scratch.path());
  const auto oracle = FullScanAll(adaptive.get(), queries);
  // Simulate the race window where a second CreateDurable has already passed
  // the manifest-existence check: with no MANIFEST on disk, only the journal
  // flock stands between it and O_TRUNCing the live column.dat.
  ASSERT_TRUE(fs::remove(ManifestPath(scratch.path())));
  EXPECT_EQ(Db::CreateDurable(scratch.path(),
                              TestPages() * kValuesPerPage, {})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // The loser must not have zeroed (or unsized) the winner's live data.
  EXPECT_EQ(FullScanAll(adaptive.get(), queries), oracle);
  ASSERT_TRUE(adaptive->Checkpoint().ok());  // restore the manifest
}

TEST(DurableColumnTest, CreateDurableDropsLeftoverJournalRecords) {
  ScratchDir scratch("durable_stalewal");
  {
    auto adaptive = MakeDurable(scratch.path());
    ASSERT_TRUE(adaptive->Update(7, 12345).ok());
  }  // kill without flush: journal.wal keeps the record
  // Start over the way an operator would after manifest corruption: remove
  // the MANIFEST and recreate. The stale journal record must not replay
  // onto the fresh (zeroed) column if the process dies before the first
  // checkpoint consumes the journal.
  ASSERT_TRUE(fs::remove(ManifestPath(scratch.path())));
  {
    auto recreated_r = Db::CreateDurable(
        scratch.path(), TestPages() * kValuesPerPage, {});
    ASSERT_TRUE(recreated_r.ok()) << recreated_r.status().ToString();
  }  // kill again before any flush
  auto reopened_r = OpenColumn(scratch.path(), {});
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  EXPECT_EQ(reopened_r->get()->durability_stats().journal_replayed, 0u);
  EXPECT_EQ(reopened_r->get()->column().Get(7), 0u);
}

TEST(DurableColumnTest, UpdateRejectsOutOfRangeRowBeforeJournaling) {
  ScratchDir scratch("durable_oob");
  auto adaptive = MakeDurable(scratch.path());
  const uint64_t rows = adaptive->column().num_rows();
  EXPECT_EQ(adaptive->Update(rows, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(adaptive->durability_stats().journal_appends, 0u);
  EXPECT_FALSE(adaptive->HasPendingUpdates());
}

// The journal-ahead write path's recovery contract: a kill after the WAL
// append but before the in-place cell write leaves an "extra" record whose
// mutation never reached column.dat. Open must replay it — this is the half
// of the ordering that makes Append-before-Set safe.
TEST(DurableColumnTest, ReopenAppliesRecordWhoseCellWriteWasLost) {
  ScratchDir scratch("durable_walahead");
  const auto queries = TestQueries(8, 29);
  Value old_value = 0;
  {
    auto adaptive = MakeDurable(scratch.path());
    ExecuteAll(adaptive.get(), queries);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    old_value = adaptive->column().Get(5);
  }  // kill
  {
    // Hand-append the record Update would have written, without touching
    // column.dat — exactly the state a kill between Append and Set leaves.
    auto open_r = WriteAheadJournal::Open(scratch.path() + "/journal.wal");
    ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
    ASSERT_TRUE(open_r->replayed.empty());
    auto journal = std::move(open_r.ValueOrDie().journal);
    ASSERT_TRUE(journal->Append({5, old_value, old_value + 9}, true).ok());
  }
  auto reopened_r = OpenColumn(scratch.path(), {});
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->durability_stats().journal_replayed, 1u);
  EXPECT_EQ(reopened->column().Get(5), old_value + 9);
  // Adaptive execution flushes first, so realigned views answer with the
  // replayed value — identical to a fresh full scan.
  EXPECT_EQ(ExecuteAll(reopened.get(), queries),
            FullScanAll(reopened.get(), queries));
}

TEST(DurableColumnTest, SecondOpenOfLiveColumnIsRefused) {
  ScratchDir scratch("durable_lock");
  auto adaptive = MakeDurable(scratch.path());
  ASSERT_NE(adaptive.get(), nullptr);
  // The journal flock is per-open-file-description, so even a same-process
  // second handle conflicts — a stand-in for the cross-process race.
  EXPECT_EQ(OpenColumn(scratch.path(), {}).status().code(),
            StatusCode::kFailedPrecondition);
  adaptive.reset();  // releases the lock
  EXPECT_TRUE(OpenColumn(scratch.path(), {}).ok());
}

TEST(DurableColumnTest, OpenClampsRestoredViewsToMaxViews) {
  ScratchDir scratch("durable_clamp");
  const auto queries = TestQueries(12, 11);
  std::vector<QueryResult> before;
  {
    AdaptiveConfig config;
    config.max_views = 32;
    auto adaptive = MakeDurable(scratch.path(), config);
    before = ExecuteAll(adaptive.get(), queries);
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    ASSERT_GT(adaptive->view_index().num_partial_views(), 4u);
  }
  AdaptiveConfig small;
  small.max_views = 4;
  auto reopened_r = OpenColumn(scratch.path(), small);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_LE(reopened->view_index().num_partial_views(), 4u);
  EXPECT_EQ(reopened->durability_stats().views_restored, 4u);
  // Unrestored ranges re-adapt; results stay bit-identical either way.
  EXPECT_EQ(ExecuteAll(reopened.get(), queries), before);
  EXPECT_LE(reopened->view_index().num_partial_views(), 4u);
}

TEST(ManifestTest, HostileCountsFailInsteadOfAllocating) {
  // A crafted manifest with a valid CRC but an absurd page_count must come
  // back as IoError — never bad_alloc/abort. (The CRC guards corruption,
  // not malice, so the bounds checks have to stand on their own.)
  ScratchDir scratch("manifest_hostile");
  std::string buf;
  buf.append("VMSVMAN1", 8);
  auto put32 = [&buf](uint32_t v) {
    buf.append(reinterpret_cast<const char*>(&v), 4);
  };
  auto put64 = [&buf](uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), 8);
  };
  put32(2);  // version
  put32(0);  // reserved
  put64(1);  // num_rows
  put64(1);  // num_pages
  put64(0);  // pool_generation
  put64(0);  // epoch
  put64(2);  // next_view_id
  put64(1);  // view_count
  put64(1);  // id
  put64(0);  // lo
  put64(0);  // hi
  put64(0);  // creation_scanned_pages
  put64(uint64_t{1} << 61);  // page_count: overflows naive size math
  put32(Crc32(buf.data(), buf.size()));
  {
    std::ofstream f(ManifestPath(scratch.path()), std::ios::binary);
    f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_EQ(ReadManifest(scratch.path()).status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Incremental manifest: the delta log

ManifestDelta UpsertDelta(uint64_t epoch, uint64_t id, Value lo, Value hi) {
  ManifestDelta delta;
  delta.op = ManifestDeltaOp::kUpsertView;
  delta.epoch = epoch;
  delta.view = ManifestView{id, lo, hi, /*creation_scanned_pages=*/hi - lo,
                            /*demoted=*/false};
  return delta;
}

ManifestDelta RemoveDelta(uint64_t epoch, uint64_t id) {
  ManifestDelta delta;
  delta.op = ManifestDeltaOp::kRemoveView;
  delta.epoch = epoch;
  delta.view.id = id;
  return delta;
}

TEST(ManifestDeltaLogTest, AppendReplayRoundTrip) {
  ScratchDir scratch("mdl");
  {
    auto open_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
    ASSERT_TRUE(open_r->replayed.empty());
    auto log = std::move(open_r.ValueOrDie().log);
    ASSERT_TRUE(log->Append(UpsertDelta(1, 5, 10, 20)).ok());
    ASSERT_TRUE(log->Append(RemoveDelta(1, 4)).ok());
    ASSERT_TRUE(log->Append(UpsertDelta(2, 6, 30, 40)).ok());
    EXPECT_EQ(log->record_count(), 3u);
  }
  auto reopen_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(reopen_r.ok()) << reopen_r.status().ToString();
  EXPECT_FALSE(reopen_r->tail_truncated);
  ASSERT_EQ(reopen_r->replayed.size(), 3u);
  EXPECT_EQ(reopen_r->replayed[0].op, ManifestDeltaOp::kUpsertView);
  EXPECT_EQ(reopen_r->replayed[0].epoch, 1u);
  EXPECT_EQ(reopen_r->replayed[0].view.id, 5u);
  EXPECT_EQ(reopen_r->replayed[0].view.lo, 10u);
  EXPECT_EQ(reopen_r->replayed[0].view.hi, 20u);
  EXPECT_EQ(reopen_r->replayed[0].view.creation_scanned_pages, 10u);
  EXPECT_EQ(reopen_r->replayed[1].op, ManifestDeltaOp::kRemoveView);
  EXPECT_EQ(reopen_r->replayed[1].view.id, 4u);
  EXPECT_EQ(reopen_r->replayed[2].epoch, 2u);
  EXPECT_EQ(reopen_r->replayed[2].view.hi, 40u);
}

TEST(ManifestDeltaLogTest, TornTailIsTruncatedOnce) {
  ScratchDir scratch("mdl_torn");
  {
    auto open_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(open_r.ok());
    auto log = std::move(open_r.ValueOrDie().log);
    ASSERT_TRUE(log->Append(UpsertDelta(1, 1, 0, 9)).ok());
    ASSERT_TRUE(log->Append(UpsertDelta(1, 2, 10, 19)).ok());
  }
  {
    // Crash mid-append: a partial record's bytes at the tail.
    std::ofstream f(ManifestDeltaPath(scratch.path()),
                    std::ios::binary | std::ios::app);
    f.write("torn-delta-garbage", 18);
  }
  auto open_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
  EXPECT_TRUE(open_r->tail_truncated);
  ASSERT_EQ(open_r->replayed.size(), 2u);
  {
    // The torn tail is gone: appends after recovery replay cleanly.
    auto log = std::move(open_r.ValueOrDie().log);
    ASSERT_TRUE(log->Append(RemoveDelta(1, 1)).ok());
  }
  auto again_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(again_r.ok());
  EXPECT_FALSE(again_r->tail_truncated);
  ASSERT_EQ(again_r->replayed.size(), 3u);
  EXPECT_EQ(again_r->replayed[2].op, ManifestDeltaOp::kRemoveView);
}

TEST(ManifestDeltaLogTest, MidRecordCorruptionEndsReplayThere) {
  ScratchDir scratch("mdl_corrupt");
  {
    auto open_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(open_r.ok());
    auto log = std::move(open_r.ValueOrDie().log);
    ASSERT_TRUE(log->Append(UpsertDelta(1, 1, 0, 9)).ok());
    ASSERT_TRUE(log->Append(UpsertDelta(1, 2, 10, 19)).ok());
  }
  {
    // Flip a byte INSIDE the first record's payload (past the 8-byte file
    // header): its crc fails, so replay must end before record 1 — the
    // still-intact second record is unreachable by the framing contract and
    // gets truncated away with the corrupt one.
    std::fstream f(ManifestDeltaPath(scratch.path()),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 20);
    const char x = 0x5A;
    f.write(&x, 1);
  }
  auto open_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
  EXPECT_TRUE(open_r->tail_truncated);
  EXPECT_TRUE(open_r->replayed.empty());
  EXPECT_EQ(open_r->log->record_count(), 0u);
}

/// Real I/O, except that while `tear` is set a delta write lands only its
/// first half and fails, and the rewind after it fails too.
class TearingDeltaIo : public StorageIo {
 public:
  bool tear = false;

  Status Write(int fd, const void* data, size_t len,
               const char* what) override {
    if (tear) {
      (void)RealStorageIo()->Write(fd, data, len / 2, what);
      return IoError("injected torn delta write");
    }
    return RealStorageIo()->Write(fd, data, len, what);
  }
  Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                const char* what) override {
    return RealStorageIo()->Pwrite(fd, data, len, offset, what);
  }
  Status Fsync(int fd, const char* what) override {
    return RealStorageIo()->Fsync(fd, what);
  }
  Status FsyncDir(const std::string& dir) override {
    return RealStorageIo()->FsyncDir(dir);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return RealStorageIo()->Rename(from, to);
  }
  Status Truncate(int fd, uint64_t len, const char* what) override {
    if (tear && std::string(what).find("rewind") != std::string::npos) {
      return IoError("injected rewind failure");
    }
    return RealStorageIo()->Truncate(fd, len, what);
  }
  Status SyncFileRange(int fd, const char* what) override {
    return RealStorageIo()->SyncFileRange(fd, what);
  }
};

TEST(ManifestDeltaLogTest, UnrewoundTornTailRefusesAppendsUntilReset) {
  // Records appended behind torn bytes would be unreachable on replay, so
  // the log refuses them until a Reset truncates the tear away.
  ScratchDir scratch("mdl_unrewound");
  TearingDeltaIo io;
  auto open_r = ManifestDeltaLog::Open(scratch.path(), &io);
  ASSERT_TRUE(open_r.ok());
  auto log = std::move(open_r.ValueOrDie().log);
  ASSERT_TRUE(log->Append(UpsertDelta(1, 1, 0, 9)).ok());
  io.tear = true;
  EXPECT_FALSE(log->Append(UpsertDelta(1, 2, 10, 19)).ok());
  io.tear = false;
  EXPECT_FALSE(log->empty());
  EXPECT_FALSE(log->Append(RemoveDelta(1, 1)).ok())
      << "an append behind the torn tail would be lost on replay";
  ASSERT_TRUE(log->Reset().ok());
  EXPECT_TRUE(log->empty());
  ASSERT_TRUE(log->Append(UpsertDelta(2, 3, 20, 29)).ok());
  log.reset();
  auto reopen_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(reopen_r.ok());
  EXPECT_FALSE(reopen_r->tail_truncated);
  ASSERT_EQ(reopen_r->replayed.size(), 1u);
  EXPECT_EQ(reopen_r->replayed[0].view.id, 3u);
}

TEST(ManifestDeltaLogTest, ResetCompactsToBareHeader) {
  ScratchDir scratch("mdl_reset");
  {
    auto open_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(open_r.ok());
    auto log = std::move(open_r.ValueOrDie().log);
    ASSERT_TRUE(log->Append(UpsertDelta(1, 1, 0, 9)).ok());
    ASSERT_TRUE(log->Reset().ok());
    EXPECT_EQ(log->record_count(), 0u);
    ASSERT_TRUE(log->Append(UpsertDelta(2, 2, 5, 6)).ok());
  }
  auto open_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(open_r.ok());
  ASSERT_EQ(open_r->replayed.size(), 1u);  // only the post-reset record
  EXPECT_EQ(open_r->replayed[0].view.id, 2u);
}

TEST(ManifestDeltaLogTest, ApplyFiltersByEpochAndRaisesIdWatermark) {
  ViewManifest base;
  base.epoch = 5;
  base.next_view_id = 3;
  base.views.push_back(ManifestView{1, 0, 9, 1, /*demoted=*/false});
  base.views.push_back(ManifestView{2, 10, 19, 1, /*demoted=*/false});
  const std::vector<ManifestDelta> deltas = {
      UpsertDelta(4, 7, 90, 99),    // stale epoch: skipped
      UpsertDelta(5, 2, 10, 25), // replaces view 2 in place
      RemoveDelta(5, 1),                 // removes view 1
      UpsertDelta(5, 9, 40, 49),    // appends a new view
      RemoveDelta(6, 9),                 // FUTURE epoch: skipped too
  };
  uint64_t skipped = 0;
  const uint64_t applied = ApplyManifestDeltas(&base, deltas, &skipped);
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(skipped, 2u);
  ASSERT_EQ(base.views.size(), 2u);
  EXPECT_EQ(base.views[0].id, 2u);
  EXPECT_EQ(base.views[0].hi, 25u);  // the upsert replaced, not duplicated
  EXPECT_EQ(base.views[1].id, 9u);
  // The watermark rose above EVERY id seen, applied or skipped: an id
  // handed out before a crash is never reissued.
  EXPECT_EQ(base.next_view_id, 10u);
}

ManifestDelta EditDelta(ManifestDeltaOp op, uint64_t epoch, uint64_t id) {
  ManifestDelta delta;
  delta.op = op;
  delta.epoch = epoch;
  delta.view.id = id;
  return delta;
}

ManifestDelta RangeDelta(uint64_t epoch, uint64_t id, Value lo, Value hi) {
  ManifestDelta delta = EditDelta(ManifestDeltaOp::kSetViewRange, epoch, id);
  delta.view.lo = lo;
  delta.view.hi = hi;
  return delta;
}

/// Writes `deltas` to a fresh log in `dir` and returns what Open replays.
std::vector<ManifestDelta> RoundTripLog(const std::string& dir,
                                        const std::vector<ManifestDelta>& deltas) {
  {
    auto open_r = ManifestDeltaLog::Open(dir);
    EXPECT_TRUE(open_r.ok()) << open_r.status().ToString();
    auto log = std::move(open_r.ValueOrDie().log);
    for (const ManifestDelta& delta : deltas) {
      EXPECT_TRUE(log->Append(delta).ok());
    }
    EXPECT_TRUE(log->Sync().ok());
  }
  auto open_r = ManifestDeltaLog::Open(dir);
  EXPECT_TRUE(open_r.ok()) << open_r.status().ToString();
  EXPECT_FALSE(open_r->tail_truncated);
  return std::move(open_r.ValueOrDie().replayed);
}

TEST(ManifestDeltaLogTest, InPlaceEditsReplayByIdAndIgnoreUnknownIds) {
  ScratchDir scratch("mdl_edits");
  ViewManifest base;
  base.epoch = 5;
  base.next_view_id = 3;
  base.views.push_back(ManifestView{1, 0, 9, 3, /*demoted=*/false});
  base.views.push_back(ManifestView{2, 10, 19, 2, /*demoted=*/false});
  const std::vector<ManifestDelta> replayed = RoundTripLog(
      scratch.path(),
      {
          RangeDelta(5, 1, 0, 12),
          RangeDelta(5, 9, 1, 2),    // unknown id
          RangeDelta(4, 2, 10, 99),  // old epoch
      });
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].op, ManifestDeltaOp::kSetViewRange);
  EXPECT_EQ(replayed[0].view.hi, 12u);
  uint64_t skipped = 0;
  EXPECT_EQ(ApplyManifestDeltas(&base, replayed, &skipped), 2u);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(base.views.size(), 2u);
  EXPECT_EQ(base.views[0].lo, 0u);
  EXPECT_EQ(base.views[0].hi, 12u);
  EXPECT_EQ(base.views[0].creation_scanned_pages, 3u);
  EXPECT_EQ(base.views[1].hi, 19u);
  EXPECT_EQ(base.next_view_id, 10u);  // the unknown id still raised it
}

TEST(ManifestDeltaLogTest, LogOfOpsOneToThreeReplaysUnchanged) {
  // A log written before ops 4-6 existed holds only upserts, removes and
  // tier flips; it must replay to exactly the pool it always did.
  ScratchDir scratch("mdl_v1_ops");
  ManifestDelta demote = EditDelta(ManifestDeltaOp::kSetViewTier, 2, 1);
  demote.view.demoted = true;
  const std::vector<ManifestDelta> written = {
      UpsertDelta(2, 1, 0, 9),
      UpsertDelta(2, 2, 10, 19),
      demote,
      RemoveDelta(2, 2),
      UpsertDelta(2, 3, 20, 29),
      UpsertDelta(2, 3, 20, 35),
  };
  const std::vector<ManifestDelta> replayed =
      RoundTripLog(scratch.path(), written);
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replayed[i].op, written[i].op) << "record " << i;
    EXPECT_EQ(replayed[i].view.id, written[i].view.id) << "record " << i;
    EXPECT_EQ(replayed[i].view.hi, written[i].view.hi) << "record " << i;
    EXPECT_EQ(replayed[i].view.demoted, written[i].view.demoted)
        << "record " << i;
  }
  ViewManifest base;
  base.epoch = 2;
  EXPECT_EQ(ApplyManifestDeltas(&base, replayed), written.size());
  ASSERT_EQ(base.views.size(), 2u);
  EXPECT_EQ(base.views[0].id, 1u);
  EXPECT_TRUE(base.views[0].demoted);
  EXPECT_EQ(base.views[0].hi, 9u);
  EXPECT_EQ(base.views[1].id, 3u);
  EXPECT_EQ(base.views[1].hi, 35u);
  EXPECT_EQ(base.next_view_id, 4u);
}

TEST(ManifestDeltaLogTest, UnknownOpEndsReplayAsTornTail) {
  ScratchDir scratch("mdl_unknown_op");
  {
    auto open_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(open_r.ok());
    auto log = std::move(open_r.ValueOrDie().log);
    ASSERT_TRUE(log->Append(UpsertDelta(1, 1, 0, 9)).ok());
  }
  {
    // A well-framed record (valid crc and magic) with op 7, which no
    // version writes.
    std::string record;
    const auto put32 = [&record](uint32_t v) {
      record.append(reinterpret_cast<const char*>(&v), 4);
    };
    const auto put64 = [&record](uint64_t v) {
      record.append(reinterpret_cast<const char*>(&v), 8);
    };
    put32(7);  // op
    put32(0);  // reserved
    put64(1);  // epoch
    put64(1);  // id
    for (int field = 0; field < 5; ++field) put64(0);  // lo..page_count
    put32(Crc32(record.data(), record.size()));
    put32(0x4C44u);
    std::ofstream f(ManifestDeltaPath(scratch.path()),
                    std::ios::binary | std::ios::app);
    f.write(record.data(), static_cast<std::streamsize>(record.size()));
  }
  {
    auto open_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(open_r.ok()) << open_r.status().ToString();
    EXPECT_TRUE(open_r->tail_truncated);
    ASSERT_EQ(open_r->replayed.size(), 1u);
    EXPECT_EQ(open_r->replayed[0].op, ManifestDeltaOp::kUpsertView);
  }
  auto again_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(again_r.ok());
  EXPECT_FALSE(again_r->tail_truncated);  // truncated once, for good
  EXPECT_EQ(again_r->replayed.size(), 1u);
}

// ---------------------------------------------------------------------------
// Group commit + fsync accounting (via the fault-injection I/O layer used
// as a pure syscall counter — no faults armed)

TEST(GroupCommitTest, FsyncCountIsExactSingleThreaded) {
  ScratchDir scratch("gc_exact");
  FaultInjectingIo io;  // no fault plan: counts real I/O
  AdaptiveConfig config;
  config.storage.group_commit_batch = 8;
  config.storage.io = &io;
  auto adaptive = MakeDurable(scratch.path(), config);
  const uint64_t rows = adaptive->column().num_rows();
  const uint64_t before = io.stats().fsyncs;
  const uint64_t updates = 64;
  for (uint64_t i = 0; i < updates; ++i) {
    ASSERT_TRUE(adaptive->Update(i % rows, i + 1).ok());
  }
  // Appends are serialized, LSNs start at 0 for a fresh journal, and the
  // commit trigger is the multiple-of-batch LSN: exactly every 8th update
  // leads one fsync covering its batch — 64 updates, exactly 8 fsyncs.
  EXPECT_EQ(io.stats().fsyncs - before, updates / 8);
  EXPECT_EQ(adaptive->durability_stats().journal_appended_lsn, updates);
  EXPECT_EQ(adaptive->durability_stats().journal_durable_lsn, updates);
  EXPECT_EQ(adaptive->durability_stats().journal_group_commits, updates / 8);
}

TEST(GroupCommitTest, ConcurrentUpdatersStayUnderTheBatchBound) {
  ScratchDir scratch("gc_concurrent");
  FaultInjectingIo io;
  AdaptiveConfig config;
  config.storage.group_commit_batch = 8;
  config.storage.io = &io;
  auto adaptive = MakeDurable(scratch.path(), config);
  const uint64_t rows = adaptive->column().num_rows();
  const uint64_t before = io.stats().fsyncs;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t row = (t * kPerThread + i) % rows;
        ASSERT_TRUE(adaptive->Update(row, row + 7).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t total = kThreads * kPerThread;
  const uint64_t fsyncs = io.stats().fsyncs - before;
  // Only multiple-of-batch LSNs trigger commits and a leader's fsync covers
  // every boundary appended before it started, so N concurrent updates cost
  // at most ceil(N/batch) fsyncs — usually fewer, since racing committers
  // share leaders.
  EXPECT_LE(fsyncs, (total + 7) / 8);
  EXPECT_GE(fsyncs, 1u);
  EXPECT_EQ(adaptive->durability_stats().journal_appends, total);
  EXPECT_EQ(adaptive->durability_stats().journal_durable_lsn, total)
      << "the last update's LSN is a batch boundary, so everything commits";
}

TEST(GroupCommitTest, AcknowledgedBatchesSurviveAKill) {
  ScratchDir scratch("gc_kill");
  const auto queries = TestQueries(8, 41);
  AdaptiveConfig config;
  config.storage.group_commit_batch = 4;
  std::vector<QueryResult> oracle;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    // 10 updates: LSNs 4 and 8 are acknowledged batch boundaries; 9 and 10
    // ride unacknowledged (durable only via page cache on a process kill).
    for (uint64_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(adaptive->Update(i, i * 1000).ok());
    }
    const DurabilityStats stats = adaptive->durability_stats();
    EXPECT_EQ(stats.journal_appended_lsn, 10u);
    EXPECT_GE(stats.journal_durable_lsn, 8u);
    oracle = FullScanAll(adaptive.get(), queries);
  }  // kill without flush
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->durability_stats().journal_replayed, 10u);
  EXPECT_EQ(FullScanAll(reopened.get(), queries), oracle);
  for (uint64_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(reopened->column().Get(i), i * 1000) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Incremental manifest end to end

TEST(DurableColumnTest, AdaptationAppendsDeltasInsteadOfSnapshots) {
  ScratchDir scratch("durable_deltas");
  AdaptiveConfig config;
  config.max_views = 32;
  auto adaptive = MakeDurable(scratch.path(), config);
  const auto queries = TestQueries(10, 13);
  ExecuteAll(adaptive.get(), queries);
  const DurabilityStats stats = adaptive->durability_stats();
  // Adaptation persisted through the delta log: the only BASE snapshot is
  // CreateDurable's initial one.
  EXPECT_EQ(stats.manifest_writes, 1u);
  EXPECT_GT(stats.manifest_delta_appends, 0u);
  EXPECT_EQ(stats.manifest_write_failures, 0u);
  // Checkpoint compacts: fresh base (epoch bump), delta log emptied. The
  // base holds ranges only, 48 bytes per view.
  ASSERT_TRUE(adaptive->Checkpoint().ok());
  EXPECT_EQ(adaptive->durability_stats().manifest_writes, 2u);
  EXPECT_EQ(fs::file_size(ManifestPath(scratch.path())),
            68 + 48 * adaptive->view_index().num_partial_views());
  auto reopened_r = ManifestDeltaLog::Open(scratch.path());
  ASSERT_TRUE(reopened_r.ok());
  EXPECT_TRUE(reopened_r->replayed.empty());
}

TEST(DurableColumnTest, KillBeforeCheckpointRestoresViewsFromDeltas) {
  ScratchDir scratch("durable_deltarec");
  const auto queries = TestQueries(10, 19);
  AdaptiveConfig config;
  config.max_views = 32;
  std::vector<QueryResult> before;
  uint64_t views_before = 0;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    before = ExecuteAll(adaptive.get(), queries);
    views_before = adaptive->view_index().num_partial_views();
    ASSERT_GT(views_before, 0u);
  }  // kill WITHOUT checkpoint: the base snapshot still shows an empty pool
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  const DurabilityStats stats = reopened->durability_stats();
  EXPECT_GT(stats.manifest_deltas_replayed, 0u);
  EXPECT_EQ(stats.views_restored, views_before)
      << "every adapted view must come back from base + deltas alone";
  const std::vector<QueryResult> after = ExecuteAll(reopened.get(), queries);
  EXPECT_EQ(after, before);
  EXPECT_EQ(reopened->metrics().views_created, 0u)
      << "covered queries should hit delta-restored views, not rebuild them";
}

/// The pool as recovery must reproduce it: (id, lo, hi, sorted pages,
/// demoted) per view, sorted. Slot order is left out on purpose: recovery
/// installs derived pages in page order, and the order only shapes the
/// first materialization's mmap runs.
using PoolState =
    std::vector<std::tuple<uint64_t, Value, Value, std::vector<uint64_t>, bool>>;

PoolState StateOf(const AdaptiveColumn& adaptive) {
  PoolState state;
  for (const auto& view : adaptive.view_index().views()) {
    std::vector<uint64_t> pages = view->physical_pages();
    std::sort(pages.begin(), pages.end());
    state.emplace_back(view->durable_id(), view->lo(), view->hi(),
                       std::move(pages), view->demoted());
  }
  std::sort(state.begin(), state.end());
  return state;
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

bool HoldsAll(const VirtualView& view, const std::vector<uint64_t>& pages) {
  for (const uint64_t page : pages) {
    if (!view.ContainsPage(page)) return false;
  }
  return true;
}

/// The view an exact-subset candidate of `pages` is discarded against: the
/// first in pool order that holds them all (DecideCandidate's rule with
/// discard_tolerance 0).
const VirtualView* DiscardTarget(const AdaptiveColumn& adaptive,
                                 const std::vector<uint64_t>& pages) {
  for (const auto& view : adaptive.view_index().views()) {
    if (HoldsAll(*view, pages)) return view.get();
  }
  return nullptr;
}

bool Covered(const AdaptiveColumn& adaptive, const RangeQuery& q) {
  return adaptive.view_index().FindSmallestCovering(q) != nullptr;
}

/// A query [lo, hi + 1] of some view whose candidate is exactly that view's
/// pages, so admission discards it against the view and widens its range.
bool FindWideningDiscard(const AdaptiveColumn& adaptive, RangeQuery* q) {
  for (const auto& view : adaptive.view_index().views()) {
    if (view->num_pages() == 0 || view->hi() == ~Value{0}) continue;
    const RangeQuery wider{view->lo(), view->hi() + 1};
    const std::vector<uint64_t> pages =
        PagesHolding(adaptive.column(), wider);
    if (Covered(adaptive, wider) || pages.size() != view->num_pages() ||
        DiscardTarget(adaptive, pages) != view.get()) {
      continue;
    }
    *q = wider;
    return true;
  }
  return false;
}

/// A one-value query no view covers whose candidate is discarded against a
/// view whose range does not touch the value — a discard that widens
/// nothing.
bool FindNonWideningDiscard(const AdaptiveColumn& adaptive, RangeQuery* q) {
  const PhysicalColumn& column = adaptive.column();
  for (const auto& holder : adaptive.view_index().views()) {
    for (const uint64_t page : holder->physical_pages()) {
      const PageZone zone = ComputePageZone(column.PageData(page), kValuesPerPage);
      for (const Value value : {zone.min, zone.max}) {
        const RangeQuery point{value, value};
        if (Covered(adaptive, point)) continue;
        const VirtualView* target =
            DiscardTarget(adaptive, PagesHolding(column, point));
        if (target == nullptr) continue;
        const bool touches = value + 1 >= target->lo() &&
                             (target->hi() == ~Value{0} ||
                              value <= target->hi() + 1);
        if (touches) continue;
        *q = point;
        return true;
      }
    }
  }
  return false;
}

// Base snapshot plus delta log recover every pool edit adaptation makes —
// a widened range, and a discard that edits nothing — with no snapshot
// after the adaptation's checkpoint. A flush that adds and removes pages
// appends nothing: recovery derives the moved pages from the data. (The
// discards run before the updates: a query flushes pending updates first.)
TEST(DurableColumnTest, FlushAppendsNoPageDeltasAndRecoveryNeedsNoSnapshot) {
  ScratchDir scratch("durable_pagedeltas");
  AdaptiveConfig config;
  config.max_views = 32;
  PoolState before;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    ExecuteAll(adaptive.get(), TestQueries(10, 13));  // adapt
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    ASSERT_GE(adaptive->view_index().num_partial_views(), 2u);
    const uint64_t writes = adaptive->durability_stats().manifest_writes;

    // A discard that widens a range appends one set-range record.
    RangeQuery widen;
    ASSERT_TRUE(FindWideningDiscard(*adaptive, &widen));
    uint64_t appends = adaptive->durability_stats().manifest_delta_appends;
    auto exec = adaptive->Execute(widen);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
    const VirtualView* widened =
        adaptive->view_index().FindSmallestCovering(widen);
    ASSERT_NE(widened, nullptr) << "the discard widened no range";
    EXPECT_EQ(widened->hi(), widen.hi);
    EXPECT_EQ(adaptive->durability_stats().manifest_delta_appends, appends + 1);
    EXPECT_FALSE(adaptive->durability_stats().manifest_stale);

    // A discard that widens nothing appends nothing and stays clean.
    RangeQuery plain;
    ASSERT_TRUE(FindNonWideningDiscard(*adaptive, &plain));
    const PoolState shape = StateOf(*adaptive);
    appends = adaptive->durability_stats().manifest_delta_appends;
    exec = adaptive->Execute(plain);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
    EXPECT_EQ(StateOf(*adaptive), shape);
    EXPECT_EQ(adaptive->durability_stats().manifest_delta_appends, appends);
    EXPECT_FALSE(adaptive->durability_stats().manifest_stale);

    // One update adds a page to hot view A; others remove page q from a
    // second view B by moving every value of q in B's range out of the
    // domain.
    const PhysicalColumn& column = adaptive->column();
    const VirtualView* a = nullptr;
    uint64_t added = 0;
    for (const auto& view : adaptive->view_index().views()) {
      for (uint64_t page = 0; a == nullptr && page < column.num_pages();
           ++page) {
        if (!view->ContainsPage(page)) {
          a = view.get();
          added = page;
        }
      }
    }
    ASSERT_NE(a, nullptr);
    const VirtualView* b = nullptr;
    uint64_t removed = 0;
    std::vector<uint64_t> removed_rows;
    for (const auto& view : adaptive->view_index().views()) {
      if (view.get() == a) continue;
      for (const uint64_t page : view->physical_pages()) {
        if (page == added) continue;
        std::vector<uint64_t> rows;
        for (uint64_t i = 0; i < kValuesPerPage; ++i) {
          const Value value = column.PageData(page)[i];
          if (value >= view->lo() && value <= view->hi()) {
            rows.push_back(page * kValuesPerPage + i);
          }
        }
        if (b == nullptr || rows.size() < removed_rows.size()) {
          b = view.get();
          removed = page;
          removed_rows = std::move(rows);
        }
      }
    }
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(
        adaptive->Update(added * kValuesPerPage, (a->lo() + a->hi()) / 2).ok());
    for (const uint64_t row : removed_rows) {
      ASSERT_TRUE(adaptive->Update(row, kMaxValue + 1).ok());
    }

    // The flush moves both pages, appends nothing and writes no snapshot.
    appends = adaptive->durability_stats().manifest_delta_appends;
    auto flushed = adaptive->FlushUpdates();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    EXPECT_TRUE(a->ContainsPage(added));
    EXPECT_FALSE(b->ContainsPage(removed));
    const DurabilityStats stats = adaptive->durability_stats();
    EXPECT_EQ(stats.manifest_writes, writes);
    EXPECT_EQ(stats.manifest_delta_appends, appends);
    EXPECT_FALSE(stats.manifest_stale);
    EXPECT_EQ(stats.manifest_write_failures, 0u);
    before = StateOf(*adaptive);
  }  // kill WITHOUT a checkpoint: base snapshot + deltas only

  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->durability_stats().journal_replayed, 0u)
      << "the flush reset the journal; base and deltas alone must recover";
  // The set-range record is the one delta since the checkpoint.
  EXPECT_EQ(reopened->durability_stats().manifest_deltas_replayed, 1u);
  EXPECT_EQ(StateOf(*reopened), before);
  for (const auto& view : reopened->view_index().views()) {
    EXPECT_EQ(view->physical_pages(),
              PagesHolding(reopened->column(), view->value_range()))
        << "view " << view->durable_id();
  }
  EXPECT_FALSE(reopened->durability_stats().manifest_stale);
  // Queries strictly inside each restored view agree with full scans.
  std::vector<RangeQuery> inner;
  for (const auto& view : reopened->view_index().views()) {
    const Value width = view->hi() - view->lo();
    inner.push_back({view->lo() + width / 3, view->hi() - width / 3});
  }
  EXPECT_EQ(ExecuteAll(reopened.get(), inner), FullScanAll(reopened.get(), inner));
  EXPECT_EQ(reopened->metrics().views_created, 0u);

  // An explicit checkpoint compacts the log into a fresh base.
  const uint64_t writes = reopened->durability_stats().manifest_writes;
  ASSERT_TRUE(reopened->Checkpoint().ok());
  EXPECT_EQ(reopened->durability_stats().manifest_writes, writes + 1);
  {
    auto log_r = ManifestDeltaLog::Open(scratch.path());
    ASSERT_TRUE(log_r.ok());
    EXPECT_TRUE(log_r->replayed.empty());
  }
  reopened.reset();
  auto again_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(again_r.ok()) << again_r.status().ToString();
  EXPECT_EQ(StateOf(*again_r->get()), before);
}

// Churn: every round widens a view's range by one value through a
// discard, appending one set-range record, then flushes an update that
// moves a page into or out of a view, which appends nothing. The log grows
// by a record per round until it holds more than twice the bytes of a
// snapshot of the pool; that round's flush snapshots and the log starts
// over.
TEST(DurableColumnTest, FlushSnapshotsOnceTheLogOutgrowsTwiceThePool) {
  ScratchDir scratch("durable_churn");
  AdaptiveConfig config;
  config.max_views = 32;
  PoolState before;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    ExecuteAll(adaptive.get(), TestQueries(4, 13));
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    const PhysicalColumn& column = adaptive->column();
    const VirtualView* view = adaptive->view_index().views().front().get();
    uint64_t page = 0;
    while (page < column.num_pages() && view->ContainsPage(page)) ++page;
    ASSERT_LT(page, column.num_pages());
    const uint64_t row = page * kValuesPerPage;
    const Value original = column.Get(row);
    const Value inside = (view->lo() + view->hi()) / 2;
    const uint64_t writes = adaptive->durability_stats().manifest_writes;
    constexpr uint64_t kRecord = 72;  // head 64 + tail 8
    for (int round = 0; round < 64; ++round) {
      RangeQuery widen;
      ASSERT_TRUE(FindWideningDiscard(*adaptive, &widen)) << "round " << round;
      auto exec = adaptive->Execute(widen);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      ASSERT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
      ASSERT_TRUE(adaptive->Update(row, round % 2 == 0 ? inside : original).ok());
      ASSERT_TRUE(adaptive->FlushUpdates().ok());
      ASSERT_EQ(view->ContainsPage(page), round % 2 == 0);
      const uint64_t live =
          ManifestSnapshotBytes(adaptive->view_index().views().size());
      const uint64_t log =
          fs::file_size(ManifestDeltaPath(scratch.path())) - 8;  // header
      EXPECT_EQ(log % kRecord, 0u) << "round " << round;
      EXPECT_LE(log, 2 * live + kRecord) << "round " << round;
    }
    const DurabilityStats stats = adaptive->durability_stats();
    EXPECT_GE(stats.manifest_writes, writes + 2) << "the 2x rule never fired";
    EXPECT_EQ(stats.manifest_write_failures, 0u);
    before = StateOf(*adaptive);
  }
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  EXPECT_EQ(StateOf(*reopened_r->get()), before);
  EXPECT_FALSE(reopened_r->get()->durability_stats().manifest_stale);
}

TEST(DurableColumnTest, InMemoryColumnsReportNoDurability) {
  auto column_r = MakeColumn(SineSpec(), TestPages() * kValuesPerPage);
  ASSERT_TRUE(column_r.ok());
  auto adaptive_r = Db::Create(std::move(column_r).ValueOrDie(), {});
  ASSERT_TRUE(adaptive_r.ok());
  EXPECT_FALSE((*adaptive_r)->is_durable());
  EXPECT_TRUE((*adaptive_r)->Checkpoint().ok());  // documented no-op
  EXPECT_EQ((*adaptive_r)->Durability().manifest_writes, 0u);
}

}  // namespace
}  // namespace vmsv
