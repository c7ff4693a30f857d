// Durable-backend test suite: journal round-trip + idempotent replay, the
// manifest header and its two pool slots (hostile, torn and older-layout
// input included), file-backed memory files, and the acceptance contract —
// a restart round-trip whose post-reopen scans are bit-identical to the
// pre-restart execution (ARCHITECTURE.md "Durability model").

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <memory>
#include <optional>
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
// CRC-32 (the journal, the manifest header and its slots all frame with it)

/// The bitwise reflected CRC-32 the table-driven one must equal bit for
/// bit: every journal written before the table version still has to
/// verify. Returns the register before the final
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
// Manifest: the geometry header and the pool slots

/// Flips one byte of `path` at `offset`.
void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5A;
  f.seekp(offset);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good()) << path;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The newest valid pool in `dir`'s slots (nullopt when neither is valid).
std::optional<ManifestPool> NewestPool(const std::string& dir) {
  auto opened = ManifestSlots::Open(dir, /*create=*/false);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? opened->pool : std::nullopt;
}

TEST(ManifestTest, HeaderRoundTripAndCorruptionIsDetected) {
  ScratchDir scratch("manifest_header");
  EXPECT_EQ(ReadManifestHeader(scratch.path()).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(
      WriteManifestHeader(scratch.path(), ManifestHeader{12345, 25}).ok());
  EXPECT_EQ(fs::file_size(ManifestPath(scratch.path())), 36u);
  auto read_r = ReadManifestHeader(scratch.path());
  ASSERT_TRUE(read_r.ok()) << read_r.status().ToString();
  EXPECT_EQ(read_r->num_rows, 12345u);
  EXPECT_EQ(read_r->num_pages, 25u);
  FlipByte(ManifestPath(scratch.path()), 20);  // inside num_rows
  EXPECT_EQ(ReadManifestHeader(scratch.path()).status().code(),
            StatusCode::kIoError);
}

TEST(ManifestTest, SlotsAlternateAndBadSlotsAreSkipped) {
  ScratchDir scratch("manifest_slots");
  const std::string dir = scratch.path();
  const std::vector<ManifestView> first{{100, 200, 25}, {0, 50, 10}};
  const std::vector<ManifestView> second{{100, 300, 25}};
  {
    auto opened = ManifestSlots::Open(dir, /*create=*/true);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_FALSE(opened->pool.has_value());
    ASSERT_TRUE(opened->slots->Write(first, /*sync=*/true).ok());
    ASSERT_TRUE(opened->slots->Write(second, /*sync=*/true).ok());
  }
  // Slot 0 holds the first pool, slot 1 the second; a record is 24 bytes
  // of head, 32 per view and a 4-byte crc.
  EXPECT_EQ(ManifestSlotBytes(2), 24u + 2 * 32u + 4u);
  EXPECT_EQ(fs::file_size(ManifestSlotPath(dir, 0)), ManifestSlotBytes(2));
  EXPECT_EQ(fs::file_size(ManifestSlotPath(dir, 1)), ManifestSlotBytes(1));
  std::optional<ManifestPool> pool = NewestPool(dir);
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->seq, 2u);
  ASSERT_EQ(pool->views.size(), 1u);
  EXPECT_EQ(pool->views[0].hi, 300u);
  EXPECT_EQ(pool->views[0].creation_scanned_pages, 25u);

  // The next write goes into the older slot, over a longer record whose
  // tail stays behind the new crc and is ignored.
  {
    auto opened = ManifestSlots::Open(dir, /*create=*/false);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened->slots->Write(second, /*sync=*/false).ok());
  }
  EXPECT_EQ(fs::file_size(ManifestSlotPath(dir, 0)), ManifestSlotBytes(2));
  pool = NewestPool(dir);
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->seq, 3u);
  EXPECT_EQ(pool->views.size(), 1u);

  // A bad crc in the newer slot: the older one is restored.
  FlipByte(ManifestSlotPath(dir, 0), 30);
  pool = NewestPool(dir);
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->seq, 2u);

  // A record decodes; a bad crc, length or magic does not.
  const std::string good = EncodeManifestPool(7, first);
  ASSERT_EQ(good.size(), ManifestSlotBytes(2));
  const std::optional<ManifestPool> decoded = DecodeManifestPool(good);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 7u);
  ASSERT_EQ(decoded->views.size(), 2u);
  EXPECT_EQ(decoded->views[0].lo, 100u);
  EXPECT_EQ(decoded->views[1].hi, 50u);
  EXPECT_EQ(decoded->views[1].creation_scanned_pages, 10u);
  std::string bad_crc = good;
  bad_crc[40] ^= 0x5A;
  EXPECT_FALSE(DecodeManifestPool(bad_crc).has_value());
  EXPECT_FALSE(DecodeManifestPool(good.substr(0, good.size() - 1)).has_value());
  EXPECT_FALSE(DecodeManifestPool(good.substr(0, 20)).has_value());
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeManifestPool(bad_magic).has_value());
}

TEST(ManifestTest, HostileCountsFailInsteadOfAllocating) {
  // A crafted slot with a valid CRC but an absurd view count must be
  // skipped — never bad_alloc/abort. (The CRC guards corruption, not
  // malice, so the bound has to stand on its own.)
  std::string buf("VMSVPOOL", 8);
  auto put64 = [&buf](uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), 8);
  };
  put64(9);                  // sequence
  put64(uint64_t{1} << 59);  // view count: overflows naive size math
  for (int field = 0; field < 4; ++field) put64(1);  // one view's worth
  const uint32_t crc = Crc32(buf.data(), buf.size());
  buf.append(reinterpret_cast<const char*>(&crc), 4);
  EXPECT_FALSE(DecodeManifestPool(buf).has_value());

  // On disk, as the newer slot beside a valid one: the valid one wins.
  ScratchDir scratch("manifest_hostile");
  {
    auto opened = ManifestSlots::Open(scratch.path(), /*create=*/true);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened->slots->Write({{1, 2, 3}}, /*sync=*/false).ok());
  }
  WriteFile(ManifestSlotPath(scratch.path(), 1), buf);
  const std::optional<ManifestPool> pool = NewestPool(scratch.path());
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->seq, 1u);
  EXPECT_EQ(pool->views.size(), 1u);
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
  // Under kAsync a checkpoint starts the column data's writeback with one
  // sync_file_range, and nothing else issues one (the workload makes no
  // updates, so no flush runs): the count is the runner's checkpoints.
  const auto queries = TestQueries(12, 9);
  for (const uint64_t every : {uint64_t{0}, uint64_t{4}}) {
    SCOPED_TRACE("checkpoint_every=" + std::to_string(every));
    ScratchDir scratch("durable_runner");
    FaultInjectingIo io;  // no fault plan: counts real I/O
    AdaptiveConfig config;
    config.storage.data_flush = FlushPolicy::kAsync;
    config.storage.io = &io;
    auto adaptive = MakeDurable(scratch.path(), config);
    const uint64_t before = io.stats().sync_file_ranges;
    RunnerOptions options;
    options.run_baseline = false;
    options.verify_results = true;
    options.checkpoint_every = every;
    auto report_r = RunWorkload(adaptive.table.get(), queries, options);
    ASSERT_TRUE(report_r.ok()) << report_r.status().ToString();
    EXPECT_EQ(io.stats().sync_file_ranges - before,
              every == 0 ? 0u : queries.size() / every);
    // The pool stayed clean, so the checkpoints wrote no slot: every slot
    // write is a pool edit's, and the newest slot holds the live pool.
    const DurabilityStats stats = adaptive->durability_stats();
    EXPECT_GT(stats.manifest_writes, 0u);
    EXPECT_EQ(stats.manifest_delta_appends, stats.manifest_writes);
    const std::optional<ManifestPool> pool = NewestPool(scratch.path());
    ASSERT_TRUE(pool.has_value());
    EXPECT_EQ(pool->views.size(), adaptive->view_index().num_partial_views());
  }
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
  EXPECT_TRUE(adaptive->Checkpoint().ok());  // the winner still checkpoints
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
// Pool slots end to end

TEST(DurableColumnTest, EveryPoolEditWritesOneSlot) {
  ScratchDir scratch("durable_slots");
  AdaptiveConfig config;
  config.max_views = 32;
  auto adaptive = MakeDurable(scratch.path(), config);
  // Create writes the geometry header and leaves both slots empty.
  EXPECT_EQ(adaptive->durability_stats().manifest_writes, 0u);
  EXPECT_FALSE(NewestPool(scratch.path()).has_value());
  ExecuteAll(adaptive.get(), TestQueries(10, 13));
  const DurabilityStats stats = adaptive->durability_stats();
  EXPECT_GT(stats.manifest_writes, 0u);
  EXPECT_EQ(stats.manifest_delta_appends, stats.manifest_writes)
      << "every slot write came from a pool edit";
  EXPECT_EQ(stats.manifest_write_failures, 0u);
  EXPECT_FALSE(stats.manifest_dirty);
  // The newest slot holds the whole live pool, at the last sequence.
  std::optional<ManifestPool> pool = NewestPool(scratch.path());
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->seq, stats.manifest_writes);
  EXPECT_EQ(pool->views.size(), adaptive->view_index().num_partial_views());
  // A checkpoint of a clean pool writes no slot.
  ASSERT_TRUE(adaptive->Checkpoint().ok());
  EXPECT_EQ(adaptive->durability_stats().manifest_writes, stats.manifest_writes);
}

TEST(DurableColumnTest, KillBeforeCheckpointRestoresViewsFromSlots) {
  ScratchDir scratch("durable_slotrec");
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
  }  // kill WITHOUT checkpoint: the slots alone hold the pool
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->durability_stats().views_restored, views_before)
      << "every adapted view must come back from the newest slot";
  EXPECT_FALSE(reopened->durability_stats().manifest_dirty);
  const std::vector<QueryResult> after = ExecuteAll(reopened.get(), queries);
  EXPECT_EQ(after, before);
  EXPECT_EQ(reopened->metrics().views_created, 0u)
      << "covered queries should hit restored views, not rebuild them";
}

/// The pool as recovery must reproduce it: (lo, hi, sorted pages) per view,
/// sorted. Slot order is left out on purpose: recovery installs derived
/// pages in page order, and the order only shapes the first
/// materialization's mmap runs.
using PoolState = std::vector<std::tuple<Value, Value, std::vector<uint64_t>>>;

PoolState StateOf(const AdaptiveColumn& adaptive) {
  PoolState state;
  for (const auto& view : adaptive.view_index().views()) {
    std::vector<uint64_t> pages = view->physical_pages();
    std::sort(pages.begin(), pages.end());
    state.emplace_back(view->lo(), view->hi(), std::move(pages));
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
/// first in pool order that holds them all (PartialViewIndex::Admit's rule
/// with discard_tolerance 0).
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

// The slots recover every pool edit adaptation makes — a widened range, and
// a discard that edits nothing — with no write after the adaptation's
// checkpoint but the widening's. A flush that adds and removes pages writes
// nothing: recovery derives the moved pages from the data. (The discards
// run before the updates: a query flushes pending updates first.)
TEST(DurableColumnTest, FlushWritesNoSlotAndRecoveryDerivesPages) {
  ScratchDir scratch("durable_pagemoves");
  AdaptiveConfig config;
  config.max_views = 32;
  PoolState before;
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    ExecuteAll(adaptive.get(), TestQueries(10, 13));  // adapt
    ASSERT_TRUE(adaptive->Checkpoint().ok());
    ASSERT_GE(adaptive->view_index().num_partial_views(), 2u);

    // A discard that widens a range writes the pool once.
    RangeQuery widen;
    ASSERT_TRUE(FindWideningDiscard(*adaptive, &widen));
    uint64_t writes = adaptive->durability_stats().manifest_writes;
    auto exec = adaptive->Execute(widen);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
    const VirtualView* widened =
        adaptive->view_index().FindSmallestCovering(widen);
    ASSERT_NE(widened, nullptr) << "the discard widened no range";
    EXPECT_EQ(widened->hi(), widen.hi);
    EXPECT_EQ(adaptive->durability_stats().manifest_writes, writes + 1);
    EXPECT_FALSE(adaptive->durability_stats().manifest_dirty);

    // A discard that widens nothing writes nothing and stays clean.
    RangeQuery plain;
    ASSERT_TRUE(FindNonWideningDiscard(*adaptive, &plain));
    const PoolState shape = StateOf(*adaptive);
    writes = adaptive->durability_stats().manifest_writes;
    exec = adaptive->Execute(plain);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
    EXPECT_EQ(StateOf(*adaptive), shape);
    EXPECT_EQ(adaptive->durability_stats().manifest_writes, writes);
    EXPECT_FALSE(adaptive->durability_stats().manifest_dirty);

    // One update adds a page to view A; others remove page q from a second
    // view B by moving every value of q in B's range out of the domain.
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

    // The flush moves both pages and writes no slot.
    auto flushed = adaptive->FlushUpdates();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    EXPECT_TRUE(a->ContainsPage(added));
    EXPECT_FALSE(b->ContainsPage(removed));
    const DurabilityStats stats = adaptive->durability_stats();
    EXPECT_EQ(stats.manifest_writes, writes);
    EXPECT_FALSE(stats.manifest_dirty);
    EXPECT_EQ(stats.manifest_write_failures, 0u);
    before = StateOf(*adaptive);
  }  // kill WITHOUT a checkpoint: the slots only

  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->durability_stats().journal_replayed, 0u)
      << "the flush reset the journal; the slots alone must recover";
  EXPECT_EQ(StateOf(*reopened), before);
  for (const auto& view : reopened->view_index().views()) {
    EXPECT_EQ(view->physical_pages(),
              PagesHolding(reopened->column(), view->value_range()))
        << "view [" << view->lo() << ", " << view->hi() << "]";
  }
  EXPECT_FALSE(reopened->durability_stats().manifest_dirty);
  // Queries strictly inside each restored view agree with full scans.
  std::vector<RangeQuery> inner;
  for (const auto& view : reopened->view_index().views()) {
    const Value width = view->hi() - view->lo();
    inner.push_back({view->lo() + width / 3, view->hi() - width / 3});
  }
  EXPECT_EQ(ExecuteAll(reopened.get(), inner), FullScanAll(reopened.get(), inner));
  EXPECT_EQ(reopened->metrics().views_created, 0u);
  reopened.reset();
  auto again_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(again_r.ok()) << again_r.status().ToString();
  EXPECT_EQ(StateOf(*again_r->get()), before);
}

// A torn newer slot (a crash mid-write) reopens the pool of the write
// before it, with every view's pages derived.
TEST(DurableColumnTest, TornNewerSlotReopensOlderPool) {
  ScratchDir scratch("durable_torn_slot");
  AdaptiveConfig config;
  config.max_views = 32;
  const auto queries = TestQueries(10, 19);
  std::vector<std::vector<std::pair<Value, Value>>> pools;  // per write
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    for (const RangeQuery& q : queries) {
      const uint64_t writes = adaptive->durability_stats().manifest_writes;
      ExecuteAll(adaptive.get(), {q});
      if (adaptive->durability_stats().manifest_writes == writes) continue;
      std::vector<std::pair<Value, Value>> ranges;
      for (const auto& view : adaptive->view_index().views()) {
        ranges.emplace_back(view->lo(), view->hi());
      }
      std::sort(ranges.begin(), ranges.end());
      pools.push_back(std::move(ranges));
    }
    ASSERT_GE(pools.size(), 2u);
    ASSERT_EQ(adaptive->durability_stats().manifest_writes, pools.size());
  }  // kill
  // Slots alternate from slot 0, so write n landed in slot (n - 1) % 2.
  FlipByte(ManifestSlotPath(scratch.path(), (pools.size() - 1) % 2), 40);
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  std::vector<std::pair<Value, Value>> ranges;
  for (const auto& view : reopened->view_index().views()) {
    ranges.emplace_back(view->lo(), view->hi());
    EXPECT_EQ(view->physical_pages(),
              PagesHolding(reopened->column(), view->value_range()));
  }
  std::sort(ranges.begin(), ranges.end());
  EXPECT_EQ(ranges, pools[pools.size() - 2]);
  EXPECT_EQ(ExecuteAll(reopened.get(), queries),
            FullScanAll(reopened.get(), queries));
}

// With both slots torn the pool is lost, never the column: an empty pool
// reopens marked dirty, queries re-adapt, and every answer equals a full
// scan.
TEST(DurableColumnTest, TwoTornSlotsReopenEmptyDirtyPool) {
  ScratchDir scratch("durable_torn_slots");
  AdaptiveConfig config;
  config.max_views = 32;
  const auto queries = TestQueries(10, 19);
  {
    auto adaptive = MakeDurable(scratch.path(), config);
    ExecuteAll(adaptive.get(), queries);
    ASSERT_GE(adaptive->durability_stats().manifest_writes, 2u);
  }  // kill
  FlipByte(ManifestSlotPath(scratch.path(), 0), 40);
  FlipByte(ManifestSlotPath(scratch.path(), 1), 40);
  auto reopened_r = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->view_index().num_partial_views(), 0u);
  EXPECT_TRUE(reopened->durability_stats().manifest_dirty);
  // The first checkpoint writes the (empty) pool and clears the bit.
  ASSERT_TRUE(reopened->Checkpoint().ok());
  EXPECT_FALSE(reopened->durability_stats().manifest_dirty);
  EXPECT_EQ(reopened->durability_stats().manifest_writes, 1u);
  EXPECT_EQ(ExecuteAll(reopened.get(), queries),
            FullScanAll(reopened.get(), queries));
  EXPECT_GT(reopened->view_index().num_partial_views(), 0u);
}

TEST(DurableColumnTest, HeaderGeometryMismatchIsIoError) {
  ScratchDir scratch("durable_geometry");
  {
    auto adaptive = MakeDurable(scratch.path());
    ASSERT_TRUE(adaptive->Checkpoint().ok());
  }
  const uint64_t rows = TestPages() * kValuesPerPage;
  ASSERT_TRUE(WriteManifestHeader(scratch.path(),
                                  ManifestHeader{rows + kValuesPerPage,
                                                 TestPages() + 1})
                  .ok());
  EXPECT_EQ(OpenColumn(scratch.path(), {}).status().code(),
            StatusCode::kIoError);
}

// A directory in the layout before the slots — a v3 MANIFEST snapshot and
// a MANIFEST.delta log beside it — is refused, naming its version.
TEST(DurableColumnTest, OlderLayoutIsRefusedNamingItsVersion) {
  ScratchDir scratch("durable_v3");
  std::string base("VMSVMAN1", 8);
  auto put32 = [&base](uint32_t v) {
    base.append(reinterpret_cast<const char*>(&v), 4);
  };
  auto put64 = [&base](uint64_t v) {
    base.append(reinterpret_cast<const char*>(&v), 8);
  };
  put32(3);  // version
  put32(0);  // reserved
  put64(TestPages() * kValuesPerPage);  // num_rows
  put64(TestPages());                   // num_pages
  put64(0);                             // pool_generation
  put64(1);                             // epoch
  put64(1);                             // next_view_id
  put64(0);                             // view count
  put32(Crc32(base.data(), base.size()));
  WriteFile(ManifestPath(scratch.path()), base);
  WriteFile(scratch.path() + "/MANIFEST.delta", "VMSVMDL1");
  const Status opened = OpenColumn(scratch.path(), {}).status();
  EXPECT_EQ(opened.code(), StatusCode::kIoError);
  EXPECT_NE(opened.message().find("version 3"), std::string::npos)
      << opened.ToString();
}

TEST(DurableColumnTest, InMemoryColumnsReportNoDurability) {
  auto column_r = MakeColumn(SineSpec(), TestPages() * kValuesPerPage);
  ASSERT_TRUE(column_r.ok());
  auto adaptive_r = Db::Create(std::move(column_r).ValueOrDie(), {});
  ASSERT_TRUE(adaptive_r.ok());
  EXPECT_FALSE((*adaptive_r)->is_durable());
  EXPECT_TRUE((*adaptive_r)->Checkpoint().ok());  // writes nothing durable
  EXPECT_EQ((*adaptive_r)->Durability().manifest_writes, 0u);
}

// A table loaded row by row through mutable_column() and then checkpointed,
// as perfbench's serve_rw loads its durable table: Set leaves every zone of
// the zeroed file at [0, page max], and Checkpoint must make them exact, or
// every range's miss reads every page whose max reaches it.
TEST(DurableColumnTest, CheckpointTightensZonesOfARowByRowLoad) {
  ScratchDir scratch("durable_row_load");
  constexpr uint64_t kPages = 1024;
  const uint64_t rows = kPages * kValuesPerPage;
  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.cost_based_routing = true;
  auto table_r = Db::CreateDurable(scratch.path(), rows, DbOptions{config});
  ASSERT_TRUE(table_r.ok()) << table_r.status().ToString();
  OwnedColumn adaptive{std::move(table_r).ValueOrDie()};
  const ValueGenerator value_of(SineSpec(), rows);
  for (uint64_t row = 0; row < rows; ++row) {
    adaptive->mutable_column()->Set(row, value_of(row));
  }
  ASSERT_TRUE(adaptive->Checkpoint().ok());

  const auto expect_exact_zones = [](const PhysicalColumn& column) {
    EXPECT_TRUE(column.LoosePages().empty());
    for (uint64_t page = 0; page < column.num_pages(); ++page) {
      const PageZone exact =
          ComputePageZone(column.PageData(page), kValuesPerPage);
      ASSERT_EQ(column.zones()[page].min, exact.min) << page;
      ASSERT_EQ(column.zones()[page].max, exact.max) << page;
    }
  };
  expect_exact_zones(adaptive->column());

  // serve_rw's fixed ranges: 1% wide, one centred in each 1/32 of the
  // domain.
  std::vector<RangeQuery> ranges;
  for (Value i = 0; i < 32; ++i) {
    const Value centre = (2 * i + 1) * kMaxValue / 64;
    ranges.push_back({centre - kMaxValue / 200, centre + kMaxValue / 200});
  }
  for (size_t r = 0; r < ranges.size(); ++r) {
    const PhysicalColumn& column = adaptive->column();
    uint64_t meeting = 0;
    uint64_t meeting_exact = 0;
    for (uint64_t page = 0; page < kPages; ++page) {
      const PageZone exact =
          ComputePageZone(column.PageData(page), kValuesPerPage);
      meeting += column.zones()[page].Intersects(ranges[r]) ? 1 : 0;
      meeting_exact += exact.Intersects(ranges[r]) ? 1 : 0;
    }
    EXPECT_EQ(meeting, meeting_exact) << "range " << r;
    EXPECT_LT(meeting, kPages) << "range " << r;
  }
  EXPECT_EQ(ExecuteAll(adaptive.get(), ranges),
            FullScanAll(adaptive.get(), ranges));

  adaptive.reset();
  auto reopened = OpenColumn(scratch.path(), config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  expect_exact_zones((*reopened)->column());
  EXPECT_EQ(ExecuteAll(reopened->get(), ranges),
            FullScanAll(reopened->get(), ranges));
}

}  // namespace
}  // namespace vmsv
