#include "storage/durable_state.h"

#include <filesystem>
#include <utility>

#include "rewiring/physical_memory_file.h"
#include "storage/storage_io.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace vmsv {

DurableState::DurableState(std::string dir, const StorageConfig& storage,
                           StorageIo* io,
                           std::shared_ptr<PhysicalMemoryFile> file,
                           uint64_t num_rows, uint64_t num_pages)
    : dir_(std::move(dir)), io_(io), file_(std::move(file)),
      data_flush_(storage.data_flush),
      sync_(storage.data_flush == FlushPolicy::kSync),
      group_commit_batch_(storage.group_commit_batch), num_rows_(num_rows),
      num_pages_(num_pages) {}

DurableState::~DurableState() = default;

StatusOr<DurableState::Opened> DurableState::Open(
    const std::string& dir, const StorageConfig& storage,
    std::optional<uint64_t> create_rows) {
  const bool create = create_rows.has_value();
  if (dir.empty()) {
    return InvalidArgument(create ? "CreateDurable needs a directory"
                                  : "Open needs a directory");
  }
  StorageIo* io = storage.io != nullptr ? storage.io : RealStorageIo();
  Stopwatch recover_timer;
  if (create) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return IoError("create_directories " + dir + ": " + ec.message());
  } else if (!std::filesystem::exists(ManifestPath(dir))) {
    // The NotFound contract (no column here) is decided on the manifest;
    // check it before the journal open below creates journal.wal in a
    // directory that never held a column.
    return NotFound("no manifest at " + ManifestPath(dir));
  }
  // Journal open FIRST: its flock is the column directory's single-writer
  // lock, and everything after this point may MUTATE durable state (the
  // delta log truncates torn tails at open; replay writes cells; create
  // truncates column.dat). A second Open of a live column — or two racing
  // creates, the loser of which would otherwise O_TRUNC the winner's
  // column.dat — must fail before touching any of that.
  auto journal_r = WriteAheadJournal::Open(dir + "/journal.wal", io);
  if (!journal_r.ok()) return journal_r.status();
  JournalOpenResult journal = std::move(journal_r).ValueOrDie();

  ViewManifest manifest;
  if (create) {
    if (std::filesystem::exists(ManifestPath(dir))) {
      return FailedPrecondition(dir + " already holds a column (use Open)");
    }
    // A leftover journal (e.g. the user removed a corrupt MANIFEST to start
    // over) must not leak records into the fresh column: a kill before the
    // first checkpoint would replay the previous incarnation's values onto
    // the new data. Drop them now.
    if (journal.journal->record_count() > 0) {
      VMSV_RETURN_IF_ERROR(journal.journal->Reset());
    }
    manifest.num_rows = *create_rows;
    manifest.num_pages = (*create_rows + kValuesPerPage - 1) / kValuesPerPage;
  } else {
    auto manifest_r = ReadManifest(dir);
    if (!manifest_r.ok()) return manifest_r.status();
    manifest = std::move(manifest_r).ValueOrDie();
  }
  // The incremental half of the manifest. Open composes base snapshot +
  // every delta stamped with its epoch, in append order; create drops a
  // leftover log (recovery would epoch-filter it away, but stale records
  // should not linger).
  auto delta_r = ManifestDeltaLog::Open(dir, io);
  if (!delta_r.ok()) return delta_r.status();
  ManifestDeltaLog::OpenResult delta = std::move(delta_r).ValueOrDie();
  uint64_t deltas_applied = 0;
  if (create) {
    if (delta.log->record_count() > 0) {
      VMSV_RETURN_IF_ERROR(delta.log->Reset());
    }
  } else {
    deltas_applied = ApplyManifestDeltas(&manifest, delta.replayed);
  }

  const std::string data_path = dir + "/column.dat";
  const uint64_t pages = manifest.num_pages;
  auto file_r = create ? PhysicalMemoryFile::CreateAt(data_path, pages)
                       : PhysicalMemoryFile::OpenAt(data_path, pages);
  if (!file_r.ok()) return file_r.status();
  auto file =
      std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto column_r = PhysicalColumn::Attach(file, manifest.num_rows);
  if (!column_r.ok()) return column_r.status();

  Opened out;
  out.column = std::move(column_r).ValueOrDie();
  out.state = std::unique_ptr<DurableState>(
      new DurableState(dir, storage, io, std::move(file), manifest.num_rows,
                       manifest.num_pages));
  DurableState& state = *out.state;
  state.journal_ = std::move(journal.journal);
  state.delta_log_ = std::move(delta.log);
  state.epoch_ = manifest.epoch;
  state.next_view_id_ = manifest.next_view_id;
  if (create) {
    VMSV_RETURN_IF_ERROR(state.WriteSnapshot({}));
    return out;
  }
  state.stats_.manifest_deltas_replayed = deltas_applied;
  state.stats_.manifest_delta_tail_truncated = delta.tail_truncated;
  state.stats_.journal_tail_truncated = journal.tail_truncated;

  // The composed views go to the engine as ranges; it derives their pages.
  // Keep each persisted identity so post-restart delta records keep
  // addressing the view; an entry without one gets a fresh id.
  for (ManifestView& view : manifest.views) {
    if (view.id == 0) view.id = state.next_view_id_;
    if (view.id >= state.next_view_id_) state.next_view_id_ = view.id + 1;
  }
  out.views = std::move(manifest.views);

  // Journal replay: re-apply every journaled value (idempotent — absolute
  // values). The RECORDED old values feed the engine's net-effect
  // filtering; the current cell already holds the new value after the Set
  // below (or after a previous replay), so re-reading it would drop the
  // record as a no-op.
  for (const RowUpdate& update : journal.replayed) {
    if (update.row >= manifest.num_rows) {
      return IoError("journal record for row " + std::to_string(update.row) +
                     " beyond column (" + std::to_string(manifest.num_rows) +
                     " rows)");
    }
    out.column->Set(update.row, update.new_value);
    out.replayed.Add(update);
    ++state.stats_.journal_replayed;
  }
  state.stats_.open_recover_ms = recover_timer.ElapsedMillis();
  return out;
}

Status DurableState::AppendUpdate(const RowUpdate& update, uint64_t* ack_lsn) {
  VMSV_RETURN_IF_ERROR(journal_->Append(update, /*sync=*/false));
  ++stats_.journal_appends;
  const uint64_t lsn = journal_->appended_lsn();  // this record's own LSN
  *ack_lsn = group_commit_batch_ > 0 && lsn % group_commit_batch_ == 0 ? lsn
                                                                       : 0;
  return OkStatus();
}

void DurableState::NoteRestored(uint64_t restored, uint64_t recovered,
                                double derive_ms) {
  stats_.views_restored = restored;
  stats_.open_recover_ms += derive_ms;
  if (restored < recovered) MarkStale();
}

void DurableState::AppendDeltas(std::vector<ManifestDelta> records) {
  bool ok = true;
  uint64_t appended = 0;
  for (ManifestDelta& record : records) {
    // A view without an id was never persisted; only its upsert can name it.
    if (record.view.id == 0 && record.op != ManifestDeltaOp::kUpsertView) {
      continue;
    }
    record.epoch = epoch_;
    ok = delta_log_->Append(record).ok();
    if (!ok) break;
    ++appended;
  }
  if (ok && appended > 0 && sync_) ok = delta_log_->Sync().ok();
  stats_.manifest_delta_appends += appended;
  if (!ok) {
    MarkStale();
    ++stats_.manifest_write_failures;
  }
}

Status DurableState::Checkpoint(CheckpointKind kind, const Pool& pool) {
  if (data_flush_ != FlushPolicy::kNone) {
    VMSV_RETURN_IF_ERROR(file_->Sync(/*wait=*/sync_, io_));
  }
  // A flush snapshots only once the log holds more garbage than live
  // state (twice a snapshot's size); that bounds what recovery reads and
  // what the log makes the disk write per pool edit. Clear the stale flag
  // BEFORE reading the pool: a reader promotion that races the snapshot
  // re-marks it, and the next checkpoint picks it up.
  bool snapshot =
      stale_.exchange(false, std::memory_order_acq_rel) ||
      (kind == CheckpointKind::kCompact
           ? delta_log_->record_count() > 0
           : delta_log_->bytes() > 2 * ManifestSnapshotBytes(pool.views));
  // Without a snapshot the journal reset below destroys the only other
  // record of what the deltas say, so unsynced records are fsynced first
  // under every policy: a write the device acknowledged but dropped must
  // be caught while the journal still holds the batch. A failed sync
  // leaves the log's content unknown, so this checkpoint snapshots.
  if (!snapshot && delta_log_->unsynced() && !delta_log_->Sync().ok()) {
    ++stats_.manifest_write_failures;
    snapshot = true;
  }
  if (snapshot) {
    const Status written = WriteSnapshot(pool.records());
    if (!written.ok()) {
      stale_.store(true, std::memory_order_release);
      return written;
    }
  }
  if (journal_->record_count() > 0) {
    VMSV_RETURN_IF_ERROR(journal_->Reset());
  }
  return OkStatus();
}

Status DurableState::WriteSnapshot(std::vector<ManifestView> views) {
  ViewManifest manifest;
  manifest.num_rows = num_rows_;
  manifest.num_pages = num_pages_;
  manifest.pool_generation = stats_.manifest_writes;
  // Each base snapshot opens a fresh delta epoch: records appended after it
  // are stamped with the new epoch, and records from before it (which this
  // snapshot subsumes) are epoch-filtered away even if the Reset below
  // never lands.
  manifest.epoch = epoch_ + 1;
  manifest.next_view_id = next_view_id_;
  manifest.views = std::move(views);
  VMSV_RETURN_IF_ERROR(WriteManifest(dir_, manifest, sync_, io_));
  epoch_ = manifest.epoch;
  ++stats_.manifest_writes;
  // Compaction: the snapshot covers everything the delta log said. A failed
  // reset is SOFT — the stale records carry a previous epoch, so recovery
  // skips them; the next snapshot retries the truncate.
  if (!delta_log_->empty() && !delta_log_->Reset().ok()) {
    ++stats_.manifest_write_failures;
  }
  return OkStatus();
}

DurabilityStats DurableState::stats() const {
  DurabilityStats stats = stats_;
  stats.journal_appended_lsn = journal_->appended_lsn();
  stats.journal_durable_lsn = journal_->durable_lsn();
  stats.journal_group_commits = journal_->group_commits();
  stats.manifest_stale = stale();
  return stats;
}

}  // namespace vmsv
