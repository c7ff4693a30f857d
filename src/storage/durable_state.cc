#include "storage/durable_state.h"

#include <filesystem>
#include <utility>

#include "rewiring/physical_memory_file.h"
#include "storage/storage_io.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace vmsv {

DurableState::DurableState(const StorageConfig& storage, StorageIo* io,
                           std::shared_ptr<PhysicalMemoryFile> file)
    : io_(io), file_(std::move(file)), data_flush_(storage.data_flush),
      sync_(storage.data_flush == FlushPolicy::kSync),
      group_commit_batch_(storage.group_commit_batch) {}

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
  // lock, and everything after this point may MUTATE durable state (replay
  // writes cells; create truncates the slots and column.dat). A second
  // Open of a live column — or two racing creates, the loser of which
  // would otherwise O_TRUNC the winner's column.dat — must fail before
  // touching any of that.
  auto journal_r = WriteAheadJournal::Open(dir + "/journal.wal", io);
  if (!journal_r.ok()) return journal_r.status();
  JournalOpenResult journal = std::move(journal_r).ValueOrDie();

  ManifestHeader header;
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
    header.num_rows = *create_rows;
    header.num_pages = (*create_rows + kValuesPerPage - 1) / kValuesPerPage;
  } else {
    auto header_r = ReadManifestHeader(dir);
    if (!header_r.ok()) return header_r.status();
    header = *header_r;
  }
  auto slots = ManifestSlots::Open(dir, create, io);
  if (!slots.ok()) return slots.status();

  const std::string data_path = dir + "/column.dat";
  auto file_r = create ? PhysicalMemoryFile::CreateAt(data_path, header.num_pages)
                       : PhysicalMemoryFile::OpenAt(data_path, header.num_pages);
  if (!file_r.ok()) {
    // A header whose geometry disagrees with column.dat: a corrupt
    // directory, not a caller's mistake.
    if (file_r.status().code() == StatusCode::kFailedPrecondition) {
      return IoError(file_r.status().message());
    }
    return file_r.status();
  }
  auto file =
      std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto column_r = PhysicalColumn::Attach(file, header.num_rows);
  if (!column_r.ok()) return column_r.status();

  Opened out;
  out.column = std::move(column_r).ValueOrDie();
  out.state = std::unique_ptr<DurableState>(
      new DurableState(storage, io, std::move(file)));
  DurableState& state = *out.state;
  state.journal_ = std::move(journal.journal);
  state.slots_ = std::move(slots->slots);
  if (create) {
    // The header goes last, so a directory is a column exactly when it
    // exists. Under kSync the directory fsync makes the new files' entries
    // survive power loss too.
    VMSV_RETURN_IF_ERROR(WriteManifestHeader(dir, header, io));
    if (state.sync_) VMSV_RETURN_IF_ERROR(io->FsyncDir(dir));
    return out;
  }
  state.stats_.journal_tail_truncated = journal.tail_truncated;
  // Neither slot valid: the pool is lost, so an empty pool reopens and the
  // next flush or checkpoint writes it.
  if (slots->pool.has_value()) {
    out.views = std::move(slots->pool->views);
  } else {
    state.MarkDirty();
  }

  // Journal replay: re-apply every journaled value (idempotent — absolute
  // values). The RECORDED old values feed the engine's net-effect
  // filtering; the current cell already holds the new value after the Set
  // below (or after a previous replay), so re-reading it would drop the
  // record as a no-op.
  for (const RowUpdate& update : journal.replayed) {
    if (update.row >= header.num_rows) {
      return IoError("journal record for row " + std::to_string(update.row) +
                     " beyond column (" + std::to_string(header.num_rows) +
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
  if (restored < recovered) MarkDirty();
}

void DurableState::PersistPool(const PoolRecords& pool) {
  if (WritePool(pool).ok()) ++stats_.manifest_delta_appends;
}

Status DurableState::Checkpoint(const PoolRecords& pool) {
  if (data_flush_ != FlushPolicy::kNone) {
    VMSV_RETURN_IF_ERROR(file_->Sync(/*wait=*/sync_, io_));
  }
  if (journal_->record_count() > 0) {
    VMSV_RETURN_IF_ERROR(journal_->Reset());
  }
  return dirty() ? WritePool(pool) : OkStatus();
}

Status DurableState::WritePool(const PoolRecords& pool) {
  dirty_.store(false, std::memory_order_release);
  const Status written = slots_->Write(pool(), sync_);
  if (!written.ok()) {
    MarkDirty();
    ++stats_.manifest_write_failures;
    return written;
  }
  ++stats_.manifest_writes;
  return OkStatus();
}

DurabilityStats DurableState::stats() const {
  DurabilityStats stats = stats_;
  stats.journal_appended_lsn = journal_->appended_lsn();
  stats.journal_durable_lsn = journal_->durable_lsn();
  stats.journal_group_commits = journal_->group_commits();
  stats.manifest_dirty = dirty();
  return stats;
}

}  // namespace vmsv
