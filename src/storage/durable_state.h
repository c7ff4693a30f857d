// DurableState — the one owner of a persisted column's durable state
// (ARCHITECTURE.md "Durability model"): journal, manifest snapshot and
// delta log, the checkpoint sequence, and the open/create of the column
// directory. Every StorageIo operation a column issues runs here. The
// split is policy / backing driver, as in a SunOS-style VMM: the adaptive
// layer decides what the view pool looks like and hands each edit over as
// ordered manifest delta records; this class only makes them durable, and
// includes nothing from src/core/.
//
// The manifest records every view, hot or demoted, as its range, creation
// cost and tier; membership is derived by the engine on open, so it is
// never written. A demotion appends a set-tier record and writes no file
// of its own. The delta log carries every pool edit adaptation and
// demotion make (ops in storage/manifest.h); an update flush moves pages
// between views without changing any record, so it appends nothing unless
// a compaction abandons a view. One staleness flag says "the on-disk
// manifest no longer describes the pool": it covers only the edits the log
// could not carry — a reader's promotion, a wholesale pool drop, a lossy
// restore — and a failed delta append. A snapshot is written when the flag
// is set, when a flush finds the log larger than twice a snapshot of the
// pool, and on every explicit checkpoint that has records to compact.
//
// Thread-safety: driven from the engine's serialized maintenance path,
// except CommitThrough (any thread), MarkStale (also from readers that
// promote a view) and stats().

#ifndef VMSV_STORAGE_DURABLE_STATE_H_
#define VMSV_STORAGE_DURABLE_STATE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/journal.h"
#include "storage/manifest.h"
#include "storage/storage_config.h"
#include "storage/types.h"
#include "storage/update.h"
#include "util/status.h"

namespace vmsv {

/// Restart-visible durability counters (snapshot; maintenance-path data —
/// read after the workload quiesces).
struct DurabilityStats {
  /// Journal records appended since open (Update calls in durable mode).
  uint64_t journal_appends = 0;
  /// Records replayed from the journal by Open (0 after a clean shutdown).
  uint64_t journal_replayed = 0;
  /// True when Open found and truncated a torn journal tail.
  bool journal_tail_truncated = false;
  /// Manifest BASE snapshots written (initial create, explicit checkpoints
  /// with records to compact, flushes that find the state stale or the
  /// delta log past twice the snapshot size).
  uint64_t manifest_writes = 0;
  /// Manifest writes that failed softly — a delta append or sync, a
  /// delta-log reset (the state turns stale and the next flush snapshots).
  uint64_t manifest_write_failures = 0;
  /// Incremental manifest delta records appended (pool edits in durable
  /// mode: one per view upserted, removed, re-tiered or re-ranged).
  uint64_t manifest_delta_appends = 0;
  /// Delta records Open replayed onto the base snapshot (current epoch
  /// only; stale-epoch records are skipped silently — views are
  /// reconstructible).
  uint64_t manifest_deltas_replayed = 0;
  /// True when Open found and truncated a torn delta-log tail.
  bool manifest_delta_tail_truncated = false;
  /// Live: the on-disk manifest misses an edit the delta log could not
  /// carry, so the next flush or checkpoint writes a snapshot.
  bool manifest_stale = false;
  /// Views rebuilt from the manifest by Open.
  uint64_t views_restored = 0;
  /// Wall time of the whole recovery: reading the manifest and replaying
  /// the journal here, plus the engine's pass that derives page zones and
  /// every restored view's pages (added through NoteRestored).
  double open_recover_ms = 0;
  /// Live journal watermarks, refreshed when the stats are read: LSN of
  /// the last appended record and the highest LSN known durable.
  /// appended - durable = the group-commit queue depth at snapshot time.
  uint64_t journal_appended_lsn = 0;
  uint64_t journal_durable_lsn = 0;
  /// Leader fsyncs CommitThrough executed (each one covered >= 1 record).
  uint64_t journal_group_commits = 0;
};

class DurableState {
 public:
  /// Who runs a checkpoint, which decides whether it writes a snapshot.
  enum class CheckpointKind {
    /// An update flush: snapshots only when the state is stale, or when
    /// the delta log holds more than twice the bytes a snapshot of the pool
    /// would take (its garbage then outweighs the live state).
    kFlush,
    /// An explicit Checkpoint(): compacts, snapshotting when the state is
    /// stale or the delta log holds any record.
    kCompact,
  };

  /// The pool a checkpoint persists: its view count, which is all the
  /// snapshot policy reads, and the producer of its records, called only
  /// when a snapshot is written.
  struct Pool {
    uint64_t views = 0;
    std::function<std::vector<ManifestView>()> records;
  };

  /// What Open hands the engine to rebuild from.
  struct Opened {
    std::unique_ptr<DurableState> state;
    /// The column over column.dat, journal records already re-applied.
    std::unique_ptr<PhysicalColumn> column;
    /// The composed manifest's views (base snapshot + current-epoch deltas)
    /// with ids set: ranges only, the engine derives their pages. Empty on
    /// create.
    std::vector<ManifestView> views;
    /// The replayed journal records, append order, for the engine to queue
    /// as pending (their values are in the column already).
    UpdateBatch replayed;
  };

  /// Opens the durable column in `dir` — or, with `create_rows` set,
  /// creates a fresh one of that many zeroed rows — in one sequence: the
  /// journal first (its flock is the directory's single-writer lock), then
  /// the manifest and its delta log, then column.dat. Create drops any
  /// leftover journal or delta records and writes the initial (empty-pool)
  /// snapshot, so the directory is openable from the first moment.
  /// Error contract: InvalidArgument for an empty `dir`; create:
  /// FailedPrecondition when `dir` already holds a column; open: NotFound
  /// when `dir` has no manifest, IoError on a corrupt manifest/journal or a
  /// journal record beyond the column; both: FailedPrecondition when the
  /// column is open elsewhere, IoError on filesystem failures.
  static StatusOr<Opened> Open(const std::string& dir,
                               const StorageConfig& storage,
                               std::optional<uint64_t> create_rows);

  DurableState(const DurableState&) = delete;
  DurableState& operator=(const DurableState&) = delete;
  ~DurableState();

  /// Appends `update` to the journal (buffered). `*ack_lsn` receives the
  /// LSN the caller must CommitThrough before acknowledging, or 0: with
  /// group_commit_batch = B, the update whose record lands on a
  /// multiple-of-B LSN commits through its own LSN, so N updates cost at
  /// most ceil(N/B) fsyncs. Error contract: the append's failure (its
  /// sys_errno() tells disk-full apart), journal unchanged.
  Status AppendUpdate(const RowUpdate& update, uint64_t* ack_lsn);

  /// Group-commit wait (WriteAheadJournal::CommitThrough). Any thread.
  Status CommitThrough(uint64_t lsn) { return journal_->CommitThrough(lsn); }

  /// The flush-time commit point: every journaled record is durable after.
  Status SyncJournal() { return journal_->Sync(); }

  /// Marks the on-disk manifest stale — an edit the delta log cannot
  /// carry; the next checkpoint snapshots.
  void MarkStale() { stale_.store(true, std::memory_order_release); }
  bool stale() const { return stale_.load(std::memory_order_acquire); }

  /// A fresh durable view id (persisted by the next snapshot).
  uint64_t NewViewId() { return next_view_id_++; }

  /// Records that the engine rebuilt `restored` of the views Open returned,
  /// taking `derive_ms` to derive the column's zones and their pages (added
  /// to open_recover_ms). Fewer (a budget-clamped restore) leaves the
  /// manifest listing views the pool no longer holds, so the state turns
  /// stale.
  void NoteRestored(uint64_t restored, uint64_t recovered, double derive_ms);

  /// The one delta-append path: appends one pool edit's records in the
  /// order the pool changed (the log replays in order; a replace is
  /// remove-then-upsert), stamped with the current epoch, and under kSync
  /// fdatasyncs once for the whole edit. Records without a view id, other
  /// than upserts, are skipped (the view was never persisted). Soft-fail
  /// rule: the first failed append skips the rest, counts a manifest write
  /// failure and marks the state stale — base snapshot plus the landed
  /// deltas still recover a consistent (merely stale) pool while the
  /// journal holds the batch, and the next checkpoint's snapshot compacts
  /// the partial edit away.
  void AppendDeltas(std::vector<ManifestDelta> records);

  /// The checkpoint sequence: data writeback per the flush policy → a full
  /// snapshot of `pool` when `kind`'s policy asks for one → journal reset.
  /// The write-ahead ordering lives here: the journal only resets after
  /// the manifest — base plus deltas — and, under kSync, the data made it
  /// down, so the caller appends a flush's records before calling this. A
  /// snapshot writes every view, hot or demoted, and resets the delta log.
  /// A failed snapshot leaves the state stale and the journal intact.
  Status Checkpoint(CheckpointKind kind, const Pool& pool);

  /// Counters; the journal watermarks are read live.
  DurabilityStats stats() const;

 private:
  DurableState(std::string dir, const StorageConfig& storage, StorageIo* io,
               std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_rows,
               uint64_t num_pages);

  /// Writes `views` as the next base snapshot (see Checkpoint).
  Status WriteSnapshot(std::vector<ManifestView> views);

  const std::string dir_;
  StorageIo* const io_;
  /// The column's backing file, for data writeback.
  const std::shared_ptr<PhysicalMemoryFile> file_;
  const FlushPolicy data_flush_;
  /// data_flush_ == kSync: fsync every manifest and delta write.
  const bool sync_;
  const uint64_t group_commit_batch_;
  const uint64_t num_rows_;
  const uint64_t num_pages_;
  std::unique_ptr<WriteAheadJournal> journal_;
  std::unique_ptr<ManifestDeltaLog> delta_log_;
  DurabilityStats stats_;
  /// Epoch of the base snapshot on disk; delta records are stamped with
  /// it, and each snapshot bumps it.
  uint64_t epoch_ = 0;
  uint64_t next_view_id_ = 1;
  std::atomic<bool> stale_{false};
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_DURABLE_STATE_H_
