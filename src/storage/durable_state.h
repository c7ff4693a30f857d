// DurableState — the one owner of a persisted column's durable state
// (ARCHITECTURE.md "Durability model"): journal, manifest header and pool
// slots, the checkpoint sequence, and the open/create of the column
// directory. Every StorageIo operation a column issues runs here. The
// split is policy / backing driver, as in a SunOS-style VMM: the adaptive
// layer decides what the view pool looks like and hands each edit over as
// the whole pool; this class only makes it durable, and includes nothing
// from src/core/.
//
// The pool is every view as its range and creation cost; membership is
// derived by the engine on open, so it is never written. Each pool edit
// writes the whole pool into the older of the two manifest slots
// (storage/manifest.h). An update flush moves pages between views without
// changing any range, so it writes nothing of its own. One dirty bit says
// "the slots miss a change to the pool": views a failed alignment dropped,
// a lossy restore, a failed slot
// write, or no valid slot on open. The next flush or checkpoint that finds
// it set writes the pool.
//
// Thread-safety: driven from the engine's serialized maintenance path,
// except CommitThrough (any thread) and stats().

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
  /// Pool slot writes that landed: pool edits, plus flushes and
  /// checkpoints that found the pool dirty.
  uint64_t manifest_writes = 0;
  /// Slot writes that failed softly (the pool turns dirty and the next
  /// flush or checkpoint writes it again).
  uint64_t manifest_write_failures = 0;
  /// The slot writes a single pool edit made (a subset of manifest_writes;
  /// the name dates from when each edit appended delta records).
  uint64_t manifest_delta_appends = 0;
  /// Live: the dirty bit — the slots miss a change to the pool, so the
  /// next flush or checkpoint writes it.
  bool manifest_dirty = false;
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
  /// Produces the pool's records; called only once the dirty bit is
  /// cleared.
  using PoolRecords = std::function<std::vector<ManifestView>()>;

  /// What Open hands the engine to rebuild from.
  struct Opened {
    std::unique_ptr<DurableState> state;
    /// The column over column.dat, journal records already re-applied.
    std::unique_ptr<PhysicalColumn> column;
    /// The newest valid slot's views: ranges only, the engine derives their
    /// pages. Empty on create, or when neither slot holds a valid pool.
    std::vector<ManifestView> views;
    /// The replayed journal records, append order, for the engine to queue
    /// as pending (their values are in the column already).
    UpdateBatch replayed;
  };

  /// Opens the durable column in `dir` — or, with `create_rows` set,
  /// creates a fresh one of that many zeroed rows — in one sequence: the
  /// journal first (its flock is the directory's single-writer lock), then
  /// the manifest, then column.dat. Create drops any leftover journal
  /// records, makes both pool slots empty and writes the geometry header
  /// last, so a directory is a column exactly when MANIFEST exists.
  /// Error contract: InvalidArgument for an empty `dir`; create:
  /// FailedPrecondition when `dir` already holds a column; open: NotFound
  /// when `dir` has no manifest, IoError on a corrupt or older-layout
  /// manifest header, a header whose geometry disagrees with column.dat, a
  /// corrupt journal or a journal record beyond the column; both:
  /// FailedPrecondition when the column is open elsewhere, IoError on
  /// filesystem failures.
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

  /// Sets the dirty bit: the slots miss a change to the pool, and the next
  /// flush or checkpoint writes it.
  void MarkDirty() { dirty_.store(true, std::memory_order_release); }
  bool dirty() const { return dirty_.load(std::memory_order_acquire); }

  /// Records that the engine rebuilt `restored` of the views Open returned,
  /// taking `derive_ms` to derive the column's zones and their pages (added
  /// to open_recover_ms). Fewer (a budget-clamped restore) leaves the slots
  /// listing views the pool no longer holds, so the pool turns dirty.
  void NoteRestored(uint64_t restored, uint64_t recovered, double derive_ms);

  /// One pool edit: writes `pool` into the older slot, fdatasynced under
  /// kSync. Soft: a failed write counts a manifest write failure and leaves
  /// the pool dirty — the slots still hold the previous pool, which the
  /// data makes a correct one.
  void PersistPool(const PoolRecords& pool);

  /// The checkpoint sequence: data writeback per the flush policy, the
  /// journal reset, then the pool when it is dirty. The reset waits only
  /// on the data: a flush moves pages, never ranges, and Open derives every
  /// view's pages from the data, so the slots may lag the journal. A failed
  /// pool write leaves the pool dirty and is returned.
  Status Checkpoint(const PoolRecords& pool);

  /// Counters; the journal watermarks are read live.
  DurabilityStats stats() const;

 private:
  DurableState(const StorageConfig& storage, StorageIo* io,
               std::shared_ptr<PhysicalMemoryFile> file);

  /// Clears the dirty bit, then writes the pool (see PersistPool).
  Status WritePool(const PoolRecords& pool);

  StorageIo* const io_;
  /// The column's backing file, for data writeback.
  const std::shared_ptr<PhysicalMemoryFile> file_;
  const FlushPolicy data_flush_;
  /// data_flush_ == kSync: fdatasync every slot write.
  const bool sync_;
  const uint64_t group_commit_batch_;
  std::unique_ptr<WriteAheadJournal> journal_;
  std::unique_ptr<ManifestSlots> slots_;
  DurabilityStats stats_;
  std::atomic<bool> dirty_{false};
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_DURABLE_STATE_H_
