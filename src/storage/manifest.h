// ViewManifest — the durable record that makes partial views
// RECONSTRUCTIBLE state (paper §2.5 argues views can be recovered rather
// than owned; the durable backend takes that to its conclusion). A view's
// membership is a function of its value range and the column's data:
// exactly the pages holding a value in [lo, hi]. So the manifest records
// each view as its range alone — id, lo, hi, creation cost and tier — and
// the engine's Open derives every view's pages in the pass that computes
// the column's page zones.
//
// The manifest is INCREMENTAL: a base snapshot (atomically replaced, whole
// file) plus an append-only delta log (MANIFEST.delta) of per-view edit
// records. Every pool edit the engine makes — a view added, replaced or
// removed, a tier flip, a widened range — appends one fixed-size record
// instead of rewriting the whole file; checkpoints compact: they write a
// fresh base snapshot (bumping its EPOCH) and reset the delta log. Recovery
// reads the base, then applies, in order, every delta stamped with the
// base's epoch; deltas from another epoch are ignored (they describe a
// snapshot that was superseded — or one whose rename never became durable
// — and views are reconstructible, so dropping them only costs
// re-adaptation).
//
// Base snapshot on-disk format (little-endian):
//   u8[8]  magic "VMSVMAN1"
//   u32    version (3)
//   u32    reserved (0)
//   u64    num_rows | u64 num_pages | u64 pool_generation |
//   u64    epoch | u64 next_view_id | u64 view_count
//   per view: u64 id | u64 lo | u64 hi | u64 creation_scanned_pages |
//             u64 flags (bit 0 = demoted) |
//             u64 page_count | page_count * u64 page ids
//   u32    crc32 over everything before it
// Writers put page_count 0, so a snapshot is 68 + 48 * views bytes. Files
// written while the manifest recorded membership hold page ids there;
// readers skip them (bounded by the file's bytes) and derive the pages.
// Demoted views persist like hot ones; the flag only says which tier the
// view reopens in.
//
// Base writes go to MANIFEST.tmp, are fsynced, renamed over MANIFEST, and
// the directory is fsynced: a crash leaves either the old or the new
// snapshot, never a torn one.
//
// Delta log on-disk format (little-endian):
//   u8[8]  magic "VMSVMDL1"
//   per record:
//     u32 op | u32 reserved |
//     u64 epoch | u64 id | u64 lo | u64 hi | u64 creation_scanned_pages |
//     u64 flags (bit 0 = demoted) |
//     u64 page_count | page_count * u64 page ids |
//     u32 crc32 of the record bytes before it | u32 record magic 0x4C44u
// Ops, all in this one layout (a field an op does not use is written 0;
// writers always write page_count 0, so a record is 72 bytes):
//   1 upsert        the whole view: add it, or replace the view with its id
//   2 remove        drop the view with the id
//   3 set-tier      flip the demoted flag in place
//   4 set-range     set lo/hi in place (a discard widened the view)
//   5 add-pages     read-only legacy: decoded, then dropped by replay
//   6 remove-pages  read-only legacy: decoded, then dropped by replay
// Ops 3-4 edit a view in place and are no-ops on an id replay does not
// know. Ops 5 and 6 carried page membership when the manifest recorded it;
// they still decode, so replay moves past them to the records behind, and
// ApplyManifestDeltas ignores them. Any other op value fails the record
// like a bad crc.
// Each record is self-framing (crc + magic): a torn or corrupt tail ends
// replay there and Open truncates it, exactly like the journal.
//
// All writes route through a StorageIo so the crash matrix can interpose.

#ifndef VMSV_STORAGE_MANIFEST_H_
#define VMSV_STORAGE_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

class StorageIo;

struct ManifestView {
  /// Durable view identity — unique within a column directory, assigned by
  /// the engine, monotonic. Delta records address views by this id.
  uint64_t id = 0;
  Value lo = 0;
  Value hi = 0;
  /// Pages the creating scan read — feeds eviction scoring after reopen.
  uint64_t creation_scanned_pages = 0;
  /// True when the view lives in the cold tier: it holds no arena until
  /// its routed hits reach the engine's materialization threshold.
  bool demoted = false;
};

struct ViewManifest {
  uint64_t num_rows = 0;
  uint64_t num_pages = 0;
  /// Snapshots the writing process wrote before this one (diagnostics).
  uint64_t pool_generation = 0;
  /// Base-snapshot epoch; delta records apply only when stamped with it.
  uint64_t epoch = 0;
  /// Next view id the engine should assign (ids below it may be live or
  /// retired; recovery additionally raises it above every id it sees).
  uint64_t next_view_id = 1;
  std::vector<ManifestView> views;
};

/// One incremental manifest record on the view `view.id`: upsert (add or
/// replace the whole view), remove, set-tier (`view.demoted`) or set-range
/// (`view.lo`/`view.hi`). The two page ops are only ever read: they carried
/// membership in logs written while the manifest recorded it.
enum class ManifestDeltaOp : uint32_t {
  kUpsertView = 1,
  kRemoveView = 2,
  kSetViewTier = 3,
  kSetViewRange = 4,
  kLegacyAddViewPages = 5,
  kLegacyRemoveViewPages = 6,
};

struct ManifestDelta {
  ManifestDeltaOp op = ManifestDeltaOp::kUpsertView;
  /// The base-snapshot epoch this delta amends.
  uint64_t epoch = 0;
  ManifestView view;
};

/// Atomically replaces `dir`/MANIFEST with `manifest` (tmp + rename + dir
/// fsync). `sync` false skips the file fsync (FlushPolicy::kNone economics);
/// the rename is still atomic against process kill. `io` null = real I/O.
Status WriteManifest(const std::string& dir, const ViewManifest& manifest,
                     bool sync, StorageIo* io = nullptr);

/// Reads and validates `dir`/MANIFEST (the BASE snapshot only — recovery
/// composes it with the delta log via ApplyManifestDeltas).
/// Error contract: NotFound when absent, IoError on bad magic/crc/truncation.
StatusOr<ViewManifest> ReadManifest(const std::string& dir);

/// "<dir>/MANIFEST" — exposed so tests can corrupt it deliberately.
std::string ManifestPath(const std::string& dir);

/// "<dir>/MANIFEST.delta" — likewise.
std::string ManifestDeltaPath(const std::string& dir);

/// Size in bytes of a base snapshot of `views` views — what WriteManifest
/// would write, computed from the count alone.
uint64_t ManifestSnapshotBytes(uint64_t views);

/// The append-only side of the incremental manifest. One instance is owned
/// by the durable column (single writer — the engine's maintenance path);
/// recovery uses Open's replayed records.
class ManifestDeltaLog {
 public:
  struct OpenResult {
    std::unique_ptr<ManifestDeltaLog> log;
    /// Valid records in append order (every epoch — filtering against the
    /// base happens in ApplyManifestDeltas).
    std::vector<ManifestDelta> replayed;
    /// True when a torn/corrupt tail was found (and truncated away).
    bool tail_truncated = false;
  };

  /// Opens (creating if absent) `dir`/MANIFEST.delta, replaying every valid
  /// record; a torn tail ends replay and is truncated in place, exactly
  /// like the journal. `io` null = real I/O.
  static StatusOr<OpenResult> Open(const std::string& dir,
                                   StorageIo* io = nullptr);

  ManifestDeltaLog(const ManifestDeltaLog&) = delete;
  ManifestDeltaLog& operator=(const ManifestDeltaLog&) = delete;
  ~ManifestDeltaLog();

  /// Appends one record, unsynced (Sync makes a batch of them durable with
  /// one fdatasync). On a failed (possibly partial) write the tail is
  /// rewound to the last whole-record boundary; while that rewind has not
  /// succeeded, every Append fails (replay would stop at the torn bytes)
  /// until Reset.
  Status Append(const ManifestDelta& delta);

  /// fdatasyncs every record appended so far.
  Status Sync();

  /// True when records were appended since the last Sync or Reset.
  bool unsynced() const { return unsynced_; }

  /// Truncates back to the bare header — the checkpoint compaction step,
  /// called right after the base snapshot (with the NEXT epoch) landed.
  Status Reset();

  /// Records appended (or replayed) since the last Reset.
  uint64_t record_count() const { return record_count_; }

  /// Bytes of those records (the file minus its header).
  uint64_t bytes() const;

  /// True when the log holds nothing a Reset would drop: no record, and no
  /// torn tail left by a failed append.
  bool empty() const { return record_count_ == 0 && !torn_tail_; }

 private:
  ManifestDeltaLog(int fd, StorageIo* io) : fd_(fd), io_(io) {}

  int fd_ = -1;
  StorageIo* io_ = nullptr;
  uint64_t record_count_ = 0;
  uint64_t end_offset_ = 0;
  /// A failed append left bytes past end_offset_ that could not be rewound.
  bool torn_tail_ = false;
  bool unsynced_ = false;
};

/// Applies `deltas` (append order) to `base`: records stamped with
/// base->epoch upsert/remove views by id, and set-tier and set-range edit
/// an existing view in place (an unknown id is a no-op — the view's upsert
/// never became durable, so there is nothing to edit). Legacy page records
/// are dropped: membership is derived, never replayed. Records from any
/// other epoch are skipped and counted. Raises base->next_view_id above
/// every id seen.
/// Returns the number of current-epoch records; `skipped_epoch` (optional)
/// receives the skip count.
uint64_t ApplyManifestDeltas(ViewManifest* base,
                             const std::vector<ManifestDelta>& deltas,
                             uint64_t* skipped_epoch = nullptr);

}  // namespace vmsv

#endif  // VMSV_STORAGE_MANIFEST_H_
