// ViewManifest — the durable record that makes partial views
// RECONSTRUCTIBLE state (paper §2.5 argues views can be recovered rather
// than owned; the durable backend takes that to its conclusion: a restart
// rebuilds every view from this record without rescanning the column).
//
// The manifest is INCREMENTAL: a base snapshot (atomically replaced, whole
// file) plus an append-only delta log (MANIFEST.delta) of per-view
// upsert/remove records. Adaptation decisions that change one pool member
// append one or two delta records — O(view) bytes — instead of rewriting
// the whole file; checkpoints compact: they write a fresh base snapshot
// (bumping its EPOCH) and reset the delta log. Recovery reads the base,
// then applies, in order, every delta stamped with the base's epoch;
// deltas from another epoch are ignored (they describe a snapshot that was
// superseded — or one whose rename never became durable — and views are
// reconstructible, so dropping them only costs re-adaptation).
//
// Base snapshot on-disk format (little-endian):
//   u8[8]  magic "VMSVMAN1"
//   u32    version (3)
//   u32    reserved (0)
//   u64    num_rows | u64 num_pages | u64 pool_generation |
//   u64    epoch | u64 next_view_id | u64 view_count
//   per view: u64 id | u64 lo | u64 hi | u64 creation_scanned_pages |
//             u64 flags (bit 0 = demoted) |
//             u64 page_count | page_count * u64 page ids (slot order)
//   u32    crc32 over everything before it
//
// Demoted (cold-tier) views persist with an EMPTY page list in the base
// snapshot: their membership lives in the per-view cold spill file
// (storage/cold_tier.h), which the snapshot protocol re-spills first. The
// flag tells recovery to read the cold file instead of treating the empty
// list as an empty view.
//
// Base writes go to MANIFEST.tmp, are fsynced, renamed over MANIFEST, and
// the directory is fsynced: a crash leaves either the old or the new
// snapshot, never a torn one.
//
// Delta log on-disk format (little-endian):
//   u8[8]  magic "VMSVMDL1"
//   per record:
//     u32 op (1 = upsert, 2 = remove, 3 = set-tier) | u32 reserved |
//     u64 epoch | u64 id | u64 lo | u64 hi | u64 creation_scanned_pages |
//     u64 flags (bit 0 = demoted) |
//     u64 page_count | page_count * u64 page ids |
//     u32 crc32 of the record bytes before it | u32 record magic 0x4C44u
// Set-tier records carry no pages (page_count 0): they flip the demoted
// flag of the identified view in place, leaving its recorded membership
// untouched — O(1) bytes per demotion/promotion instead of O(view).
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
  /// the engine, monotonic. Delta records upsert/remove by this id.
  uint64_t id = 0;
  Value lo = 0;
  Value hi = 0;
  /// Pages the creating scan read — feeds eviction scoring after reopen.
  uint64_t creation_scanned_pages = 0;
  /// True when the view lives in the cold tier: its membership is spilled
  /// to the per-view cold file and `pages` here may be empty (base
  /// snapshot) or carry the last hot membership (set-tier delta replay).
  bool demoted = false;
  /// Physical page membership in slot order (dense: holes never persist —
  /// a manifest is only written from aligned, flush-consistent states).
  std::vector<uint64_t> pages;
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

/// One incremental manifest record: upsert (add or replace the view with
/// `view.id`), remove (only `view.id` is meaningful), or set-tier (flip
/// `view.id`'s demoted flag to `view.demoted`, keeping its pages).
enum class ManifestDeltaOp : uint32_t {
  kUpsertView = 1,
  kRemoveView = 2,
  kSetViewTier = 3,
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

  /// Appends one record; `sync` fdatasyncs before returning. On a failed
  /// (possibly partial) write the tail is rewound to the last whole-record
  /// boundary, best effort.
  Status Append(const ManifestDelta& delta, bool sync);

  /// Truncates back to the bare header — the checkpoint compaction step,
  /// called right after the base snapshot (with the NEXT epoch) landed.
  Status Reset();

  /// Records appended (or replayed) since the last Reset.
  uint64_t record_count() const { return record_count_; }

 private:
  ManifestDeltaLog(int fd, StorageIo* io) : fd_(fd), io_(io) {}

  int fd_ = -1;
  StorageIo* io_ = nullptr;
  uint64_t record_count_ = 0;
  uint64_t end_offset_ = 0;
};

/// Applies `deltas` (append order) to `base`: records stamped with
/// base->epoch upsert/remove views by id (set-tier flips the demoted flag
/// of an existing view, keeping its pages; an unknown id is a no-op — the
/// view's upsert never became durable, so there is nothing to re-tier).
/// Records from any other epoch are skipped and counted. Raises
/// base->next_view_id above every id seen.
/// Returns the number of records applied; `skipped_epoch` (optional)
/// receives the skip count.
uint64_t ApplyManifestDeltas(ViewManifest* base,
                             const std::vector<ManifestDelta>& deltas,
                             uint64_t* skipped_epoch = nullptr);

}  // namespace vmsv

#endif  // VMSV_STORAGE_MANIFEST_H_
