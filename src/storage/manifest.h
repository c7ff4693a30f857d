// ViewManifest — the durable record that makes partial views
// RECONSTRUCTIBLE state (paper §2.5 argues views can be recovered rather
// than owned; the durable backend takes that to its conclusion). A view's
// membership is a function of its value range and the column's data:
// exactly the pages holding a value in [lo, hi]. So the manifest records
// each view as its range alone — lo, hi and creation cost — and the
// engine's Open derives every view's pages in the pass that computes the
// column's page zones. An older pool is therefore still a correct pool: the
// manifest can be behind, never wrong.
//
// Three files, all little-endian:
//
//   MANIFEST     the column geometry, written and fsynced once by create:
//                  u8[8] magic "VMSVMAN1" | u32 version (4) | u32 reserved |
//                  u64 num_rows | u64 num_pages | u32 crc32 of the above
//                Its absence means "no column here". Other versions (the
//                v2/v3 layouts: a whole-pool snapshot plus a delta log) are
//                refused with IoError naming the version.
//   MANIFEST.0   two alternating pool slots, each holding one whole pool:
//   MANIFEST.1     u8[8] magic "VMSVPOOL" | u64 sequence | u64 view_count |
//                  per view: u64 lo | u64 hi | u64 creation_scanned_pages |
//                            u64 flags (written 0, ignored on read; older
//                            writers set bit 0 on a demoted view) |
//                  u32 crc32 of the above
//                Bytes past the crc are left over from a larger pool and
//                are ignored.
//
// A pool write pwrites the whole pool at offset 0 of the slot that does NOT
// hold the newest valid record, with sequence newest + 1, so a torn or lost
// write never touches the pool recovery falls back to. Recovery takes the
// valid slot with the higher sequence; a slot with a bad magic, a view
// count its bytes cannot hold or a bad crc is skipped. No write after
// create creates, renames or truncates a file.
//
// All writes route through a StorageIo so the crash matrix can interpose.

#ifndef VMSV_STORAGE_MANIFEST_H_
#define VMSV_STORAGE_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

class StorageIo;

struct ManifestView {
  Value lo = 0;
  Value hi = 0;
  /// Pages the creating scan read — feeds eviction scoring after reopen.
  uint64_t creation_scanned_pages = 0;
};

/// The column geometry MANIFEST records.
struct ManifestHeader {
  uint64_t num_rows = 0;
  uint64_t num_pages = 0;
};

/// One slot record: a whole pool and its sequence number.
struct ManifestPool {
  uint64_t seq = 0;
  std::vector<ManifestView> views;
};

/// Writes `dir`/MANIFEST and fdatasyncs it. Create only; `io` null = real
/// I/O.
Status WriteManifestHeader(const std::string& dir, const ManifestHeader& header,
                           StorageIo* io = nullptr);

/// Reads `dir`/MANIFEST. Error contract: NotFound when absent; IoError on a
/// bad magic, a version other than 4 (the message names it), a bad length
/// or a bad crc.
StatusOr<ManifestHeader> ReadManifestHeader(const std::string& dir);

/// "<dir>/MANIFEST" — exposed so tests can corrupt it deliberately.
std::string ManifestPath(const std::string& dir);

/// "<dir>/MANIFEST.<slot>" for slot 0 or 1 — likewise.
std::string ManifestSlotPath(const std::string& dir, int slot);

/// Size in bytes of the slot record of a pool of `views` views.
uint64_t ManifestSlotBytes(uint64_t views);

/// The slot record of `views` at sequence `seq`.
std::string EncodeManifestPool(uint64_t seq,
                               const std::vector<ManifestView>& views);

/// Decodes a slot's bytes; nullopt when they hold no valid record (short,
/// bad magic, a view count beyond the bytes — checked before allocating —
/// or a bad crc).
std::optional<ManifestPool> DecodeManifestPool(const std::string& bytes);

/// The two pool slots of one column directory. Single writer: the engine's
/// maintenance path.
class ManifestSlots {
 public:
  struct Opened {
    std::unique_ptr<ManifestSlots> slots;
    /// The valid record with the higher sequence; nullopt when neither slot
    /// holds one.
    std::optional<ManifestPool> pool;
  };

  /// With `create`, creates both slot files empty (truncating leftovers);
  /// otherwise opens and reads both. A missing slot file is an IoError.
  /// `io` null = real I/O.
  static StatusOr<Opened> Open(const std::string& dir, bool create,
                               StorageIo* io = nullptr);

  ManifestSlots(const ManifestSlots&) = delete;
  ManifestSlots& operator=(const ManifestSlots&) = delete;
  ~ManifestSlots();

  /// Writes `views` as the next pool into the slot that does not hold the
  /// newest valid record — one pwrite, plus fdatasync when `sync`. A failed
  /// write leaves that slot the target of the next one.
  Status Write(const std::vector<ManifestView>& views, bool sync);

 private:
  ManifestSlots(int fd0, int fd1, StorageIo* io) : fds_{fd0, fd1}, io_(io) {}

  int fds_[2];
  StorageIo* io_;
  /// Sequence of the newest valid record (0 when neither slot holds one).
  uint64_t seq_ = 0;
  /// The slot holding it; with none, 1, so the first write goes to slot 0.
  int newest_ = 1;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_MANIFEST_H_
