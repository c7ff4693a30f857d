#include "storage/manifest.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "storage/journal.h"  // Crc32
#include "storage/storage_io.h"
#include "util/macros.h"

namespace vmsv {

namespace {

constexpr char kManifestMagic[8] = {'V', 'M', 'S', 'V', 'M', 'A', 'N', '1'};
constexpr uint32_t kManifestVersion = 3;

constexpr char kDeltaMagic[8] = {'V', 'M', 'S', 'V', 'M', 'D', 'L', '1'};
constexpr uint32_t kDeltaRecordMagic = 0x4C44u;
constexpr size_t kDeltaHeaderSize = sizeof(kDeltaMagic);
/// Fixed head of a delta record: op + reserved + 7 u64 fields.
constexpr size_t kDeltaRecordHeadSize = 2 * sizeof(uint32_t) + 7 * sizeof(uint64_t);

/// ManifestView::demoted <-> the flags word (bit 0) in both formats.
constexpr uint64_t kViewFlagDemoted = 1;
/// Trailing crc + record magic.
constexpr size_t kDeltaRecordTailSize = 2 * sizeof(uint32_t);
/// Base snapshot: magic + version + reserved + 6 u64 header fields, and the
/// trailing crc; each view adds 6 u64 fields (its page count always 0).
constexpr size_t kManifestFixedSize = sizeof(kManifestMagic) +
                                      2 * sizeof(uint32_t) +
                                      6 * sizeof(uint64_t) + sizeof(uint32_t);
constexpr size_t kManifestViewSize = 6 * sizeof(uint64_t);

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Cursor over the serialized form; Get* return false past the end.
struct Reader {
  const unsigned char* p;
  size_t left;

  bool GetU32(uint32_t* v) {
    if (left < sizeof(*v)) return false;
    std::memcpy(v, p, sizeof(*v));
    p += sizeof(*v);
    left -= sizeof(*v);
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (left < sizeof(*v)) return false;
    std::memcpy(v, p, sizeof(*v));
    p += sizeof(*v);
    left -= sizeof(*v);
    return true;
  }

  /// Steps over `count` u64 page ids — the membership files written while
  /// the manifest recorded it hold; it is derived now.
  bool SkipPages(uint64_t count) {
    if (count > left / sizeof(uint64_t)) return false;
    p += count * sizeof(uint64_t);
    left -= count * sizeof(uint64_t);
    return true;
  }
};

/// Serializes one delta record (self-framing: crc + magic at the tail).
std::string EncodeDelta(const ManifestDelta& delta) {
  std::string buf;
  buf.reserve(kDeltaRecordHeadSize + kDeltaRecordTailSize);
  PutU32(&buf, static_cast<uint32_t>(delta.op));
  PutU32(&buf, 0);  // reserved
  PutU64(&buf, delta.epoch);
  PutU64(&buf, delta.view.id);
  PutU64(&buf, delta.view.lo);
  PutU64(&buf, delta.view.hi);
  PutU64(&buf, delta.view.creation_scanned_pages);
  PutU64(&buf, delta.view.demoted ? kViewFlagDemoted : 0);
  PutU64(&buf, 0);  // page_count
  PutU32(&buf, Crc32(buf.data(), buf.size()));
  PutU32(&buf, kDeltaRecordMagic);
  return buf;
}

/// Parses one delta record at `data` (size `left`), skipping any page ids a
/// legacy record carries. Returns the record size consumed, or 0 when the
/// bytes do not frame a whole valid record (torn or corrupt tail — replay
/// must stop here).
size_t DecodeDelta(const unsigned char* data, size_t left,
                   ManifestDelta* delta) {
  if (left < kDeltaRecordHeadSize + kDeltaRecordTailSize) return 0;
  Reader head{data, kDeltaRecordHeadSize};
  uint32_t op = 0, reserved = 0;
  uint64_t flags = 0, page_count = 0;
  head.GetU32(&op);
  head.GetU32(&reserved);
  head.GetU64(&delta->epoch);
  head.GetU64(&delta->view.id);
  head.GetU64(&delta->view.lo);
  head.GetU64(&delta->view.hi);
  head.GetU64(&delta->view.creation_scanned_pages);
  head.GetU64(&flags);
  head.GetU64(&page_count);
  // Division, not multiplication: a corrupt count must not overflow the
  // bound into passing (the crc comes AFTER this check, so it cannot help).
  const size_t payload_budget =
      left - kDeltaRecordHeadSize - kDeltaRecordTailSize;
  if (page_count > payload_budget / sizeof(uint64_t)) return 0;
  const size_t record_size = kDeltaRecordHeadSize +
                             page_count * sizeof(uint64_t) +
                             kDeltaRecordTailSize;
  uint32_t stored_crc = 0, magic = 0;
  std::memcpy(&stored_crc, data + record_size - 8, 4);
  std::memcpy(&magic, data + record_size - 4, 4);
  if (magic != kDeltaRecordMagic ||
      stored_crc != Crc32(data, record_size - 8)) {
    return 0;
  }
  if (op < static_cast<uint32_t>(ManifestDeltaOp::kUpsertView) ||
      op > static_cast<uint32_t>(ManifestDeltaOp::kLegacyRemoveViewPages)) {
    return 0;
  }
  delta->op = static_cast<ManifestDeltaOp>(op);
  delta->view.demoted = (flags & kViewFlagDemoted) != 0;
  return record_size;
}

}  // namespace

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ManifestDeltaPath(const std::string& dir) {
  return dir + "/MANIFEST.delta";
}

uint64_t ManifestSnapshotBytes(uint64_t views) {
  return kManifestFixedSize + views * kManifestViewSize;
}

Status WriteManifest(const std::string& dir, const ViewManifest& manifest,
                     bool sync, StorageIo* io) {
  if (io == nullptr) io = RealStorageIo();
  std::string buf;
  buf.reserve(ManifestSnapshotBytes(manifest.views.size()));
  buf.append(kManifestMagic, sizeof(kManifestMagic));
  PutU32(&buf, kManifestVersion);
  PutU32(&buf, 0);  // reserved
  PutU64(&buf, manifest.num_rows);
  PutU64(&buf, manifest.num_pages);
  PutU64(&buf, manifest.pool_generation);
  PutU64(&buf, manifest.epoch);
  PutU64(&buf, manifest.next_view_id);
  PutU64(&buf, manifest.views.size());
  for (const ManifestView& view : manifest.views) {
    PutU64(&buf, view.id);
    PutU64(&buf, view.lo);
    PutU64(&buf, view.hi);
    PutU64(&buf, view.creation_scanned_pages);
    PutU64(&buf, view.demoted ? kViewFlagDemoted : 0);
    PutU64(&buf, 0);  // page_count
  }
  PutU32(&buf, Crc32(buf.data(), buf.size()));

  const std::string tmp_path = ManifestPath(dir) + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError(("open " + tmp_path).c_str(), errno);
  Status st = io->Write(fd, buf.data(), buf.size(), "write(manifest)");
  // The tmp file is ALWAYS fsynced before the rename, even when `sync` says
  // the caller does not need power-loss durability: rename atomically
  // destroys the previous snapshot, so a write the device acknowledged but
  // silently dropped (reordered out of its batch) must be caught HERE —
  // after the rename there is no copy left to fall back to.
  if (st.ok()) st = io->Fsync(fd, "fdatasync(manifest)");
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }
  st = io->Rename(tmp_path, ManifestPath(dir));
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }
  // The rename must itself be durable for the snapshot to survive power
  // loss; against mere process kill it already is.
  if (sync) return io->FsyncDir(dir);
  return OkStatus();
}

StatusOr<ViewManifest> ReadManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int saved = errno;
    if (saved == ENOENT) return NotFound("no manifest at " + path);
    return ErrnoError(("open " + path).c_str(), saved);
  }
  std::string buf;
  char chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    buf.append(chunk, static_cast<size_t>(n));
  }
  const int saved = errno;
  ::close(fd);
  if (n < 0) return ErrnoError("read(manifest)", saved);

  if (buf.size() < kManifestFixedSize ||
      std::memcmp(buf.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return IoError(path + " is not a vmsv manifest (bad magic)");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + buf.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (Crc32(buf.data(), buf.size() - sizeof(uint32_t)) != stored_crc) {
    return IoError(path + " failed its checksum (torn or corrupt manifest)");
  }

  Reader reader{
      reinterpret_cast<const unsigned char*>(buf.data()) +
          sizeof(kManifestMagic),
      buf.size() - sizeof(kManifestMagic) - sizeof(uint32_t)};
  uint32_t version = 0, reserved = 0;
  ViewManifest manifest;
  uint64_t view_count = 0;
  if (!reader.GetU32(&version) || !reader.GetU32(&reserved) ||
      !reader.GetU64(&manifest.num_rows) ||
      !reader.GetU64(&manifest.num_pages) ||
      !reader.GetU64(&manifest.pool_generation) ||
      !reader.GetU64(&manifest.epoch) ||
      !reader.GetU64(&manifest.next_view_id) ||
      !reader.GetU64(&view_count)) {
    return IoError(path + ": truncated manifest header");
  }
  // Version 2 is version 3 minus the per-view flags word (no tier state);
  // reading it as all-hot is lossless, so old stores open without a
  // migration step. The next snapshot rewrites at the current version.
  if (version != kManifestVersion && version != 2) {
    return IoError(path + ": manifest version " + std::to_string(version) +
                   ", expected " + std::to_string(kManifestVersion));
  }
  const bool has_flags_word = version >= 3;
  // Bound counts by the bytes that could possibly back them BEFORE any
  // allocation, with division (not multiplication) so a hostile count
  // cannot overflow the check into passing: the CRC protects against
  // corruption, not against a crafted file, and the contract is IoError —
  // never bad_alloc — on anything malformed.
  const size_t view_record_min_bytes =
      (has_flags_word ? 6 : 5) * sizeof(uint64_t);
  if (view_count > reader.left / view_record_min_bytes) {
    return IoError(path + ": view count " + std::to_string(view_count) +
                   " exceeds what the file could hold");
  }
  manifest.views.reserve(view_count);
  for (uint64_t vi = 0; vi < view_count; ++vi) {
    ManifestView view;
    uint64_t flags = 0, page_count = 0;
    if (!reader.GetU64(&view.id) || !reader.GetU64(&view.lo) ||
        !reader.GetU64(&view.hi) ||
        !reader.GetU64(&view.creation_scanned_pages) ||
        (has_flags_word && !reader.GetU64(&flags)) ||
        !reader.GetU64(&page_count) || !reader.SkipPages(page_count)) {
      return IoError(path + ": truncated view record " + std::to_string(vi));
    }
    view.demoted = (flags & kViewFlagDemoted) != 0;
    manifest.views.push_back(std::move(view));
  }
  if (reader.left != 0) {
    return IoError(path + ": trailing bytes after last view record");
  }
  return manifest;
}

// ---------------------------------------------------------------------------
// ManifestDeltaLog

StatusOr<ManifestDeltaLog::OpenResult> ManifestDeltaLog::Open(
    const std::string& dir, StorageIo* io) {
  if (io == nullptr) io = RealStorageIo();
  const std::string path = ManifestDeltaPath(dir);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError(("open " + path).c_str(), errno);

  OpenResult result;
  result.log = std::unique_ptr<ManifestDeltaLog>(new ManifestDeltaLog(fd, io));
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) return ErrnoError("lseek(manifest delta)", errno);

  if (size == 0) {
    // Fresh log: stamp the header. Not fsynced on its own — the log only
    // matters once a record lands, and every record append can sync.
    VMSV_RETURN_IF_ERROR(io->Write(fd, kDeltaMagic, kDeltaHeaderSize,
                                   "write(manifest delta header)"));
    result.log->end_offset_ = kDeltaHeaderSize;
    return result;
  }

  std::string buf;
  buf.resize(static_cast<size_t>(size));
  ssize_t got = ::pread(fd, buf.data(), buf.size(), 0);
  if (got != static_cast<ssize_t>(buf.size())) {
    return ErrnoError("pread(manifest delta)", errno);
  }
  if (buf.size() < kDeltaHeaderSize ||
      std::memcmp(buf.data(), kDeltaMagic, kDeltaHeaderSize) != 0) {
    return IoError(path + " is not a vmsv manifest delta log (bad header)");
  }
  size_t offset = kDeltaHeaderSize;
  while (offset < buf.size()) {
    ManifestDelta delta;
    const size_t consumed = DecodeDelta(
        reinterpret_cast<const unsigned char*>(buf.data()) + offset,
        buf.size() - offset, &delta);
    if (consumed == 0) break;  // torn or corrupt: replay ends here
    result.replayed.push_back(std::move(delta));
    offset += consumed;
  }
  if (offset < buf.size()) {
    // Torn tail: drop it so future appends are never shadowed by garbage.
    VMSV_RETURN_IF_ERROR(
        io->Truncate(fd, offset, "ftruncate(manifest delta tail)"));
    VMSV_RETURN_IF_ERROR(io->Fsync(fd, "fdatasync(manifest delta)"));
    result.tail_truncated = true;
  }
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    return ErrnoError("lseek(manifest delta)", errno);
  }
  result.log->record_count_ = result.replayed.size();
  result.log->end_offset_ = offset;
  return result;
}

ManifestDeltaLog::~ManifestDeltaLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status ManifestDeltaLog::Append(const ManifestDelta& delta) {
  if (torn_tail_) {
    // Replay would stop at the torn bytes and never reach this record.
    return IoError("manifest delta log has an unrewound torn tail");
  }
  const std::string buf = EncodeDelta(delta);
  Status st = io_->Write(fd_, buf.data(), buf.size(), "write(manifest delta)");
  if (!st.ok()) {
    // Same framing discipline as the journal: a partial record at the tail
    // would shadow every later append during replay, so rewind to the last
    // whole-record boundary. Until a rewind or Reset succeeds, appends
    // fail (replay's torn-tail handling is the backstop for a crash).
    torn_tail_ =
        !io_->Truncate(fd_, end_offset_, "ftruncate(manifest delta rewind)")
             .ok() ||
        ::lseek(fd_, static_cast<off_t>(end_offset_), SEEK_SET) < 0;
    return st;
  }
  end_offset_ += buf.size();
  ++record_count_;
  unsynced_ = true;
  return OkStatus();
}

Status ManifestDeltaLog::Sync() {
  VMSV_RETURN_IF_ERROR(io_->Fsync(fd_, "fdatasync(manifest delta)"));
  unsynced_ = false;
  return OkStatus();
}

Status ManifestDeltaLog::Reset() {
  VMSV_RETURN_IF_ERROR(
      io_->Truncate(fd_, kDeltaHeaderSize, "ftruncate(manifest delta reset)"));
  if (::lseek(fd_, static_cast<off_t>(kDeltaHeaderSize), SEEK_SET) < 0) {
    return ErrnoError("lseek(manifest delta reset)", errno);
  }
  record_count_ = 0;
  end_offset_ = kDeltaHeaderSize;
  torn_tail_ = false;
  VMSV_RETURN_IF_ERROR(io_->Fsync(fd_, "fdatasync(manifest delta reset)"));
  unsynced_ = false;
  return OkStatus();
}

uint64_t ManifestDeltaLog::bytes() const {
  return end_offset_ - kDeltaHeaderSize;
}

uint64_t ApplyManifestDeltas(ViewManifest* base,
                             const std::vector<ManifestDelta>& deltas,
                             uint64_t* skipped_epoch) {
  const auto find = [base](uint64_t id) -> ManifestView* {
    for (ManifestView& view : base->views) {
      if (view.id == id) return &view;
    }
    return nullptr;
  };
  uint64_t applied = 0, skipped = 0;
  for (const ManifestDelta& delta : deltas) {
    // Raise the id watermark over EVERY record (any epoch): an id handed
    // out before a crash must never be reissued to a different view.
    if (delta.view.id >= base->next_view_id) {
      base->next_view_id = delta.view.id + 1;
    }
    if (delta.epoch != base->epoch) {
      // The delta amends a snapshot this base is not (an older one that was
      // compacted away, or a newer one whose rename never became durable).
      // Views are reconstructible, so skipping is always safe.
      ++skipped;
      continue;
    }
    ++applied;
    if (delta.op == ManifestDeltaOp::kUpsertView) {
      if (ManifestView* view = find(delta.view.id)) {
        *view = delta.view;
      } else {
        base->views.push_back(delta.view);
      }
      continue;
    }
    if (delta.op == ManifestDeltaOp::kRemoveView) {
      for (auto it = base->views.begin(); it != base->views.end(); ++it) {
        if (it->id == delta.view.id) {
          base->views.erase(it);
          break;
        }
      }
      continue;
    }
    // The in-place edits. An unknown id means the view's upsert never
    // became durable (or a later remove won): there is nothing to edit.
    // Legacy page records fall through: Open derives membership.
    ManifestView* view = find(delta.view.id);
    if (view == nullptr) continue;
    if (delta.op == ManifestDeltaOp::kSetViewTier) {
      view->demoted = delta.view.demoted;
    } else if (delta.op == ManifestDeltaOp::kSetViewRange) {
      view->lo = delta.view.lo;
      view->hi = delta.view.hi;
    }
  }
  if (skipped_epoch != nullptr) *skipped_epoch = skipped;
  return applied;
}

}  // namespace vmsv
