#include "storage/journal.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "storage/storage_io.h"
#include "util/macros.h"

namespace vmsv {

namespace {

constexpr char kHeaderMagic[8] = {'V', 'M', 'S', 'V', 'W', 'A', 'L', '1'};
constexpr uint32_t kRecordMagic = 0x4C41u;
constexpr size_t kHeaderSize = sizeof(kHeaderMagic);
constexpr size_t kRecordSize = 3 * sizeof(uint64_t) + 2 * sizeof(uint32_t);

/// Slice-by-8 lookup tables of the reflected CRC-32 (polynomial 0xEDB88320).
/// Table 0 is the byte-at-a-time table; table k advances a byte's CRC over
/// k more zero bytes, so eight lookups fold eight input bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    tables[0][byte] = crc;
  }
  for (uint32_t byte = 0; byte < 256; ++byte) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables = MakeCrcTables();

/// Serialized record layout. Fixed-width little-endian fields written as one
/// contiguous buffer so a record append is a single write(2).
struct RecordBuf {
  unsigned char bytes[kRecordSize];

  static RecordBuf From(const RowUpdate& u) {
    RecordBuf buf;
    std::memcpy(buf.bytes + 0, &u.row, 8);
    std::memcpy(buf.bytes + 8, &u.old_value, 8);
    std::memcpy(buf.bytes + 16, &u.new_value, 8);
    const uint32_t crc = Crc32(buf.bytes, 24);
    std::memcpy(buf.bytes + 24, &crc, 4);
    std::memcpy(buf.bytes + 28, &kRecordMagic, 4);
    return buf;
  }

  /// Returns false when crc or record magic fail (torn/corrupt record).
  bool To(RowUpdate* u) const {
    uint32_t crc = 0, magic = 0;
    std::memcpy(&crc, bytes + 24, 4);
    std::memcpy(&magic, bytes + 28, 4);
    if (magic != kRecordMagic || crc != Crc32(bytes, 24)) return false;
    std::memcpy(&u->row, bytes + 0, 8);
    std::memcpy(&u->old_value, bytes + 8, 8);
    std::memcpy(&u->new_value, bytes + 16, 8);
    return true;
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  // Slice-by-8: each step folds eight input bytes through eight lookups.
  // The words are read little-endian, the byte order every on-disk format
  // here already assumes.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kCrcTables[7][lo & 0xFF] ^ kCrcTables[6][(lo >> 8) & 0xFF] ^
          kCrcTables[5][(lo >> 16) & 0xFF] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFF] ^ kCrcTables[2][(hi >> 8) & 0xFF] ^
          kCrcTables[1][(hi >> 16) & 0xFF] ^ kCrcTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ kCrcTables[0][(crc ^ *p) & 0xFF];
  }
  return ~crc;
}

StatusOr<JournalOpenResult> WriteAheadJournal::Open(const std::string& path,
                                                    StorageIo* io) {
  if (io == nullptr) io = RealStorageIo();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError(("open " + path).c_str(), errno);

  // The journal fd doubles as the column directory's single-writer lock:
  // a second process (or a second handle in THIS process — flock is
  // per-open-file-description) opening the same column would race journal
  // resets and manifest rewrites against the first one's state. Held until
  // the journal closes.
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int saved = errno;
    ::close(fd);
    if (saved == EWOULDBLOCK) {
      return FailedPrecondition(path +
                                " is locked: the column is already open in "
                                "another process or handle");
    }
    return ErrnoError("flock(journal)", saved);
  }

  JournalOpenResult result;
  result.journal = std::unique_ptr<WriteAheadJournal>(
      new WriteAheadJournal(fd, path, 0, io));
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) return ErrnoError("lseek(journal)", errno);

  if (size == 0) {
    // Fresh journal: stamp the header.
    VMSV_RETURN_IF_ERROR(
        io->Write(fd, kHeaderMagic, kHeaderSize, "write(journal header)"));
    VMSV_RETURN_IF_ERROR(io->Fsync(fd, "fdatasync(journal header)"));
    return result;
  }

  // Existing journal: verify header, replay records up to the first bad one.
  char header[kHeaderSize];
  if (::pread(fd, header, kHeaderSize, 0) !=
          static_cast<ssize_t>(kHeaderSize) ||
      std::memcmp(header, kHeaderMagic, kHeaderSize) != 0) {
    return IoError(path + " is not a vmsv journal (bad header)");
  }
  off_t offset = static_cast<off_t>(kHeaderSize);
  while (offset + static_cast<off_t>(kRecordSize) <= size) {
    RecordBuf buf;
    const ssize_t n = ::pread(fd, buf.bytes, kRecordSize, offset);
    if (n != static_cast<ssize_t>(kRecordSize)) {
      return ErrnoError("pread(journal)", errno);
    }
    RowUpdate update;
    if (!buf.To(&update)) break;  // torn or corrupt: replay ends here
    result.replayed.push_back(update);
    offset += static_cast<off_t>(kRecordSize);
  }
  if (offset < size) {
    // Torn tail (partial or corrupt record): drop it so future appends are
    // never shadowed by garbage during the next replay.
    VMSV_RETURN_IF_ERROR(io->Truncate(fd, static_cast<uint64_t>(offset),
                                      "ftruncate(journal tail)"));
    VMSV_RETURN_IF_ERROR(io->Fsync(fd, "fdatasync(journal)"));
    result.tail_truncated = true;
  }
  if (::lseek(fd, offset, SEEK_SET) < 0) {
    return ErrnoError("lseek(journal)", errno);
  }
  result.journal->record_count_ = result.replayed.size();
  // Replayed records are on disk by definition; LSNs continue above them.
  result.journal->appended_lsn_.store(result.replayed.size(),
                                      std::memory_order_release);
  result.journal->durable_lsn_.store(result.replayed.size(),
                                     std::memory_order_release);
  return result;
}

WriteAheadJournal::~WriteAheadJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadJournal::Append(const RowUpdate& update, bool sync) {
  const RecordBuf buf = RecordBuf::From(update);
  Status st = io_->Write(fd_, buf.bytes, kRecordSize, "write(journal)");
  if (!st.ok()) {
    // A PARTIAL write would leave torn bytes at the tail; a later
    // successful Append would then sit BEHIND them and replay — which
    // stops at the first bad record — would silently discard it. Rewind
    // to the last whole-record boundary so the journal stays well-framed
    // even across failed appends (best effort: if the truncate itself
    // fails we still report the original error, and replay's torn-tail
    // handling remains the backstop).
    const uint64_t good = kHeaderSize + record_count_ * kRecordSize;
    if (io_->Truncate(fd_, good, "ftruncate(journal rewind)").ok()) {
      ::lseek(fd_, static_cast<off_t>(good), SEEK_SET);
    }
    return st;
  }
  ++record_count_;
  appended_lsn_.fetch_add(1, std::memory_order_acq_rel);
  if (sync) return Sync();
  return OkStatus();
}

Status WriteAheadJournal::SyncToLsn(uint64_t target) {
  VMSV_RETURN_IF_ERROR(io_->Fsync(fd_, "fdatasync(journal)"));
  {
    std::lock_guard<std::mutex> lk(commit_mu_);
    uint64_t durable = durable_lsn_.load(std::memory_order_relaxed);
    if (target > durable) {
      durable_lsn_.store(target, std::memory_order_release);
    }
  }
  commit_cv_.notify_all();
  return OkStatus();
}

Status WriteAheadJournal::Sync() {
  // The snapshot is taken before the fsync starts: records appended WHILE
  // the kernel flushes may or may not be covered, so only the pre-sync
  // watermark is published as durable.
  return SyncToLsn(appended_lsn_.load(std::memory_order_acquire));
}

Status WriteAheadJournal::CommitThrough(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(commit_mu_);
  while (durable_lsn_.load(std::memory_order_acquire) < lsn) {
    if (sync_in_flight_) {
      // A leader's fsync is running; its completion may already cover us.
      commit_cv_.wait(lk);
      continue;
    }
    // Become the leader: one fsync covers every record appended so far —
    // ours and every follower's that queued behind the previous sync.
    sync_in_flight_ = true;
    const uint64_t target = appended_lsn_.load(std::memory_order_acquire);
    lk.unlock();
    const Status st = SyncToLsn(target);
    lk.lock();
    sync_in_flight_ = false;
    if (!st.ok()) {
      // Strand every waiter with the failure — their records' durability is
      // unknown, which is exactly what a crash would mean.
      lk.unlock();
      commit_cv_.notify_all();
      return st;
    }
    group_commits_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    commit_cv_.notify_all();
    lk.lock();
  }
  return OkStatus();
}

Status WriteAheadJournal::Reset() {
  VMSV_RETURN_IF_ERROR(
      io_->Truncate(fd_, kHeaderSize, "ftruncate(journal reset)"));
  if (::lseek(fd_, static_cast<off_t>(kHeaderSize), SEEK_SET) < 0) {
    return ErrnoError("lseek(journal reset)", errno);
  }
  record_count_ = 0;
  return Sync();
}

}  // namespace vmsv
