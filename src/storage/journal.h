// WriteAheadJournal — the durable log of row updates between checkpoints
// (ARCHITECTURE.md "Durability model").
//
// The journal answers one question after a restart: which updates did the
// column accept that column.dat may not hold yet? Every
// AdaptiveColumn::Update appends one fixed-size record; FlushUpdates makes
// the batch durable (fdatasync), realigns the views, writes the data back
// per the flush policy, and only then resets the journal. Replay is IDEMPOTENT by construction:
// records carry absolute new values (re-applying a record writes the same
// bytes) and the recorded old_value — not the current cell content — feeds
// net-effect filtering, so a second replay drives the same view realignment.
//
// Commit sequencing / group commit: every appended record gets a monotonic
// LSN (1-based, continuing across Reset — LSNs number appends, not file
// offsets). durable_lsn() trails appended_lsn() by the records whose bytes
// are written but not yet fsynced. CommitThrough(lsn) is the group-commit
// primitive: callers from any thread block until their LSN is durable, and
// whichever caller arrives at an idle commit slot becomes the LEADER — its
// single fdatasync covers every record appended before it started, so N
// concurrent committers collapse onto ~one fsync per batch instead of one
// each. The engine's update path acknowledges through this (see
// StorageConfig::group_commit_batch).
//
// On-disk format (little-endian, fixed width):
//   header   8 B magic "VMSVWAL1"
//   record   u64 row | u64 old_value | u64 new_value | u32 crc32 of the
//            preceding 24 bytes | u32 record magic 0x4C41u ("AL" guard)
// A torn tail (crash mid-append) fails the crc of the last record; Open
// stops replay there and truncates the tail so later appends never hide
// behind garbage.
//
// All file operations route through a StorageIo (storage/storage_io.h), so
// the crash matrix can interpose on the exact append/fsync/truncate stream.

#ifndef VMSV_STORAGE_JOURNAL_H_
#define VMSV_STORAGE_JOURNAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

class StorageIo;

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes — the record checksum.
/// Exposed for tests that construct torn/corrupt journals by hand.
uint32_t Crc32(const void* data, size_t len);

struct JournalOpenResult;

class WriteAheadJournal {
 public:
  /// Opens (creating if absent) the journal at `path`, replaying every valid
  /// record. A bad header fails (the file is not a journal); a bad record
  /// crc ends replay and the tail is truncated in place. The fd is flock'ed
  /// exclusively for the journal's lifetime — it is the column directory's
  /// single-writer lock, so a second Open of a live column (from another
  /// process OR another handle in this one) fails with FailedPrecondition
  /// instead of corrupting shared durability state. `io` null means real
  /// I/O (RealStorageIo).
  static StatusOr<JournalOpenResult> Open(const std::string& path,
                                          StorageIo* io = nullptr);

  WriteAheadJournal(const WriteAheadJournal&) = delete;
  WriteAheadJournal& operator=(const WriteAheadJournal&) = delete;
  ~WriteAheadJournal();

  /// Appends one record (buffered write; durable after the next Sync /
  /// CommitThrough). `sync` additionally fdatasyncs before returning.
  /// Appends are serialized by the caller (the engine's maintenance path);
  /// they may overlap CommitThrough/Sync from other threads.
  Status Append(const RowUpdate& update, bool sync);

  /// fdatasync: every appended record is on stable storage after this.
  Status Sync();

  /// Group commit: blocks until `lsn` is durable. The first caller to find
  /// no fsync in flight becomes the leader and syncs once for everyone
  /// appended so far; followers wait on the leader's result. An fsync
  /// failure is returned to every caller it strands (their records' fate is
  /// unknown — exactly a crash's contract).
  Status CommitThrough(uint64_t lsn);

  /// Truncates back to the bare header (the checkpoint "commit": the data
  /// now reflects everything the journal held) and syncs. LSNs
  /// keep counting — a Reset marks everything appended so far durable.
  Status Reset();

  /// Records appended (or replayed) since the last Reset.
  uint64_t record_count() const { return record_count_; }

  /// LSN of the last appended record (starts at the replayed record count
  /// on open; 1-based, never resets).
  uint64_t appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }

  /// Highest LSN known to be on stable storage.
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Leader fsyncs executed by CommitThrough (diagnostics; the fsync
  /// accounting test counts real syscalls via FaultInjectingIo instead).
  uint64_t group_commits() const {
    return group_commits_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

 private:
  WriteAheadJournal(int fd, std::string path, uint64_t record_count,
                    StorageIo* io)
      : fd_(fd), path_(std::move(path)), record_count_(record_count),
        io_(io), appended_lsn_(record_count), durable_lsn_(record_count) {}

  /// fdatasync through io_, then publish `target` as durable and wake
  /// committers.
  Status SyncToLsn(uint64_t target);

  int fd_ = -1;
  std::string path_;
  uint64_t record_count_ = 0;  // guarded by the caller's append serialization
  StorageIo* io_ = nullptr;

  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<uint64_t> group_commits_{0};

  /// Guards the leader election of CommitThrough (never held across the
  /// fsync itself).
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  bool sync_in_flight_ = false;  // guarded by commit_mu_
};

/// What WriteAheadJournal::Open recovered.
struct JournalOpenResult {
  std::unique_ptr<WriteAheadJournal> journal;
  /// Records recovered from the existing file, append order. Empty for a
  /// fresh journal.
  std::vector<RowUpdate> replayed;
  /// True when a torn tail record was found (and truncated away).
  bool tail_truncated = false;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_JOURNAL_H_
