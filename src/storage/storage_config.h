// StorageConfig — the durability policy of one column (ROADMAP workload
// item: "persistence (file-backed instead of memfd)").
//
// With an empty persist_dir the engine behaves exactly as before: the
// column lives in anonymous memfd/shm memory and vanishes with the process.
// With a persist_dir, these files make the column a restartable storage
// engine (full walkthrough in ARCHITECTURE.md "Durability model"):
//
//   column.dat      the data pages themselves, mmap'ed MAP_SHARED — every
//                   write through the column lands in the page cache and
//                   is written back by the kernel (or forced by the flush
//                   policy);
//   journal.wal     a write-ahead journal of row updates, appended on every
//                   AdaptiveColumn::Update and replayed on Open;
//   MANIFEST        the column geometry, written and fsynced once by
//                   create;
//   MANIFEST.0/.1   two alternating pool slots: every pool edit writes the
//                   whole pool (each view's value range and creation cost)
//                   into the slot that does not hold the newest valid one,
//                   and Open restores the newer valid slot.
//
// No other file is kept: page membership is derived from each view's range
// and the data when the column opens.
//
// Crash-safety contract: process kill (SIGKILL mid-anything) is always
// recoverable — the page cache survives the process, the journal covers
// unflushed updates, and a pool write never touches the newest valid slot,
// so a torn one costs at most the last pool edit. Power-loss safety
// additionally requires FlushPolicy::kSync (fdatasync on flush) and
// group_commit_batch = 1 for updates between flushes.

#ifndef VMSV_STORAGE_STORAGE_CONFIG_H_
#define VMSV_STORAGE_STORAGE_CONFIG_H_

#include <cstdint>
#include <string>

namespace vmsv {

class StorageIo;

/// How FlushUpdates/Checkpoint push column data out of the page cache.
enum class FlushPolicy {
  /// No explicit writeback: rely on kernel dirty-page writeback. Survives
  /// process kill, not power loss.
  kNone,
  /// Initiate asynchronous writeback (sync_file_range on Linux) without
  /// waiting for completion. Narrows the power-loss window cheaply.
  kAsync,
  /// fdatasync: the flush returns only after the data is on stable storage.
  kSync,
};

inline const char* FlushPolicyName(FlushPolicy policy) {
  switch (policy) {
    case FlushPolicy::kNone: return "none";
    case FlushPolicy::kAsync: return "async";
    case FlushPolicy::kSync: return "sync";
  }
  return "unknown";
}

/// Durability knobs, carried by AdaptiveConfig::storage.
struct StorageConfig {
  /// Directory holding column.dat / journal.wal / MANIFEST. Empty keeps the
  /// column in anonymous memory (the historical behavior).
  std::string persist_dir;
  /// Data writeback policy applied at FlushUpdates/Checkpoint.
  FlushPolicy data_flush = FlushPolicy::kSync;
  /// Group commit: when > 0, the Update whose journal record lands on a
  /// multiple-of-batch LSN acknowledges through
  /// WriteAheadJournal::CommitThrough — one leader fsync covers the whole
  /// batch, and concurrent updaters share it, so N updates cost at most
  /// ceil(N/batch) fsyncs. Off-boundary updates return without waiting
  /// (their durability lands at the next boundary or flush). 1 syncs every
  /// update (power-loss-safe updates). 0 disables: the flush fsync is the
  /// commit point.
  uint64_t group_commit_batch = 0;
  /// File-operation layer for every durable artifact (journal, manifest,
  /// data writeback). Null means real I/O; tests inject a
  /// FaultInjectingIo here. Not owned; must outlive the column.
  StorageIo* io = nullptr;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_STORAGE_CONFIG_H_
