// StorageIo — the seam between the durability writers (journal, manifest,
// data-file writeback) and the operating system. Every syscall that decides
// whether a byte survives a crash — write/pwrite, fdatasync, directory
// fsync, truncate, sync_file_range — goes through this interface,
// so a test can interpose on the EXACT operation stream a real column
// produces instead of approximating it with process kills.
//
// Two implementations:
//   - RealStorageIo(): the process-wide passthrough; each call maps 1:1 to
//     the obvious syscall. This is what every column uses unless
//     StorageConfig::io says otherwise.
//   - FaultInjectingIo: counts operations and, at the Nth one, injects a
//     deterministic fault chosen from a seed — an I/O error, a torn write
//     (a seed-derived prefix of the buffer reaches the file), a
//     reorder-within-batch (THIS write's payload is lost while later writes
//     of the same pre-fsync batch land, the batch's fsync then fails), or a
//     crash-stop (this and every later operation fails, simulating the
//     process dying at that point). `tools/fault_matrix.py crash`
//     enumerates every (operation-index, fault-kind) point of a scripted
//     workload with it.

#ifndef VMSV_STORAGE_STORAGE_IO_H_
#define VMSV_STORAGE_STORAGE_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/status.h"

namespace vmsv {

class StorageIo {
 public:
  virtual ~StorageIo() = default;

  /// Full write of `len` bytes at the fd's current offset (EINTR-retrying).
  /// `what` names the destination in error messages.
  virtual Status Write(int fd, const void* data, size_t len,
                       const char* what) = 0;

  /// Positioned full write (does not move the fd offset).
  virtual Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                        const char* what) = 0;

  /// fdatasync: everything written to `fd` is on stable storage after this.
  virtual Status Fsync(int fd, const char* what) = 0;

  /// fsync of the directory itself — makes renames/creates in it durable.
  virtual Status FsyncDir(const std::string& dir) = 0;

  /// rename(2). No engine path calls it; the seam keeps it so a tracing or
  /// injecting StorageIo covers every storage call.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// ftruncate(2) — journal reset / torn-tail rewind.
  virtual Status Truncate(int fd, uint64_t len, const char* what) = 0;

  /// Initiates asynchronous writeback of `fd`'s dirty pages without
  /// waiting (sync_file_range on Linux, no-op elsewhere) — the
  /// FlushPolicy::kAsync data path.
  virtual Status SyncFileRange(int fd, const char* what) = 0;
};

/// The process-wide passthrough instance (stateless, thread-safe).
StorageIo* RealStorageIo();

/// Which fault FaultInjectingIo injects at its armed operation index.
enum class FaultKind {
  kNone,
  /// The Nth operation fails with an I/O error and performs nothing;
  /// subsequent operations proceed normally (a transient device error).
  kFailOp,
  /// The Nth operation must be a write: a seed-derived strict prefix of the
  /// buffer reaches the file, the call reports failure, and the io enters
  /// the crashed state (power loss mid-sector-stream). Non-write operations
  /// at the index degrade to kCrashStop.
  kTornWrite,
  /// The Nth operation must be a write: its payload is replaced by
  /// seed-derived garbage (this sector never hit the platter) while the
  /// call reports success and LATER writes keep landing — the device
  /// reordered the batch. The next fsync fails and enters the crashed
  /// state, so the reordering is only observable across a crash, exactly
  /// like real hardware. Non-write operations degrade to kCrashStop.
  kReorderCrash,
  /// The Nth operation does not execute; it and every later operation fail
  /// (the process died right before the syscall).
  kCrashStop,
};

const char* FaultKindName(FaultKind kind);

/// One armed fault: at the `op_index`-th durability operation (1-based,
/// counted across all threads), inject `kind`. `seed` drives the torn-write
/// prefix length and the reorder garbage bytes.
///
/// For kFailOp, `fail_errno` types the failure: 0 keeps the legacy generic
/// IoError; ENOSPC/EIO/etc. produce an ErrnoError whose sys_errno() callers
/// can route on (disk-full handling vs media errors). EINTR is special —
/// the real wrappers retry it transparently, so an injected EINTR executes
/// the operation normally and only counts an eintr_retries stat: callers
/// must never observe it.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  uint64_t op_index = 0;
  uint64_t seed = 0;
  int fail_errno = 0;
};

class FaultInjectingIo : public StorageIo {
 public:
  /// Operation counters (also maintained with kNone armed, so the class
  /// doubles as the fsync accountant for the group-commit perf contract).
  struct Stats {
    uint64_t writes = 0;
    uint64_t written_bytes = 0;
    uint64_t pwrites = 0;
    uint64_t fsyncs = 0;
    uint64_t dir_fsyncs = 0;
    uint64_t renames = 0;
    uint64_t truncates = 0;
    uint64_t sync_file_ranges = 0;
    /// Operations that failed (or were silently corrupted) by injection.
    uint64_t faults_injected = 0;
    /// Injected EINTRs that the wrapper-level retry absorbed (the operation
    /// executed normally and the caller saw success).
    uint64_t eintr_retries = 0;

    uint64_t ops() const {
      return writes + pwrites + fsyncs + dir_fsyncs + renames + truncates +
             sync_file_ranges;
    }
  };

  explicit FaultInjectingIo(const FaultPlan& plan = {}) : plan_(plan) {}

  /// Replaces the armed fault AND clears the operation counter and crashed
  /// state — one FaultInjectingIo can drive many crash points in sequence.
  void Arm(const FaultPlan& plan);

  /// True once the armed fault fired a crash-stop (every durability
  /// operation fails from then on until the next Arm).
  bool crashed() const;

  /// Operations observed since construction / the last Arm.
  uint64_t op_count() const;

  Stats stats() const;

  /// Called (outside the internal lock) after every SUCCESSFUL Fsync with
  /// the synced fd — the crash harness snapshots data files here to model
  /// page-cache loss at power-off.
  void set_sync_listener(std::function<void(int)> listener);

  Status Write(int fd, const void* data, size_t len,
               const char* what) override;
  Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                const char* what) override;
  Status Fsync(int fd, const char* what) override;
  Status FsyncDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(int fd, uint64_t len, const char* what) override;
  Status SyncFileRange(int fd, const char* what) override;

 private:
  enum class WriteFault { kNone, kFail, kTorn, kReorder, kCrash };

  /// Counts the operation and decides its fate under the armed plan.
  /// Returns the fault to apply to THIS operation (kNone = execute
  /// normally). Caller holds mu_.
  WriteFault AdmitOpLocked(bool is_write);

  Status CrashedError(const char* what) const;

  mutable std::mutex mu_;
  FaultPlan plan_;
  Stats stats_;
  uint64_t op_count_ = 0;
  bool crashed_ = false;
  /// kReorderCrash fired on a write; the batch's next fsync must fail.
  bool crash_on_next_sync_ = false;
  std::function<void(int)> sync_listener_;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_STORAGE_IO_H_
