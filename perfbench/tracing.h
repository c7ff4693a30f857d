// Layer attribution from outside the engine. The benchmark wraps each Table
// call in an op span and installs two decorators on the engine's public
// seams — AdaptiveConfig::vm_io (the rewiring layer) and StorageConfig::io
// (the storage layer) — that record one child span per seam call made
// while an op is in flight. Spans stay in memory until the run ends.

#ifndef VMSV_PERFBENCH_TRACING_H_
#define VMSV_PERFBENCH_TRACING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "rewiring/vm_io.h"
#include "storage/storage_io.h"

namespace vmsv {
namespace perfbench {

/// Per-layer totals of a traced window (AttributeOp summed over its ops).
struct TraceSummary {
  uint64_t ops = 0;
  int64_t self_ns = 0;
  int64_t rewiring_ns = 0;
  int64_t storage_ns = 0;
  /// Seam time with no op in flight.
  int64_t unattributed_ns = 0;
  std::array<uint64_t, kNumSeamCalls> calls{};
  std::array<int64_t, kNumSeamCalls> call_ns{};
  /// write/pwrite payload bytes.
  uint64_t storage_bytes = 0;
};

class SpanRecorder {
 public:
  /// `single_client`: the workload has one client thread, so seam calls made
  /// on engine threads (scan and shard workers) belong to its op in flight.
  explicit SpanRecorder(bool single_client) : single_client_(single_client) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Spans are only recorded between Start() and Stop() — the traced
  /// window, not set-up or oracle checks.
  void Start() { recording_.store(true, std::memory_order_release); }
  void Stop() { recording_.store(false, std::memory_order_release); }
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  /// Opens an op on the calling thread and returns its id (0 when not
  /// recording).
  uint64_t BeginOp();
  /// Closes op `id` with its measured bounds.
  void EndOp(uint64_t id, const char* name, int64_t start_ns, int64_t end_ns);

  void RecordChild(SeamCall call, int64_t start_ns, int64_t end_ns,
                   uint64_t bytes);

  /// Attributes every recorded op to layers (run after the window).
  TraceSummary Summarize() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool single_client_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> next_op_{1};
  std::atomic<uint64_t> sole_op_{0};
  mutable std::mutex mu_;
  std::vector<OpSpan> ops_;         // guarded by mu_
  std::vector<ChildSpan> children_;  // guarded by mu_
};

/// VmIo decorator: times every call into RealVmIo().
class TracingVmIo final : public VmIo {
 public:
  explicit TracingVmIo(SpanRecorder* recorder) : rec_(recorder) {}

  StatusOr<void*> Mmap(void* addr, size_t len, int prot, int flags, int fd,
                       off_t offset, const char* what) override;
  Status Munmap(void* addr, size_t len, const char* what) override;
  StatusOr<void*> Mremap(void* old_addr, size_t old_len, size_t new_len,
                         int flags, void* new_addr, const char* what) override;
  Status Mprotect(void* addr, size_t len, int prot, const char* what) override;
  Status Madvise(void* addr, size_t len, int advice, const char* what) override;
  StatusOr<int> MemfdCreate(const char* name, unsigned int flags) override;
  Status Ftruncate(int fd, uint64_t len, const char* what) override;

 private:
  SpanRecorder* rec_;
  VmIo* inner_ = RealVmIo();
};

/// StorageIo decorator: times every call into RealStorageIo().
class TracingStorageIo final : public StorageIo {
 public:
  explicit TracingStorageIo(SpanRecorder* recorder) : rec_(recorder) {}

  Status Write(int fd, const void* data, size_t len, const char* what) override;
  Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                const char* what) override;
  Status Fsync(int fd, const char* what) override;
  Status FsyncDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(int fd, uint64_t len, const char* what) override;
  Status SyncFileRange(int fd, const char* what) override;

 private:
  SpanRecorder* rec_;
  StorageIo* inner_ = RealStorageIo();
};

}  // namespace perfbench
}  // namespace vmsv

#endif  // VMSV_PERFBENCH_TRACING_H_
