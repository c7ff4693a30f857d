// VmIo — the seam between the rewiring layer and the virtual-memory
// syscalls. Every operation that manipulates the process address space or
// the physical backing file — mmap/munmap/mremap/mprotect, memfd_create,
// ftruncate — goes through this interface, so a test can fail the EXACT
// Nth mapping operation a real workload produces (ENOMEM, EAGAIN, a
// vm.max_map_count-style mapping budget) instead of approximating
// exhaustion with rlimits.
//
// Two implementations:
//   - RealVmIo(): the process-wide passthrough; each call maps 1:1 to the
//     obvious syscall. This is what every arena uses unless
//     PhysicalMemoryFile / AdaptiveConfig::vm_io says otherwise.
//   - FaultInjectingVmIo: counts operations and, at the Nth one, injects a
//     deterministic errno-typed failure (once or sticky), and/or enforces a
//     configurable VMA budget with an interval-map accountant that mirrors
//     the kernel's VMA merging rules. `tools/fault_matrix.py vm`
//     enumerates every (operation-index, errno) point of a scripted
//     workload with it.

#ifndef VMSV_REWIRING_VM_IO_H_
#define VMSV_REWIRING_VM_IO_H_

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

#include <sys/types.h>

#include "util/status.h"

namespace vmsv {

class VmIo {
 public:
  virtual ~VmIo() = default;

  /// mmap(2). `what` names the mapping in error messages. Never returns
  /// MAP_FAILED: failure is a Status carrying the errno.
  virtual StatusOr<void*> Mmap(void* addr, size_t len, int prot, int flags,
                               int fd, off_t offset, const char* what) = 0;

  /// munmap(2).
  virtual Status Munmap(void* addr, size_t len, const char* what) = 0;

  /// mremap(2) with a fixed destination (Linux-only; kUnimplemented
  /// elsewhere). No engine path calls it; the seam keeps it so a tracing
  /// or injecting VmIo covers every address-space call.
  virtual StatusOr<void*> Mremap(void* old_addr, size_t old_len,
                                 size_t new_len, int flags, void* new_addr,
                                 const char* what) = 0;

  /// mprotect(2).
  virtual Status Mprotect(void* addr, size_t len, int prot,
                          const char* what) = 0;

  /// madvise(2). No engine path calls it: every mapping the rewiring layer
  /// builds is a plain 4 KiB rewire that needs no advice.
  virtual Status Madvise(void* addr, size_t len, int advice,
                         const char* what) = 0;

  /// memfd_create(2) (shm_open fallback is the caller's business; this is
  /// the memfd path only).
  virtual StatusOr<int> MemfdCreate(const char* name, unsigned int flags) = 0;

  /// ftruncate(2) — sizing the physical backing file (ENOSPC lives here).
  virtual Status Ftruncate(int fd, uint64_t len, const char* what) = 0;
};

/// The process-wide passthrough instance (stateless, thread-safe).
VmIo* RealVmIo();

/// Which class of virtual-memory operation a fault plan targets.
enum class VmOp {
  kAny,
  kMmap,
  kMunmap,
  kMremap,
  kMprotect,
  kMadvise,
  kMemfdCreate,
  kFtruncate,
};

const char* VmOpName(VmOp op);

/// One armed fault: at the `op_index`-th operation of kind `target`
/// (1-based, kAny counts every operation), fail with `fail_errno`. With
/// `sticky`, that operation AND every later matching operation fail — the
/// resource stays exhausted until the next Arm. Independently, a nonzero
/// `max_vmas` enforces a vm.max_map_count-style budget: any mmap whose
/// prospective mapping count would exceed it fails ENOMEM without
/// applying, exactly like the kernel.
struct VmFaultPlan {
  uint64_t op_index = 0;  // 0 = never fire (budget-only mode)
  int fail_errno = ENOMEM;
  bool sticky = false;
  VmOp target = VmOp::kAny;
  uint64_t max_vmas = 0;  // 0 = unlimited
  uint64_t seed = 0;      // carried for reproduction lines only
};

class FaultInjectingVmIo : public VmIo {
 public:
  /// Operation counters (also maintained with no plan armed, so the class
  /// doubles as a syscall accountant).
  struct Stats {
    uint64_t mmaps = 0;
    uint64_t munmaps = 0;
    uint64_t mremaps = 0;
    uint64_t mprotects = 0;
    uint64_t madvises = 0;
    uint64_t memfd_creates = 0;
    uint64_t ftruncates = 0;
    /// Operations failed by the armed (op_index, errno) plan.
    uint64_t faults_injected = 0;
    /// mmap calls refused because they would exceed max_vmas.
    uint64_t budget_rejections = 0;

    uint64_t ops() const {
      return mmaps + munmaps + mremaps + mprotects + madvises +
             memfd_creates + ftruncates;
    }
  };

  explicit FaultInjectingVmIo(const VmFaultPlan& plan = {}) : plan_(plan) {}

  /// Replaces the armed fault AND clears the operation counter and sticky
  /// exhaustion. The VMA accountant is NOT reset — it mirrors live kernel
  /// state, which survives across fault plans.
  void Arm(const VmFaultPlan& plan);

  /// Operations observed since construction / the last Arm.
  uint64_t op_count() const;

  Stats stats() const;

  /// Live mapping count per the accountant (segments after kernel-style
  /// merging), and the high-water mark since construction.
  uint64_t vma_count() const;
  uint64_t peak_vma_count() const;

  StatusOr<void*> Mmap(void* addr, size_t len, int prot, int flags, int fd,
                       off_t offset, const char* what) override;
  Status Munmap(void* addr, size_t len, const char* what) override;
  StatusOr<void*> Mremap(void* old_addr, size_t old_len, size_t new_len,
                         int flags, void* new_addr,
                         const char* what) override;
  Status Mprotect(void* addr, size_t len, int prot,
                  const char* what) override;
  Status Madvise(void* addr, size_t len, int advice,
                 const char* what) override;
  StatusOr<int> MemfdCreate(const char* name, unsigned int flags) override;
  Status Ftruncate(int fd, uint64_t len, const char* what) override;

 private:
  /// One live mapping, as mmap and munmap leave it (the two calls the
  /// engine makes). Anonymous segments merge freely with anonymous
  /// neighbors (every anonymous mapping the rewiring layer creates is the
  /// same PROT_NONE|MAP_NORESERVE reservation flavor, which the kernel
  /// merges); file segments merge only with the same fd at contiguous
  /// offsets — the rule that makes PTE-granular rewiring explode VMAs.
  struct Segment {
    uint64_t end = 0;
    bool file = false;
    int fd = -1;
    uint64_t offset = 0;
  };
  using SegmentMap = std::map<uint64_t, Segment>;  // keyed by start

  /// Counts the operation and returns the injected errno to fail it with
  /// (0 = execute normally). Caller holds mu_.
  int AdmitOpLocked(VmOp op);

  /// Edit segments_ in place: EraseRangeLocked drops [start, end), keeping
  /// the parts of straddling segments outside it; InsertSegmentLocked
  /// erases its range, then merges the new segment with its neighbors.
  /// Both cost the segments they touch, not the map. Caller holds mu_.
  void EraseRangeLocked(uint64_t start, uint64_t end);
  void InsertSegmentLocked(uint64_t start, uint64_t end, bool file, int fd,
                           uint64_t offset);

  /// The segment count InsertSegmentLocked would leave, read off the
  /// segments that [start, end) overlaps and its two neighbors, without
  /// editing the map. Caller holds mu_.
  uint64_t CountAfterInsertLocked(uint64_t start, uint64_t end, bool file,
                                  int fd, uint64_t offset) const;

  /// Raises the peak to the live count. Caller holds mu_.
  void NotePeakLocked() {
    if (segments_.size() > peak_vmas_) peak_vmas_ = segments_.size();
  }

  mutable std::mutex mu_;
  VmFaultPlan plan_;
  Stats stats_;
  uint64_t op_count_ = 0;
  bool exhausted_ = false;  // a sticky plan has fired
  SegmentMap segments_;
  uint64_t peak_vmas_ = 0;
};

}  // namespace vmsv

#endif  // VMSV_REWIRING_VM_IO_H_
