#include "rewiring/vm_io.h"

#include "util/macros.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

namespace vmsv {

namespace {

class PassthroughVmIo : public VmIo {
 public:
  StatusOr<void*> Mmap(void* addr, size_t len, int prot, int flags, int fd,
                       off_t offset, const char* what) override {
    void* p = ::mmap(addr, len, prot, flags, fd, offset);
    if (p == MAP_FAILED) return ErrnoError(what, errno);
    return p;
  }

  Status Munmap(void* addr, size_t len, const char* what) override {
    if (::munmap(addr, len) != 0) return ErrnoError(what, errno);
    return OkStatus();
  }

  StatusOr<void*> Mremap(void* old_addr, size_t old_len, size_t new_len,
                         int flags, void* new_addr,
                         const char* what) override {
#if defined(__linux__) && defined(MREMAP_FIXED)
    void* p = ::mremap(old_addr, old_len, new_len, flags, new_addr);
    if (p == MAP_FAILED) return ErrnoError(what, errno);
    return p;
#else
    (void)old_addr;
    (void)old_len;
    (void)new_len;
    (void)flags;
    (void)new_addr;
    return Status(StatusCode::kUnimplemented,
                  std::string(what) + ": mremap unavailable on this platform");
#endif
  }

  Status Mprotect(void* addr, size_t len, int prot,
                  const char* what) override {
    if (::mprotect(addr, len, prot) != 0) return ErrnoError(what, errno);
    return OkStatus();
  }

  Status Madvise(void* addr, size_t len, int advice,
                 const char* what) override {
#if defined(__linux__)
    if (::madvise(addr, len, advice) != 0) return ErrnoError(what, errno);
    return OkStatus();
#else
    (void)addr;
    (void)len;
    (void)advice;
    return Status(StatusCode::kUnimplemented,
                  std::string(what) + ": madvise unavailable on this platform");
#endif
  }

  StatusOr<int> MemfdCreate(const char* name, unsigned int flags) override {
#if defined(__linux__)
    const int fd = static_cast<int>(::memfd_create(name, flags));
    if (fd < 0) return ErrnoError("memfd_create", errno);
    return fd;
#else
    (void)name;
    (void)flags;
    return Status(StatusCode::kUnimplemented,
                  "memfd_create unavailable on this platform");
#endif
  }

  Status Ftruncate(int fd, uint64_t len, const char* what) override {
    if (::ftruncate(fd, static_cast<off_t>(len)) != 0) {
      return ErrnoError(what, errno);
    }
    return OkStatus();
  }
};

Status InjectedError(const char* what, int fail_errno) {
  std::string msg = "injected vm fault: ";
  msg += what;
  msg += ": ";
  msg += std::strerror(fail_errno);
  return Status(StatusCode::kIoError, std::move(msg), fail_errno);
}

}  // namespace

VmIo* RealVmIo() {
  static PassthroughVmIo* io = new PassthroughVmIo();
  return io;
}

const char* VmOpName(VmOp op) {
  switch (op) {
    case VmOp::kAny: return "any";
    case VmOp::kMmap: return "mmap";
    case VmOp::kMunmap: return "munmap";
    case VmOp::kMremap: return "mremap";
    case VmOp::kMprotect: return "mprotect";
    case VmOp::kMadvise: return "madvise";
    case VmOp::kMemfdCreate: return "memfd_create";
    case VmOp::kFtruncate: return "ftruncate";
  }
  return "unknown";
}

void FaultInjectingVmIo::Arm(const VmFaultPlan& plan) {
  std::lock_guard<std::mutex> lk(mu_);
  plan_ = plan;
  op_count_ = 0;
  exhausted_ = false;
}

uint64_t FaultInjectingVmIo::op_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return op_count_;
}

FaultInjectingVmIo::Stats FaultInjectingVmIo::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

uint64_t FaultInjectingVmIo::vma_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return segments_.size();
}

uint64_t FaultInjectingVmIo::peak_vma_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_vmas_;
}

int FaultInjectingVmIo::AdmitOpLocked(VmOp op) {
  const bool matches = plan_.target == VmOp::kAny || plan_.target == op;
  if (matches) ++op_count_;
  if (plan_.op_index == 0) return 0;
  if (exhausted_ && matches) return plan_.fail_errno;
  if (matches && op_count_ == plan_.op_index) {
    if (plan_.sticky) exhausted_ = true;
    return plan_.fail_errno;
  }
  return 0;
}

void FaultInjectingVmIo::EraseRange(SegmentMap* segs, uint64_t start,
                                    uint64_t end) {
  if (start >= end) return;
  // Find the first segment that could overlap [start, end).
  auto it = segs->lower_bound(start);
  if (it != segs->begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > start) it = prev;
  }
  while (it != segs->end() && it->first < end) {
    const uint64_t seg_start = it->first;
    Segment seg = it->second;
    it = segs->erase(it);
    if (seg_start < start) {
      // Left remainder keeps its identity (same fd/offset base).
      Segment left = seg;
      left.end = start;
      (*segs)[seg_start] = left;
    }
    if (seg.end > end) {
      Segment right = seg;
      if (seg.file) right.offset += end - seg_start;
      right.end = seg.end;
      (*segs)[end] = right;
      break;
    }
  }
}

void FaultInjectingVmIo::InsertSegment(SegmentMap* segs, uint64_t start,
                                       uint64_t end, bool file, int fd,
                                       uint64_t offset) {
  if (start >= end) return;
  EraseRange(segs, start, end);
  Segment seg{end, file, fd, offset};
  // Merge with the left neighbor (kernel VMA-merge rules; see Segment doc).
  auto it = segs->lower_bound(start);
  if (it != segs->begin()) {
    auto prev = std::prev(it);
    const Segment& l = prev->second;
    const bool mergeable =
        l.end == start && l.file == file &&
        (!file || (l.fd == fd && l.offset + (l.end - prev->first) == offset));
    if (mergeable) {
      start = prev->first;
      if (file) offset = l.offset;
      segs->erase(prev);
      seg.offset = offset;
    }
  }
  // Merge with the right neighbor.
  it = segs->find(end);
  if (it != segs->end()) {
    const Segment& r = it->second;
    const bool mergeable =
        r.file == file &&
        (!file || (r.fd == fd && offset + (end - start) == r.offset));
    if (mergeable) {
      seg.end = r.end;
      segs->erase(it);
    }
  }
  (*segs)[start] = seg;
}

void FaultInjectingVmIo::CommitLocked(SegmentMap&& next) {
  segments_ = std::move(next);
  if (segments_.size() > peak_vmas_) peak_vmas_ = segments_.size();
}

StatusOr<void*> FaultInjectingVmIo::Mmap(void* addr, size_t len, int prot,
                                         int flags, int fd, off_t offset,
                                         const char* what) {
  const bool file = (flags & MAP_ANONYMOUS) == 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.mmaps;
    const int fail = AdmitOpLocked(VmOp::kMmap);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError(what, fail);
    }
    if (plan_.max_vmas != 0) {
      // Budget check BEFORE the kernel sees the call, like the kernel's own
      // map_count test. For MAP_FIXED the address is known, so the split /
      // merge outcome can be simulated exactly; a kernel-placed mapping is
      // worst-cased as one fresh segment.
      uint64_t prospective;
      if (addr != nullptr && (flags & MAP_FIXED) != 0) {
        SegmentMap probe = segments_;
        const uint64_t start = reinterpret_cast<uint64_t>(addr);
        InsertSegment(&probe, start, start + len, file, file ? fd : -1,
                      static_cast<uint64_t>(offset));
        prospective = probe.size();
      } else {
        prospective = segments_.size() + 1;
      }
      if (prospective > plan_.max_vmas) {
        ++stats_.budget_rejections;
        return InjectedError(what, ENOMEM);
      }
    }
  }
  StatusOr<void*> mapped =
      RealVmIo()->Mmap(addr, len, prot, flags, fd, offset, what);
  if (!mapped.ok()) return mapped;
  const uint64_t start = reinterpret_cast<uint64_t>(*mapped);
  {
    std::lock_guard<std::mutex> lk(mu_);
    SegmentMap next = segments_;
    InsertSegment(&next, start, start + len, file, file ? fd : -1,
                  static_cast<uint64_t>(offset));
    CommitLocked(std::move(next));
  }
  return mapped;
}

Status FaultInjectingVmIo::Munmap(void* addr, size_t len, const char* what) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.munmaps;
    const int fail = AdmitOpLocked(VmOp::kMunmap);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError(what, fail);
    }
  }
  VMSV_RETURN_IF_ERROR(RealVmIo()->Munmap(addr, len, what));
  const uint64_t start = reinterpret_cast<uint64_t>(addr);
  std::lock_guard<std::mutex> lk(mu_);
  SegmentMap next = segments_;
  EraseRange(&next, start, start + len);
  CommitLocked(std::move(next));
  return OkStatus();
}

StatusOr<void*> FaultInjectingVmIo::Mremap(void* old_addr, size_t old_len,
                                           size_t new_len, int flags,
                                           void* new_addr, const char* what) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.mremaps;
    const int fail = AdmitOpLocked(VmOp::kMremap);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError(what, fail);
    }
  }
  return RealVmIo()->Mremap(old_addr, old_len, new_len, flags, new_addr, what);
}

Status FaultInjectingVmIo::Mprotect(void* addr, size_t len, int prot,
                                    const char* what) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.mprotects;
    const int fail = AdmitOpLocked(VmOp::kMprotect);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError(what, fail);
    }
  }
  return RealVmIo()->Mprotect(addr, len, prot, what);
}

Status FaultInjectingVmIo::Madvise(void* addr, size_t len, int advice,
                                   const char* what) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.madvises;
    const int fail = AdmitOpLocked(VmOp::kMadvise);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError(what, fail);
    }
  }
  return RealVmIo()->Madvise(addr, len, advice, what);
}

StatusOr<int> FaultInjectingVmIo::MemfdCreate(const char* name,
                                              unsigned int flags) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.memfd_creates;
    const int fail = AdmitOpLocked(VmOp::kMemfdCreate);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError("memfd_create", fail);
    }
  }
  return RealVmIo()->MemfdCreate(name, flags);
}

Status FaultInjectingVmIo::Ftruncate(int fd, uint64_t len, const char* what) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.ftruncates;
    const int fail = AdmitOpLocked(VmOp::kFtruncate);
    if (fail != 0) {
      ++stats_.faults_injected;
      return InjectedError(what, fail);
    }
  }
  return RealVmIo()->Ftruncate(fd, len, what);
}

}  // namespace vmsv
