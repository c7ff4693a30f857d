#include "rewiring/physical_memory_file.h"

#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "rewiring/hugepage.h"
#include "rewiring/vm_io.h"
#include "storage/storage_io.h"
#include "util/macros.h"

namespace vmsv {

const char* HugeBackingName(HugeBacking backing) {
  switch (backing) {
    case HugeBacking::kNone: return "none";
    case HugeBacking::kThp: return "thp";
    case HugeBacking::kHugetlb: return "hugetlb";
  }
  return "unknown";
}

namespace {

/// Tries to deliver a hugetlb-backed memfd for `pages` (a whole number of
/// 2 MiB units). Returns -1 on ANY failure — no pool, injected fault,
/// kernel without MFD_HUGETLB — and the caller degrades to the next
/// backing flavor. The probe maps the WHOLE file once: hugetlb reserves
/// pool frames at mmap time, so an undersized pool fails here with a clean
/// ENOMEM before any data lands in the file, rather than SIGBUSing a scan
/// later.
int TryCreateHugetlbMemfd(VmIo* io, uint64_t pages) {
  StatusOr<int> created = io->MemfdCreate(
      "vmsv-column-hugetlb", MFD_CLOEXEC | MFD_HUGETLB | MFD_HUGE_2MB);
  if (!created.ok()) return -1;
  const int fd = *created;
  const uint64_t bytes = pages * kPageSize;
  if (io->Ftruncate(fd, bytes, "ftruncate(hugetlb)").ok()) {
    StatusOr<void*> probe =
        io->Mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0,
                 "mmap(hugetlb reservation probe)");
    if (probe.ok()) {
      (void)io->Munmap(*probe, bytes, "munmap(hugetlb reservation probe)");
      return fd;
    }
  }
  ::close(fd);
  return -1;
}

}  // namespace

StatusOr<PhysicalMemoryFile> PhysicalMemoryFile::Create(
    uint64_t pages, MemoryFileBackend backend, VmIo* vm_io,
    HugePageRequest huge) {
  if (pages == 0) return InvalidArgument("PhysicalMemoryFile needs >= 1 page");
  if (backend == MemoryFileBackend::kFile) {
    return InvalidArgument(
        "file backend needs a path: use CreateAt/OpenAt, not Create");
  }
  VmIo* io = vm_io != nullptr ? vm_io : RealVmIo();
  int fd = -1;
  HugeBacking huge_backing = HugeBacking::kNone;
  // The probe chain: hugetlb (opt-in) -> THP-capable -> plain 4 KiB. Every
  // failure is an intentional degradation, never an error: huge pages are a
  // perf flavor, not a correctness requirement.
  if (huge != HugePageRequest::kNone && !HugePagesDisabledByEnv()) {
    const bool try_hugetlb =
        huge == HugePageRequest::kHugetlb ||
        (huge == HugePageRequest::kAuto && HugetlbRequestedByEnv());
    if (try_hugetlb && pages % kPagesPerHugeUnit == 0) {
      fd = TryCreateHugetlbMemfd(io, pages);
      if (fd >= 0) huge_backing = HugeBacking::kHugetlb;
    }
    if (fd < 0 && ThpShmemEligible()) huge_backing = HugeBacking::kThp;
  }
  if (fd < 0) {  // the hugetlb path delivers a sized fd already
    StatusOr<int> created = io->MemfdCreate("vmsv-column", MFD_CLOEXEC);
    if (!created.ok()) return created.status();
    fd = *created;
  }
  if (huge_backing != HugeBacking::kHugetlb) {
    // The hugetlb path sized its fd during the probe.
    Status sized = io->Ftruncate(fd, pages * kPageSize, "ftruncate");
    if (!sized.ok()) {
      ::close(fd);
      return sized;
    }
  }
  PhysicalMemoryFile file(fd, pages, backend);
  file.huge_backing_ = huge_backing;
  file.set_vm_io(vm_io);
  return StatusOr<PhysicalMemoryFile>(std::move(file));
}

StatusOr<PhysicalMemoryFile> PhysicalMemoryFile::CreateAt(
    const std::string& path, uint64_t pages) {
  if (pages == 0) return InvalidArgument("PhysicalMemoryFile needs >= 1 page");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return ErrnoError(("open " + path).c_str(), errno);
  if (::ftruncate(fd, static_cast<off_t>(pages * kPageSize)) != 0) {
    const int saved = errno;
    ::close(fd);
    return ErrnoError("ftruncate", saved);
  }
  return PhysicalMemoryFile(fd, pages, MemoryFileBackend::kFile, path);
}

StatusOr<PhysicalMemoryFile> PhysicalMemoryFile::OpenAt(
    const std::string& path, uint64_t expected_pages) {
  if (expected_pages == 0) {
    return InvalidArgument("PhysicalMemoryFile needs >= 1 page");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    const int saved = errno;
    if (saved == ENOENT) return NotFound("no column file at " + path);
    return ErrnoError(("open " + path).c_str(), saved);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    return ErrnoError("fstat", saved);
  }
  if (static_cast<uint64_t>(st.st_size) != expected_pages * kPageSize) {
    ::close(fd);
    return FailedPrecondition(
        path + " is " + std::to_string(st.st_size) + " bytes, expected " +
        std::to_string(expected_pages * kPageSize) +
        " (column geometry mismatch with the manifest)");
  }
  return PhysicalMemoryFile(fd, expected_pages, MemoryFileBackend::kFile, path);
}

PhysicalMemoryFile::PhysicalMemoryFile(PhysicalMemoryFile&& other) noexcept
    : fd_(other.fd_), num_pages_(other.num_pages_), backend_(other.backend_),
      path_(std::move(other.path_)), vm_io_(other.vm_io_),
      huge_backing_(other.huge_backing_) {
  other.fd_ = -1;
  other.num_pages_ = 0;
  other.path_.clear();
  other.vm_io_ = nullptr;
  other.huge_backing_ = HugeBacking::kNone;
}

PhysicalMemoryFile& PhysicalMemoryFile::operator=(
    PhysicalMemoryFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    num_pages_ = other.num_pages_;
    backend_ = other.backend_;
    path_ = std::move(other.path_);
    vm_io_ = other.vm_io_;
    huge_backing_ = other.huge_backing_;
    other.fd_ = -1;
    other.num_pages_ = 0;
    other.path_.clear();
    other.vm_io_ = nullptr;
    other.huge_backing_ = HugeBacking::kNone;
  }
  return *this;
}

PhysicalMemoryFile::~PhysicalMemoryFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PhysicalMemoryFile::Sync(bool wait, StorageIo* io) {
  if (backend_ != MemoryFileBackend::kFile) return OkStatus();
  if (io == nullptr) io = RealStorageIo();
  if (wait) return io->Fsync(fd_, "fdatasync(column data)");
  // Kick off writeback of everything dirty without waiting for completion.
  return io->SyncFileRange(fd_, "sync_file_range(column data)");
}

Status PhysicalMemoryFile::Grow(uint64_t new_pages) {
  if (new_pages <= num_pages_) return OkStatus();
  if (huge_backing_ == HugeBacking::kHugetlb) {
    // A hugetlb file's length must be a whole number of 2 MiB units.
    new_pages = (new_pages + kPagesPerHugeUnit - 1) / kPagesPerHugeUnit *
                kPagesPerHugeUnit;
  }
  VMSV_RETURN_IF_ERROR(
      vm_io()->Ftruncate(fd_, new_pages * kPageSize, "ftruncate(grow)"));
  num_pages_ = new_pages;
  return OkStatus();
}

VmIo* PhysicalMemoryFile::vm_io() const {
  return vm_io_ != nullptr ? vm_io_ : RealVmIo();
}

}  // namespace vmsv
