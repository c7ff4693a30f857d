#include "rewiring/physical_memory_file.h"

#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "rewiring/vm_io.h"
#include "storage/storage_io.h"

namespace vmsv {

StatusOr<PhysicalMemoryFile> PhysicalMemoryFile::Create(uint64_t pages,
                                                       VmIo* vm_io) {
  if (pages == 0) return InvalidArgument("PhysicalMemoryFile needs >= 1 page");
  VmIo* io = vm_io != nullptr ? vm_io : RealVmIo();
  StatusOr<int> created = io->MemfdCreate("vmsv-column", MFD_CLOEXEC);
  if (!created.ok()) return created.status();
  const int fd = *created;
  Status sized = io->Ftruncate(fd, pages * kPageSize, "ftruncate");
  if (!sized.ok()) {
    ::close(fd);
    return sized;
  }
  PhysicalMemoryFile file(fd, pages, MemoryFileBackend::kMemfd);
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
      path_(std::move(other.path_)), vm_io_(other.vm_io_) {
  other.fd_ = -1;
  other.num_pages_ = 0;
  other.path_.clear();
  other.vm_io_ = nullptr;
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
    other.fd_ = -1;
    other.num_pages_ = 0;
    other.path_.clear();
    other.vm_io_ = nullptr;
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

VmIo* PhysicalMemoryFile::vm_io() const {
  return vm_io_ != nullptr ? vm_io_ : RealVmIo();
}

}  // namespace vmsv
