// PhysicalMemoryFile — the main-memory file whose pages back every storage
// view (paper §2.1). Rewiring maps page ranges of this file into virtual
// address ranges; two backends are supported:
//
//   - memfd:  anonymous memory file via memfd_create(2) (default),
//   - file:   a named file on a real filesystem (the durable backend) —
//             identical rewiring semantics, since VirtualArena maps the fd
//             MAP_SHARED either way, but the pages survive the process and
//             Sync() can force them to stable storage.
//
// The file itself owns only the descriptor and its size. All address-space
// manipulation lives in VirtualArena. The anonymous backend goes through
// Create(); the durable backend through CreateAt()/OpenAt(), which take a
// path.

#ifndef VMSV_REWIRING_PHYSICAL_MEMORY_FILE_H_
#define VMSV_REWIRING_PHYSICAL_MEMORY_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace vmsv {

class StorageIo;
class VmIo;

/// One storage page: 4 KiB, the rewiring granularity.
inline constexpr uint64_t kPageSize = 4096;

enum class MemoryFileBackend {
  kMemfd,
  /// A named file on a real filesystem; needs a path (CreateAt/OpenAt).
  kFile,
};

class PhysicalMemoryFile {
 public:
  /// Creates an anonymous main-memory file of `pages` zero-filled pages.
  /// `vm_io` (null = real syscalls) routes memfd_create/ftruncate through a
  /// VmIo seam and is installed on the returned file, so every arena built
  /// over it inherits the seam.
  static StatusOr<PhysicalMemoryFile> Create(uint64_t pages,
                                             VmIo* vm_io = nullptr);

  /// Creates (O_CREAT | O_TRUNC) a file-backed memory file of `pages`
  /// zero-filled pages at `path`. The parent directory must exist.
  static StatusOr<PhysicalMemoryFile> CreateAt(const std::string& path,
                                               uint64_t pages);

  /// Opens an existing file-backed memory file. Its size must be exactly
  /// `expected_pages` whole pages (the manifest's geometry record).
  /// Error contract: NotFound when the file does not exist, IoError /
  /// FailedPrecondition on size mismatch.
  static StatusOr<PhysicalMemoryFile> OpenAt(const std::string& path,
                                             uint64_t expected_pages);

  PhysicalMemoryFile(PhysicalMemoryFile&& other) noexcept;
  PhysicalMemoryFile& operator=(PhysicalMemoryFile&& other) noexcept;
  PhysicalMemoryFile(const PhysicalMemoryFile&) = delete;
  PhysicalMemoryFile& operator=(const PhysicalMemoryFile&) = delete;
  ~PhysicalMemoryFile();

  int fd() const { return fd_; }
  uint64_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return num_pages_ * kPageSize; }
  MemoryFileBackend backend() const { return backend_; }
  /// Backing path; empty for the anonymous backend.
  const std::string& path() const { return path_; }

  /// The VmIo every address-space operation over this file routes through.
  /// Null means real syscalls; tests inject a FaultInjectingVmIo here. Not
  /// owned; must outlive the file and every arena built over it. vm_io()
  /// never returns null — it resolves to the process-wide passthrough.
  void set_vm_io(VmIo* io) { vm_io_ = io; }
  VmIo* vm_io() const;

  /// Pushes dirty pages toward stable storage. `wait` blocks until the data
  /// is durable (fdatasync); otherwise writeback is merely initiated
  /// (sync_file_range where available, else a no-op). MAP_SHARED mappings
  /// dirty the page cache directly, so syncing the fd covers every arena
  /// mapped over this file — no per-arena msync needed. No-op (OK) for the
  /// anonymous backend, which has no stable storage to reach. `io` routes
  /// the fdatasync / sync_file_range through a StorageIo (null = real I/O),
  /// letting the crash matrix interpose on data writeback too.
  Status Sync(bool wait, StorageIo* io = nullptr);

 private:
  PhysicalMemoryFile(int fd, uint64_t pages, MemoryFileBackend backend,
                     std::string path = {})
      : fd_(fd), num_pages_(pages), backend_(backend), path_(std::move(path)) {}

  int fd_ = -1;
  uint64_t num_pages_ = 0;
  MemoryFileBackend backend_ = MemoryFileBackend::kMemfd;
  std::string path_;
  VmIo* vm_io_ = nullptr;
};

}  // namespace vmsv

#endif  // VMSV_REWIRING_PHYSICAL_MEMORY_FILE_H_
