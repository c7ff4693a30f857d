#include "storage/manifest.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "storage/journal.h"  // Crc32
#include "storage/storage_io.h"
#include "util/macros.h"

namespace vmsv {

namespace {

constexpr char kManifestMagic[8] = {'V', 'M', 'S', 'V', 'M', 'A', 'N', '1'};
constexpr uint32_t kManifestVersion = 4;
/// Header: magic + version + reserved + num_rows + num_pages + crc.
constexpr size_t kHeaderSize = sizeof(kManifestMagic) + 2 * sizeof(uint32_t) +
                               2 * sizeof(uint64_t) + sizeof(uint32_t);

constexpr char kSlotMagic[8] = {'V', 'M', 'S', 'V', 'P', 'O', 'O', 'L'};
/// Slot record: magic + sequence + view count, 4 u64 per view, crc.
constexpr size_t kSlotHeadSize = sizeof(kSlotMagic) + 2 * sizeof(uint64_t);
constexpr size_t kSlotViewSize = 4 * sizeof(uint64_t);

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Reads the whole file behind `fd` into `out`.
Status ReadAll(int fd, const std::string& path, std::string* out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return ErrnoError(("fstat " + path).c_str(), errno);
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n = ::pread(fd, out->data() + done, out->size() - done,
                              static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoError(("pread " + path).c_str(), errno);
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  out->resize(done);
  return OkStatus();
}

}  // namespace

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ManifestSlotPath(const std::string& dir, int slot) {
  return ManifestPath(dir) + "." + std::to_string(slot);
}

uint64_t ManifestSlotBytes(uint64_t views) {
  return kSlotHeadSize + views * kSlotViewSize + sizeof(uint32_t);
}

Status WriteManifestHeader(const std::string& dir, const ManifestHeader& header,
                           StorageIo* io) {
  if (io == nullptr) io = RealStorageIo();
  std::string buf(kManifestMagic, sizeof(kManifestMagic));
  PutU32(&buf, kManifestVersion);
  PutU32(&buf, 0);  // reserved
  PutU64(&buf, header.num_rows);
  PutU64(&buf, header.num_pages);
  PutU32(&buf, Crc32(buf.data(), buf.size()));
  const std::string path = ManifestPath(dir);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError(("open " + path).c_str(), errno);
  Status st = io->Write(fd, buf.data(), buf.size(), "write(manifest)");
  if (st.ok()) st = io->Fsync(fd, "fdatasync(manifest)");
  ::close(fd);
  return st;
}

StatusOr<ManifestHeader> ReadManifestHeader(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int saved = errno;
    if (saved == ENOENT) return NotFound("no manifest at " + path);
    return ErrnoError(("open " + path).c_str(), saved);
  }
  std::string buf;
  const Status read = ReadAll(fd, path, &buf);
  ::close(fd);
  VMSV_RETURN_IF_ERROR(read);

  const size_t version_end = sizeof(kManifestMagic) + sizeof(uint32_t);
  if (buf.size() < version_end ||
      std::memcmp(buf.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return IoError(path + " is not a vmsv manifest (bad magic)");
  }
  // The version comes first: a directory in an older layout is refused by
  // name, not as a torn file.
  const uint32_t version = GetU32(buf.data() + sizeof(kManifestMagic));
  if (version != kManifestVersion) {
    return IoError(path + ": manifest version " + std::to_string(version) +
                   ", expected " + std::to_string(kManifestVersion));
  }
  if (buf.size() != kHeaderSize ||
      GetU32(buf.data() + kHeaderSize - sizeof(uint32_t)) !=
          Crc32(buf.data(), kHeaderSize - sizeof(uint32_t))) {
    return IoError(path + " failed its length or checksum check");
  }
  ManifestHeader header;
  header.num_rows = GetU64(buf.data() + version_end + sizeof(uint32_t));
  header.num_pages = GetU64(buf.data() + version_end + sizeof(uint32_t) +
                            sizeof(uint64_t));
  return header;
}

std::string EncodeManifestPool(uint64_t seq,
                               const std::vector<ManifestView>& views) {
  std::string buf;
  buf.reserve(ManifestSlotBytes(views.size()));
  buf.append(kSlotMagic, sizeof(kSlotMagic));
  PutU64(&buf, seq);
  PutU64(&buf, views.size());
  for (const ManifestView& view : views) {
    PutU64(&buf, view.lo);
    PutU64(&buf, view.hi);
    PutU64(&buf, view.creation_scanned_pages);
    PutU64(&buf, 0);  // flags
  }
  PutU32(&buf, Crc32(buf.data(), buf.size()));
  return buf;
}

std::optional<ManifestPool> DecodeManifestPool(const std::string& bytes) {
  if (bytes.size() < ManifestSlotBytes(0) ||
      std::memcmp(bytes.data(), kSlotMagic, sizeof(kSlotMagic)) != 0) {
    return std::nullopt;
  }
  const uint64_t count = GetU64(bytes.data() + sizeof(kSlotMagic) + 8);
  // Division, not multiplication: a crafted count must not overflow the
  // bound into passing, and nothing is allocated before it holds.
  if (count > (bytes.size() - ManifestSlotBytes(0)) / kSlotViewSize) {
    return std::nullopt;
  }
  const size_t used = ManifestSlotBytes(count) - sizeof(uint32_t);
  if (GetU32(bytes.data() + used) != Crc32(bytes.data(), used)) {
    return std::nullopt;
  }
  ManifestPool pool;
  pool.seq = GetU64(bytes.data() + sizeof(kSlotMagic));
  pool.views.reserve(count);
  for (const char* p = bytes.data() + kSlotHeadSize;
       p < bytes.data() + used; p += kSlotViewSize) {
    ManifestView view;
    view.lo = GetU64(p);
    view.hi = GetU64(p + 8);
    view.creation_scanned_pages = GetU64(p + 16);
    pool.views.push_back(view);
  }
  return pool;
}

// ---------------------------------------------------------------------------
// ManifestSlots

StatusOr<ManifestSlots::Opened> ManifestSlots::Open(const std::string& dir,
                                                    bool create,
                                                    StorageIo* io) {
  if (io == nullptr) io = RealStorageIo();
  const int flags = O_RDWR | O_CLOEXEC | (create ? O_CREAT | O_TRUNC : 0);
  int fds[2] = {-1, -1};
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path = ManifestSlotPath(dir, slot);
    fds[slot] = ::open(path.c_str(), flags, 0644);
    if (fds[slot] < 0) {
      const int saved = errno;
      if (slot == 1) ::close(fds[0]);
      return ErrnoError(("open " + path).c_str(), saved);
    }
  }
  Opened out;
  out.slots = std::unique_ptr<ManifestSlots>(new ManifestSlots(fds[0], fds[1], io));
  if (create) return out;
  for (int slot = 0; slot < 2; ++slot) {
    std::string bytes;
    VMSV_RETURN_IF_ERROR(ReadAll(fds[slot], ManifestSlotPath(dir, slot), &bytes));
    std::optional<ManifestPool> pool = DecodeManifestPool(bytes);
    if (!pool.has_value() || (out.pool.has_value() && pool->seq <= out.pool->seq)) {
      continue;
    }
    out.slots->seq_ = pool->seq;
    out.slots->newest_ = slot;
    out.pool = std::move(pool);
  }
  return out;
}

ManifestSlots::~ManifestSlots() {
  for (const int fd : fds_) ::close(fd);
}

Status ManifestSlots::Write(const std::vector<ManifestView>& views, bool sync) {
  const int target = 1 - newest_;
  const std::string bytes = EncodeManifestPool(seq_ + 1, views);
  VMSV_RETURN_IF_ERROR(io_->Pwrite(fds_[target], bytes.data(), bytes.size(), 0,
                                   "pwrite(manifest slot)"));
  if (sync) {
    VMSV_RETURN_IF_ERROR(io_->Fsync(fds_[target], "fdatasync(manifest slot)"));
  }
  newest_ = target;
  ++seq_;
  return OkStatus();
}

}  // namespace vmsv
