#include "storage/cold_tier.h"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "storage/journal.h"  // Crc32
#include "storage/storage_io.h"
#include "util/macros.h"

namespace vmsv {

namespace {

constexpr char kColdMagic[8] = {'V', 'M', 'S', 'V', 'C', 'L', 'D', '1'};

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

std::string ColdFilePath(const std::string& dir, uint64_t view_id) {
  return dir + "/view_" + std::to_string(view_id) + ".cold";
}

Status WriteColdViewFile(const std::string& dir, uint64_t view_id,
                         const std::vector<uint64_t>& pages, bool sync,
                         StorageIo* io) {
  if (io == nullptr) io = RealStorageIo();
  std::string buf;
  buf.reserve(sizeof(kColdMagic) + (2 + pages.size()) * sizeof(uint64_t) +
              sizeof(uint32_t));
  buf.append(kColdMagic, sizeof(kColdMagic));
  PutU64(&buf, view_id);
  PutU64(&buf, pages.size());
  if (!pages.empty()) {  // an empty vector's data() may be null
    buf.append(reinterpret_cast<const char*>(pages.data()),
               pages.size() * sizeof(uint64_t));
  }
  uint32_t crc = Crc32(buf.data(), buf.size());
  buf.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  const std::string path = ColdFilePath(dir, view_id);
  const std::string tmp_path = path + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError(("open " + tmp_path).c_str(), errno);
  Status st = io->Write(fd, buf.data(), buf.size(), "write(cold view)");
  // Like the manifest snapshot: the tmp file is always fsynced before the
  // rename — after the rename there is no previous copy to fall back to if
  // the device silently dropped the write.
  if (st.ok()) st = io->Fsync(fd, "fdatasync(cold view)");
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }
  st = io->Rename(tmp_path, path);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }
  if (sync) return io->FsyncDir(dir);
  return OkStatus();
}

StatusOr<std::vector<uint64_t>> ReadColdViewFile(const std::string& dir,
                                                 uint64_t view_id) {
  const std::string path = ColdFilePath(dir, view_id);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int saved = errno;
    if (saved == ENOENT) return NotFound("no cold file at " + path);
    return ErrnoError(("open " + path).c_str(), saved);
  }
  std::string buf;
  char chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    buf.append(chunk, static_cast<size_t>(n));
  }
  const int saved = errno;
  ::close(fd);
  if (n < 0) return ErrnoError("read(cold view)", saved);

  const size_t min_size =
      sizeof(kColdMagic) + 2 * sizeof(uint64_t) + sizeof(uint32_t);
  if (buf.size() < min_size ||
      std::memcmp(buf.data(), kColdMagic, sizeof(kColdMagic)) != 0) {
    return IoError(path + " is not a vmsv cold view file (bad magic)");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + buf.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (Crc32(buf.data(), buf.size() - sizeof(uint32_t)) != stored_crc) {
    return IoError(path + " failed its checksum (torn or corrupt cold file)");
  }

  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buf.data()) + sizeof(kColdMagic);
  uint64_t stored_id = 0, page_count = 0;
  std::memcpy(&stored_id, p, sizeof(stored_id));
  std::memcpy(&page_count, p + sizeof(uint64_t), sizeof(page_count));
  if (stored_id != view_id) {
    return IoError(path + ": cold file id " + std::to_string(stored_id) +
                   " does not match view " + std::to_string(view_id));
  }
  const size_t payload = buf.size() - min_size;
  if (page_count != payload / sizeof(uint64_t) ||
      page_count * sizeof(uint64_t) != payload) {
    return IoError(path + ": page count " + std::to_string(page_count) +
                   " does not match the file size");
  }
  std::vector<uint64_t> pages(page_count);
  if (page_count > 0) {  // an empty vector's data() may be null
    std::memcpy(pages.data(), p + 2 * sizeof(uint64_t),
                page_count * sizeof(uint64_t));
  }
  return pages;
}

void RemoveColdViewFile(const std::string& dir, uint64_t view_id) {
  ::unlink(ColdFilePath(dir, view_id).c_str());
}

namespace {

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Parses the <id> out of "view_<id>.cold"; false when the middle is not
/// a pure decimal number (some other file that merely shares the shape).
bool ParseColdFileId(const std::string& name, uint64_t* id) {
  constexpr size_t kPrefixLen = 5;  // "view_"
  constexpr size_t kSuffixLen = 5;  // ".cold"
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  uint64_t value = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

}  // namespace

void SweepColdViewFiles(const std::string& dir,
                        const std::unordered_set<uint64_t>& keep_ids) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  const std::filesystem::directory_iterator end;
  while (it != end) {
    const std::string name = it->path().filename().string();
    const std::string path = it->path().string();
    it.increment(ec);
    if (ec) return;
    if (!HasPrefix(name, "view_")) continue;
    if (HasSuffix(name, ".cold.tmp")) {
      // A crashed spill's tmp file: never referenced by anything (the
      // rename is what publishes it), always reclaimable.
      ::unlink(path.c_str());
      continue;
    }
    uint64_t id = 0;
    if (!HasSuffix(name, ".cold") || !ParseColdFileId(name, &id)) continue;
    if (keep_ids.count(id) == 0) ::unlink(path.c_str());
  }
}

}  // namespace vmsv
