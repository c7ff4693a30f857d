#include "rewiring/maps_parser.h"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace vmsv {
namespace {

bool ParseHex(std::string_view text, size_t* pos, uint64_t* out) {
  const size_t start = *pos;
  uint64_t value = 0;
  while (*pos < text.size()) {
    const char ch = text[*pos];
    int digit;
    if (ch >= '0' && ch <= '9') digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f') digit = ch - 'a' + 10;
    else if (ch >= 'A' && ch <= 'F') digit = ch - 'A' + 10;
    else break;
    value = (value << 4) | static_cast<uint64_t>(digit);
    ++(*pos);
  }
  if (*pos == start) return false;
  *out = value;
  return true;
}

bool ParseDec(std::string_view text, size_t* pos, uint64_t* out) {
  const size_t start = *pos;
  uint64_t value = 0;
  while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(text[*pos] - '0');
    ++(*pos);
  }
  if (*pos == start) return false;
  *out = value;
  return true;
}

bool Expect(std::string_view text, size_t* pos, char ch) {
  if (*pos >= text.size() || text[*pos] != ch) return false;
  ++(*pos);
  return true;
}

void SkipSpaces(std::string_view text, size_t* pos) {
  while (*pos < text.size() && (text[*pos] == ' ' || text[*pos] == '\t')) {
    ++(*pos);
  }
}

// Format: start-end perms offset dev inode [pathname]
// e.g. "7f1c8a400000-7f1c8a600000 rw-s 00000000 00:01 2049  /memfd:vmsv (deleted)"
Status ParseLine(std::string_view line, MapsEntry* entry) {
  size_t pos = 0;
  if (!ParseHex(line, &pos, &entry->start) || !Expect(line, &pos, '-') ||
      !ParseHex(line, &pos, &entry->end)) {
    return InvalidArgument("bad address range");
  }
  SkipSpaces(line, &pos);
  if (pos + 4 > line.size()) return InvalidArgument("truncated perms");
  const std::string_view perms = line.substr(pos, 4);
  for (const char ch : perms) {
    if (std::strchr("rwxsp-", ch) == nullptr) {
      return InvalidArgument("bad perms field");
    }
  }
  entry->readable = perms[0] == 'r';
  entry->writable = perms[1] == 'w';
  entry->executable = perms[2] == 'x';
  entry->shared = perms[3] == 's';
  pos += 4;
  SkipSpaces(line, &pos);
  if (!ParseHex(line, &pos, &entry->offset)) {
    return InvalidArgument("bad offset");
  }
  SkipSpaces(line, &pos);
  const size_t dev_start = pos;
  uint64_t dev_major = 0, dev_minor = 0;
  if (!ParseHex(line, &pos, &dev_major) || !Expect(line, &pos, ':') ||
      !ParseHex(line, &pos, &dev_minor)) {
    return InvalidArgument("bad device");
  }
  entry->device = std::string(line.substr(dev_start, pos - dev_start));
  SkipSpaces(line, &pos);
  if (!ParseDec(line, &pos, &entry->inode)) {
    return InvalidArgument("bad inode");
  }
  SkipSpaces(line, &pos);
  entry->pathname = std::string(line.substr(pos));
  if (entry->end <= entry->start) return InvalidArgument("empty range");
  return OkStatus();
}

}  // namespace

StatusOr<std::vector<MapsEntry>> ParseMapsText(std::string_view text) {
  std::vector<MapsEntry> entries;
  size_t line_start = 0;
  size_t line_number = 0;
  while (line_start <= text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line = text.substr(line_start, line_end - line_start);
    ++line_number;
    if (!line.empty()) {
      MapsEntry entry;
      const Status st = ParseLine(line, &entry);
      if (!st.ok()) {
        return InvalidArgument("maps line " + std::to_string(line_number) +
                               ": " + st.message());
      }
      entries.push_back(std::move(entry));
    }
    if (line_end == text.size()) break;
    line_start = line_end + 1;
  }
  return entries;
}

namespace {

StatusOr<std::string> ReadProcFile(const char* path) {
  // Read with read(2)-style stdio in one pass; /proc files can't be sized
  // with fseek, so grow a buffer chunk-wise.
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return IoError(std::string("cannot open ") + path);
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return IoError(std::string("error reading ") + path);
  return text;
}

}  // namespace

StatusOr<std::vector<MapsEntry>> ParseSelfMaps() {
  auto text = ReadProcFile("/proc/self/maps");
  if (!text.ok()) return text.status();
  return ParseMapsText(*text);
}

PageBimap BuildArenaBimap(const std::vector<MapsEntry>& entries,
                          const VirtualArena& arena) {
  PageBimap bimap;
  const uint64_t base = reinterpret_cast<uint64_t>(arena.data());
  const uint64_t limit = base + arena.num_slots() * kPageSize;
  for (const MapsEntry& entry : entries) {
    if (entry.start >= limit || entry.end <= base) continue;
    // Only rewired ranges count: they are shared file mappings. The PROT_NONE
    // anonymous reservation shows up as private with no read permission.
    if (!entry.shared || !entry.readable) continue;
    // Clamp to the arena: arenas carry a guard page precisely so the kernel
    // never merges VMAs across arena boundaries, but entries from foreign
    // mappings of the same file could still straddle the range — attribute
    // only the in-arena portion, and never let the subtraction underflow.
    const uint64_t start = entry.start < base ? base : entry.start;
    const uint64_t end = entry.end > limit ? limit : entry.end;
    const uint64_t first_slot = (start - base) / kPageSize;
    const uint64_t first_page = (entry.offset + (start - entry.start)) / kPageSize;
    const uint64_t pages = (end - start) / kPageSize;
    for (uint64_t i = 0; i < pages; ++i) {
      bimap.Insert(first_slot + i, first_page + i);
    }
  }
  return bimap;
}

uint64_t CountArenaFileMappings(const std::vector<MapsEntry>& entries,
                                const VirtualArena& arena) {
  const uint64_t base = reinterpret_cast<uint64_t>(arena.data());
  const uint64_t limit = base + arena.num_slots() * kPageSize;
  uint64_t count = 0;
  for (const MapsEntry& entry : entries) {
    if (entry.start >= limit || entry.end <= base) continue;
    if (entry.shared && entry.readable) ++count;
  }
  return count;
}

uint64_t CountProcessVmas() {
  auto entries = ParseSelfMaps();
  if (!entries.ok()) return 0;
  return entries->size();
}

}  // namespace vmsv
