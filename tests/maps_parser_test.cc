#include "rewiring/maps_parser.h"

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

namespace vmsv {
namespace {

constexpr const char kCannedMaps[] =
    "00400000-00452000 r-xp 00000000 08:02 173521  /usr/bin/dbus-daemon\n"
    "7f1c8a400000-7f1c8a402000 rw-s 00003000 00:01 2049  /memfd:vmsv-column (deleted)\n"
    "7f1c8a402000-7f1c8a403000 ---p 00000000 00:00 0 \n"
    "7fffb2c0d000-7fffb2c2e000 rw-p 00000000 00:00 0  [stack]\n";

// The durable backend's mapping lines: a NAMED path on a real filesystem
// (not memfd:/anon), exactly what /proc/self/maps shows for a file-backed
// column after rewiring.
constexpr const char kFileBackedMaps[] =
    "7f0a10000000-7f0a10004000 rw-s 00008000 08:10 131077 "
    "/var/lib/vmsv/db/column.dat\n"
    "7f0a10004000-7f0a10005000 rw-s 00000000 08:10 131077 "
    "/var/lib/vmsv/db/column.dat\n"
    "7f0a10005000-7f0a10006000 rw-s 0001f000 fe:02 42 "
    "/data/with spaces/column.dat\n";

TEST(MapsParserTest, ParsesAllFields) {
  auto entries_r = ParseMapsText(kCannedMaps);
  ASSERT_TRUE(entries_r.ok()) << entries_r.status().ToString();
  const auto& entries = *entries_r;
  ASSERT_EQ(entries.size(), 4u);

  const MapsEntry& exe = entries[0];
  EXPECT_EQ(exe.start, 0x400000u);
  EXPECT_EQ(exe.end, 0x452000u);
  EXPECT_TRUE(exe.readable);
  EXPECT_FALSE(exe.writable);
  EXPECT_TRUE(exe.executable);
  EXPECT_FALSE(exe.shared);
  EXPECT_EQ(exe.offset, 0u);
  EXPECT_EQ(exe.device, "08:02");
  EXPECT_EQ(exe.inode, 173521u);
  EXPECT_EQ(exe.pathname, "/usr/bin/dbus-daemon");

  const MapsEntry& memfd = entries[1];
  EXPECT_EQ(memfd.start, 0x7f1c8a400000u);
  EXPECT_TRUE(memfd.shared);
  EXPECT_TRUE(memfd.writable);
  EXPECT_EQ(memfd.offset, 0x3000u);
  EXPECT_EQ(memfd.num_pages(), 2u);
  EXPECT_EQ(memfd.pathname, "/memfd:vmsv-column (deleted)");

  const MapsEntry& reserved = entries[2];
  EXPECT_FALSE(reserved.readable);
  EXPECT_FALSE(reserved.shared);
  EXPECT_EQ(reserved.num_pages(), 1u);

  EXPECT_EQ(entries[3].pathname, "[stack]");
}

TEST(MapsParserTest, ParsesFileBackedMappingLines) {
  auto entries_r = ParseMapsText(kFileBackedMaps);
  ASSERT_TRUE(entries_r.ok()) << entries_r.status().ToString();
  const auto& entries = *entries_r;
  ASSERT_EQ(entries.size(), 3u);

  const MapsEntry& run = entries[0];
  EXPECT_EQ(run.start, 0x7f0a10000000u);
  EXPECT_EQ(run.num_pages(), 4u);  // a coalesced 4-page rewiring
  EXPECT_TRUE(run.shared);
  EXPECT_TRUE(run.writable);
  EXPECT_EQ(run.offset, 0x8000u);
  EXPECT_EQ(run.inode, 131077u);
  EXPECT_EQ(run.device, "08:10");
  EXPECT_EQ(run.pathname, "/var/lib/vmsv/db/column.dat");

  // Two mappings of the same file at different offsets stay distinct
  // entries (page 0 rewired after page 8: the kernel cannot merge them).
  EXPECT_EQ(entries[1].pathname, entries[0].pathname);
  EXPECT_EQ(entries[1].offset, 0u);

  // Paths containing spaces parse whole.
  EXPECT_EQ(entries[2].pathname, "/data/with spaces/column.dat");
  EXPECT_EQ(entries[2].offset, 0x1f000u);
}

TEST(BuildArenaBimapTest, RecoversFileBackedArenaMappings) {
  // The §2.5 recovery path against the DURABLE backend: slots rewired over
  // a real file (named path in maps, not memfd:/anon) must be recoverable
  // exactly like the anonymous backends.
  char tmpl[] = "/tmp/vmsv_maps_file_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/column.dat";
  {
    auto file_r = PhysicalMemoryFile::CreateAt(path, 8);
    ASSERT_TRUE(file_r.ok()) << file_r.status().ToString();
    auto file =
        std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
    auto arena_r = VirtualArena::Create(file, 8);
    ASSERT_TRUE(arena_r.ok());
    auto& arena = *arena_r;

    ASSERT_TRUE(arena->MapRange(0, 6, 2).ok());  // slots 0,1 -> pages 6,7
    ASSERT_TRUE(arena->MapRange(3, 1, 1).ok());

    auto entries_r = ParseSelfMaps();
    ASSERT_TRUE(entries_r.ok());
    // The arena's mappings appear under the file's real path.
    bool saw_named_mapping = false;
    for (const MapsEntry& entry : *entries_r) {
      if (entry.pathname.find("column.dat") != std::string::npos) {
        saw_named_mapping = true;
        EXPECT_TRUE(entry.shared);
      }
    }
    EXPECT_TRUE(saw_named_mapping);

    const PageBimap bimap = BuildArenaBimap(*entries_r, *arena);
    EXPECT_EQ(bimap.size(), 3u);
    EXPECT_EQ(bimap.PageOfSlot(0), 6);
    EXPECT_EQ(bimap.PageOfSlot(1), 7);
    EXPECT_EQ(bimap.PageOfSlot(3), 1);
    EXPECT_EQ(bimap.PageOfSlot(2), -1);
    for (uint64_t slot = 0; slot < arena->num_slots(); ++slot) {
      EXPECT_EQ(bimap.PageOfSlot(slot), arena->SlotFilePage(slot))
          << "slot " << slot;
    }
  }
  ::unlink(path.c_str());
  ::rmdir(tmpl);
}

TEST(MapsParserTest, SkipsBlankLines) {
  auto entries_r = ParseMapsText(
      "\n00400000-00401000 r--p 00000000 00:00 0 \n\n");
  ASSERT_TRUE(entries_r.ok());
  EXPECT_EQ(entries_r->size(), 1u);
}

TEST(MapsParserTest, EmptyInputYieldsNoEntries) {
  auto entries_r = ParseMapsText("");
  ASSERT_TRUE(entries_r.ok());
  EXPECT_TRUE(entries_r->empty());
}

TEST(MapsParserTest, MalformedLineFailsWithLineNumber) {
  auto entries_r = ParseMapsText(
      "00400000-00401000 r--p 00000000 00:00 0 \n"
      "this is not a maps line\n");
  ASSERT_FALSE(entries_r.ok());
  EXPECT_NE(entries_r.status().message().find("line 2"), std::string::npos);
}

TEST(MapsParserTest, RejectsEmptyRange) {
  auto entries_r =
      ParseMapsText("00400000-00400000 r--p 00000000 00:00 0 \n");
  EXPECT_FALSE(entries_r.ok());
}

TEST(MapsParserTest, ParsesOwnMapsFile) {
  auto entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok()) << entries_r.status().ToString();
  // Any process has at least its executable, heap, stack, and libc mapped.
  EXPECT_GT(entries_r->size(), 4u);
}

TEST(BuildArenaBimapTest, RecoversSlotToPageMapping) {
  auto file_r = PhysicalMemoryFile::Create(8);
  ASSERT_TRUE(file_r.ok());
  auto file = std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto arena_r = VirtualArena::Create(file, 8);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;

  // Scattered single-page rewirings plus one coalesced run.
  ASSERT_TRUE(arena->MapRange(0, 5, 1).ok());
  ASSERT_TRUE(arena->MapRange(2, 7, 1).ok());
  ASSERT_TRUE(arena->MapRange(4, 1, 3).ok());  // slots 4,5,6 -> pages 1,2,3

  auto entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok());
  const PageBimap bimap = BuildArenaBimap(*entries_r, *arena);

  EXPECT_EQ(bimap.size(), 5u);
  EXPECT_EQ(bimap.PageOfSlot(0), 5);
  EXPECT_EQ(bimap.PageOfSlot(2), 7);
  EXPECT_EQ(bimap.PageOfSlot(4), 1);
  EXPECT_EQ(bimap.PageOfSlot(5), 2);
  EXPECT_EQ(bimap.PageOfSlot(6), 3);
  EXPECT_EQ(bimap.PageOfSlot(1), -1);
  EXPECT_EQ(bimap.SlotOfPage(7), 2);
  EXPECT_TRUE(bimap.ContainsPage(2));
  EXPECT_FALSE(bimap.ContainsPage(0));

  // The bimap must agree with the arena's own user-space table.
  for (uint64_t slot = 0; slot < arena->num_slots(); ++slot) {
    EXPECT_EQ(bimap.PageOfSlot(slot), arena->SlotFilePage(slot))
        << "slot " << slot;
  }
}

TEST(CountArenaFileMappingsTest, CountsVmas) {
  auto file_r = PhysicalMemoryFile::Create(8);
  ASSERT_TRUE(file_r.ok());
  auto file = std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto arena_r = VirtualArena::Create(file, 8);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;

  auto entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok());
  EXPECT_EQ(CountArenaFileMappings(*entries_r, *arena), 0u);

  // Two isolated mappings (slots 0 and 2) -> two VMAs; a coalesced run of
  // three pages -> one more.
  ASSERT_TRUE(arena->MapRange(0, 0, 1).ok());
  ASSERT_TRUE(arena->MapRange(2, 2, 1).ok());
  ASSERT_TRUE(arena->MapRange(4, 4, 3).ok());
  entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok());
  EXPECT_EQ(CountArenaFileMappings(*entries_r, *arena), 3u);
}

}  // namespace
}  // namespace vmsv
