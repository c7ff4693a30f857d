#include "rewiring/virtual_arena.h"

#include <cstring>

#include <gtest/gtest.h>

#include "rewiring/maps_parser.h"

namespace vmsv {
namespace {

std::shared_ptr<PhysicalMemoryFile> MakeFile(uint64_t pages) {
  auto file_r = PhysicalMemoryFile::Create(pages);
  EXPECT_TRUE(file_r.ok()) << file_r.status().ToString();
  return std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
}

void WriteMarker(VirtualArena& arena, uint64_t slot, uint64_t marker) {
  std::memcpy(arena.SlotData(slot), &marker, sizeof(marker));
}

uint64_t ReadMarker(const VirtualArena& arena, uint64_t slot) {
  uint64_t marker = 0;
  std::memcpy(&marker, arena.SlotData(slot), sizeof(marker));
  return marker;
}

TEST(VirtualArenaTest, CreateValidatesArguments) {
  auto file = MakeFile(2);
  EXPECT_FALSE(VirtualArena::Create(nullptr, 2).ok());
  EXPECT_FALSE(VirtualArena::Create(file, 0).ok());
  EXPECT_TRUE(VirtualArena::Create(file, 2).ok());
}

TEST(VirtualArenaTest, MapRangeBoundsChecked) {
  auto file = MakeFile(2);
  auto arena_r = VirtualArena::Create(file, 4);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  EXPECT_FALSE(arena->MapRange(3, 0, 2).ok());  // beyond arena
  EXPECT_FALSE(arena->MapRange(0, 1, 2).ok());  // beyond file
  EXPECT_TRUE(arena->MapRange(0, 0, 2).ok());
}

TEST(VirtualArenaTest, TwoSlotsRewiredOntoSamePageAlias) {
  // The defining property of rewiring: distinct virtual ranges backed by the
  // same physical page observe each other's writes.
  auto file = MakeFile(1);
  auto arena_r = VirtualArena::Create(file, 2);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  ASSERT_TRUE(arena->MapRange(0, 0, 1).ok());
  ASSERT_TRUE(arena->MapRange(1, 0, 1).ok());

  WriteMarker(*arena, 0, 0xdeadbeefcafef00dull);
  EXPECT_EQ(ReadMarker(*arena, 1), 0xdeadbeefcafef00dull);
  WriteMarker(*arena, 1, 0x1122334455667788ull);
  EXPECT_EQ(ReadMarker(*arena, 0), 0x1122334455667788ull);
}

TEST(VirtualArenaTest, AliasingAcrossTwoArenas) {
  // A column and a partial view each map the same file page.
  auto file = MakeFile(4);
  auto base_r = VirtualArena::Create(file, 4);
  auto view_r = VirtualArena::Create(file, 1);
  ASSERT_TRUE(base_r.ok());
  ASSERT_TRUE(view_r.ok());
  ASSERT_TRUE((*base_r)->MapRange(0, 0, 4).ok());
  ASSERT_TRUE((*view_r)->MapRange(0, 2, 1).ok());

  WriteMarker(**base_r, 2, 42);
  EXPECT_EQ(ReadMarker(**view_r, 0), 42u);
}

TEST(VirtualArenaTest, RemappingPreservesFileContent) {
  auto file = MakeFile(2);
  auto arena_r = VirtualArena::Create(file, 1);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;

  ASSERT_TRUE(arena->MapRange(0, 0, 1).ok());
  WriteMarker(*arena, 0, 111);
  ASSERT_TRUE(arena->MapRange(0, 1, 1).ok());  // rewire slot to page 1
  WriteMarker(*arena, 0, 222);
  ASSERT_TRUE(arena->MapRange(0, 0, 1).ok());  // back to page 0
  EXPECT_EQ(ReadMarker(*arena, 0), 111u);
  ASSERT_TRUE(arena->MapRange(0, 1, 1).ok());
  EXPECT_EQ(ReadMarker(*arena, 0), 222u);
}

TEST(VirtualArenaTest, UnmapRestoresReservationAndTable) {
  auto file = MakeFile(2);
  auto arena_r = VirtualArena::Create(file, 2);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  ASSERT_TRUE(arena->MapRange(0, 0, 2).ok());
  EXPECT_EQ(arena->num_mapped_slots(), 2u);
  ASSERT_TRUE(arena->UnmapRange(1, 1).ok());
  EXPECT_EQ(arena->num_mapped_slots(), 1u);
  EXPECT_EQ(arena->SlotFilePage(0), 0);
  EXPECT_EQ(arena->SlotFilePage(1), VirtualArena::kUnmapped);
  // The still-mapped slot is unaffected.
  WriteMarker(*arena, 0, 7);
  EXPECT_EQ(ReadMarker(*arena, 0), 7u);
}

TEST(VirtualArenaTest, MapCallCountTracksRewireCallsOnly) {
  auto file = MakeFile(4);
  auto arena_r = VirtualArena::Create(file, 4);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  EXPECT_EQ(arena->map_call_count(), 0u);
  ASSERT_TRUE(arena->MapRange(0, 0, 4).ok());
  EXPECT_EQ(arena->map_call_count(), 1u);
  ASSERT_TRUE(arena->MapRange(0, 2, 1).ok());
  EXPECT_EQ(arena->map_call_count(), 2u);
  ASSERT_TRUE(arena->UnmapRange(0, 4).ok());
  EXPECT_EQ(arena->map_call_count(), 2u);
}

TEST(VirtualArenaTest, MappingCountMatchesMapsParser) {
  auto file = MakeFile(8);
  auto arena_r = VirtualArena::Create(file, 8);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;

  // Three isolated single-page rewirings -> 3 VMAs inside the reservation.
  ASSERT_TRUE(arena->MapRange(0, 3, 1).ok());
  ASSERT_TRUE(arena->MapRange(2, 5, 1).ok());
  ASSERT_TRUE(arena->MapRange(4, 7, 1).ok());
  auto entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok());
  EXPECT_EQ(CountArenaFileMappings(*entries_r, *arena), 3u);

  // Unmapping one brings it to 2.
  ASSERT_TRUE(arena->UnmapRange(2, 1).ok());
  entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok());
  EXPECT_EQ(CountArenaFileMappings(*entries_r, *arena), 2u);
}

TEST(VirtualArenaTest, AdjacentArenasNeverShareAVma) {
  // Regression: without a guard page between reservations, the kernel can
  // merge a file mapping at the end of one arena with a contiguous-offset
  // mapping at the start of an adjacently-reserved arena into one VMA,
  // which made BuildArenaBimap's (entry.start - base) underflow and poison
  // the recovered slot table. The guard page makes the merge impossible.
  auto file = MakeFile(8);
  auto a_r = VirtualArena::Create(file, 2);
  auto b_r = VirtualArena::Create(file, 2);
  ASSERT_TRUE(a_r.ok());
  ASSERT_TRUE(b_r.ok());
  auto& a = *a_r;
  auto& b = *b_r;
  // Engineer the merge-friendly shape on whichever arena was placed lower:
  // low arena's LAST slot maps file page 4, high arena's FIRST slot maps
  // file page 5 (contiguous offsets at touching addresses).
  VirtualArena* low = a->data() < b->data() ? a.get() : b.get();
  VirtualArena* high = a->data() < b->data() ? b.get() : a.get();
  ASSERT_TRUE(low->MapRange(1, 4, 1).ok());
  ASSERT_TRUE(high->MapRange(0, 5, 1).ok());

  auto entries_r = ParseSelfMaps();
  ASSERT_TRUE(entries_r.ok());
  const PageBimap low_bimap = BuildArenaBimap(*entries_r, *low);
  const PageBimap high_bimap = BuildArenaBimap(*entries_r, *high);
  EXPECT_EQ(low_bimap.size(), 1u);
  EXPECT_EQ(low_bimap.PageOfSlot(1), 4);
  EXPECT_EQ(high_bimap.size(), 1u);
  EXPECT_EQ(high_bimap.PageOfSlot(0), 5);
}

}  // namespace
}  // namespace vmsv
