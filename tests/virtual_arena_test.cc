#include "rewiring/virtual_arena.h"

#include <cstdlib>
#include <cstring>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "rewiring/hugepage.h"
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

// ---------------------------------------------------------------------------
// Mixed granularity (4 KiB <-> 2 MiB)

/// Scoped setenv: the huge-page env knobs are read per call, so a guard is
/// enough to flip behavior inside one test without leaking into the next.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

std::shared_ptr<PhysicalMemoryFile> MakeHugeFile(uint64_t pages,
                                                 HugePageRequest request) {
  auto file_r = PhysicalMemoryFile::Create(pages, MemoryFileBackend::kMemfd,
                                           nullptr, request);
  EXPECT_TRUE(file_r.ok()) << file_r.status().ToString();
  return std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
}

/// smaps-reported PMD-backed bytes inside the arena: the kernel's own
/// verdict on whether a range is really huge-mapped.
uint64_t SmapsHugeBytes(const VirtualArena& arena) {
  auto smaps = ParseSelfSmaps();
  EXPECT_TRUE(smaps.ok()) << smaps.status().ToString();
  return smaps.ok() ? ArenaHugeBackedBytes(*smaps, arena) : 0;
}

TEST(HugePageTest, EnvOverrideForcesPlainBacking) {
  ScopedEnv no_huge("VMSV_NO_HUGEPAGES", "1");
  auto file = MakeHugeFile(kPagesPerHugeUnit, HugePageRequest::kAuto);
  EXPECT_EQ(file->huge_backing(), HugeBacking::kNone);
  auto arena_r = VirtualArena::Create(file, kPagesPerHugeUnit);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  EXPECT_FALSE(arena->HugeCapable());
  ASSERT_TRUE(arena->MapRange(0, 0, kPagesPerHugeUnit).ok());
  // Promotion on a plain arena is a clean no-op, not an error.
  EXPECT_TRUE(arena->PromoteRange(0, kPagesPerHugeUnit).ok());
  EXPECT_EQ(arena->huge_unit_count(), 0u);
  EXPECT_EQ(arena->huge_promote_attempts(), 0u);
}

TEST(HugePageTest, CongruentBasePlacement) {
  auto file = MakeHugeFile(2 * kPagesPerHugeUnit, HugePageRequest::kAuto);
  if (file->huge_backing() == HugeBacking::kNone) {
    GTEST_SKIP() << "no huge backing available on this machine";
  }
  // Ask for congruence to file page 600: slot 0's address must sit at
  // offset (600 mod 512) pages within its 2 MiB region, the precondition
  // for PMD-mapping a range that starts at that file page.
  constexpr uint64_t kPage = 600;
  auto arena_r = VirtualArena::Create(file, kPagesPerHugeUnit, kPage);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  const uint64_t addr = reinterpret_cast<uint64_t>(arena->data());
  EXPECT_EQ((addr / kPageSize) % kPagesPerHugeUnit, kPage % kPagesPerHugeUnit);
}

TEST(HugePageTest, HugetlbWholeUnitLifecycle) {
  auto file = MakeHugeFile(2 * kPagesPerHugeUnit, HugePageRequest::kHugetlb);
  if (file->huge_backing() != HugeBacking::kHugetlb) {
    GTEST_SKIP() << "no hugetlb pool on this machine (vm.nr_hugepages)";
  }
  auto arena_r = VirtualArena::Create(file, 2 * kPagesPerHugeUnit);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  EXPECT_TRUE(arena->HugeCapable());

  // Sub-unit rewiring is impossible on hugetlb and must be rejected up
  // front (the kernel would EINVAL anyway; the arena explains instead).
  EXPECT_FALSE(arena->MapRange(0, 0, 1).ok());
  EXPECT_FALSE(arena->MapRange(1, 0, kPagesPerHugeUnit).ok());

  ASSERT_TRUE(arena->MapRange(0, 0, 2 * kPagesPerHugeUnit).ok());
  EXPECT_EQ(arena->huge_unit_count(), 2u);
  EXPECT_EQ(arena->huge_backed_bytes(), 2 * kHugePageSize);

  // Touch both units, then let the kernel confirm they are PMD-backed.
  WriteMarker(*arena, 0, 0xabcdef0123456789ull);
  WriteMarker(*arena, kPagesPerHugeUnit, 0x42ull);
  EXPECT_EQ(SmapsHugeBytes(*arena), 2 * kHugePageSize);

  // Granularity cannot change in place: demotion is refused, whole-unit
  // unmapping works and drops the bookkeeping.
  EXPECT_FALSE(arena->DemoteRange(0, 1).ok());
  EXPECT_FALSE(arena->UnmapRange(0, 1).ok());
  EXPECT_TRUE(arena->UnmapRange(kPagesPerHugeUnit, kPagesPerHugeUnit).ok());
  EXPECT_EQ(arena->huge_unit_count(), 1u);
  EXPECT_EQ(ReadMarker(*arena, 0), 0xabcdef0123456789ull);
}

TEST(HugePageTest, HugetlbContentMatchesFileReads) {
  // Bit-identity across granularities: bytes written through a 2 MiB
  // mapping must read back identically through the plain file descriptor
  // (and vice versa) — scans over huge arenas return the same data as any
  // 4 KiB path would.
  auto file = MakeHugeFile(kPagesPerHugeUnit, HugePageRequest::kHugetlb);
  if (file->huge_backing() != HugeBacking::kHugetlb) {
    GTEST_SKIP() << "no hugetlb pool on this machine (vm.nr_hugepages)";
  }
  auto arena_r = VirtualArena::Create(file, kPagesPerHugeUnit);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  ASSERT_TRUE(arena->MapRange(0, 0, kPagesPerHugeUnit).ok());
  for (uint64_t slot = 0; slot < kPagesPerHugeUnit; ++slot) {
    WriteMarker(*arena, slot, slot * 7919 + 1);
  }
  std::vector<uint64_t> from_fd(kPagesPerHugeUnit);
  for (uint64_t page = 0; page < kPagesPerHugeUnit; ++page) {
    ASSERT_EQ(::pread(file->fd(), &from_fd[page], sizeof(uint64_t),
                      static_cast<off_t>(page * kPageSize)),
              static_cast<ssize_t>(sizeof(uint64_t)));
    EXPECT_EQ(from_fd[page], page * 7919 + 1) << "page " << page;
  }
}

TEST(HugePageTest, ThpPromoteNeverBreaksContent) {
  auto file = MakeHugeFile(2 * kPagesPerHugeUnit, HugePageRequest::kAuto);
  if (file->huge_backing() != HugeBacking::kThp) {
    GTEST_SKIP() << "shmem THP not eligible on this machine";
  }
  auto arena_r = VirtualArena::Create(file, 2 * kPagesPerHugeUnit);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  ASSERT_TRUE(arena->MapRange(0, 0, 2 * kPagesPerHugeUnit).ok());
  for (uint64_t slot = 0; slot < 2 * kPagesPerHugeUnit; ++slot) {
    WriteMarker(*arena, slot, slot ^ 0x5a5a5a5aull);
  }
  // Promotion must succeed as a call whether or not the kernel grants the
  // collapse (MADV_COLLAPSE is missing on many kernels); refusals are
  // counted, and the data is untouched either way.
  ASSERT_TRUE(arena->PromoteRange(0, 2 * kPagesPerHugeUnit).ok());
  EXPECT_EQ(arena->huge_promote_attempts(), 2u);
  EXPECT_EQ(arena->huge_unit_count() + arena->huge_promote_failures(), 2u);
  for (uint64_t slot = 0; slot < 2 * kPagesPerHugeUnit; ++slot) {
    EXPECT_EQ(ReadMarker(*arena, slot), slot ^ 0x5a5a5a5aull) << slot;
  }
  if (arena->huge_unit_count() == 2) {
    EXPECT_EQ(SmapsHugeBytes(*arena), 2 * kHugePageSize);
  }

  // 4 KiB mutation inside unit 0 demotes it first; unit 1 is untouched.
  const uint64_t units_before = arena->huge_unit_count();
  ASSERT_TRUE(arena->DemoteRange(3, 1).ok());
  ASSERT_TRUE(arena->UnmapRange(3, 1).ok());
  if (units_before == 2) {
    EXPECT_EQ(arena->huge_unit_count(), 1u);
    EXPECT_EQ(arena->huge_demotions(), 1u);
  }
  EXPECT_EQ(ReadMarker(*arena, kPagesPerHugeUnit + 5),
            (kPagesPerHugeUnit + 5) ^ 0x5a5a5a5aull);
}

TEST(HugePageTest, PromoteSkipsPartialAndNonCongruentRanges) {
  auto file = MakeHugeFile(2 * kPagesPerHugeUnit, HugePageRequest::kAuto);
  if (file->huge_backing() != HugeBacking::kThp) {
    GTEST_SKIP() << "shmem THP not eligible on this machine";
  }
  auto arena_r = VirtualArena::Create(file, 2 * kPagesPerHugeUnit);
  ASSERT_TRUE(arena_r.ok());
  auto& arena = *arena_r;
  // A non-congruent layout: slot 0 holds file page 1 (arena base congruent
  // to page 0). No unit can legally collapse, so promotion attempts
  // nothing — skipping is silent, not an error.
  ASSERT_TRUE(arena->MapRange(0, 1, kPagesPerHugeUnit).ok());
  ASSERT_TRUE(arena->PromoteRange(0, kPagesPerHugeUnit).ok());
  EXPECT_EQ(arena->huge_promote_attempts(), 0u);
  EXPECT_EQ(arena->huge_unit_count(), 0u);
  // Out-of-range arguments are still real errors.
  EXPECT_FALSE(arena->PromoteRange(0, 3 * kPagesPerHugeUnit).ok());
  EXPECT_FALSE(arena->DemoteRange(2 * kPagesPerHugeUnit, 1).ok());
}

TEST(PhysicalMemoryFileTest, GrowExtendsFile) {
  auto file_r = PhysicalMemoryFile::Create(1);
  ASSERT_TRUE(file_r.ok());
  auto file = std::move(file_r).ValueOrDie();
  EXPECT_EQ(file.num_pages(), 1u);
  ASSERT_TRUE(file.Grow(4).ok());
  EXPECT_EQ(file.num_pages(), 4u);
  ASSERT_TRUE(file.Grow(2).ok());  // shrink requests are no-ops
  EXPECT_EQ(file.num_pages(), 4u);
}

}  // namespace
}  // namespace vmsv
