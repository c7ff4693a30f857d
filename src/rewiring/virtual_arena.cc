#include "rewiring/virtual_arena.h"

#include <algorithm>
#include <cerrno>
#include <string>

#include <sys/mman.h>

#include "rewiring/hugepage.h"
#include "rewiring/vm_io.h"
#include "util/macros.h"

namespace vmsv {

StatusOr<std::unique_ptr<VirtualArena>> VirtualArena::Create(
    std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_slots,
    uint64_t congruent_page) {
  if (file == nullptr) return InvalidArgument("VirtualArena needs a file");
  if (num_slots == 0) return InvalidArgument("VirtualArena needs >= 1 slot");
  // One extra permanently-reserved guard page: mmap places adjacent
  // reservations back to back, and without the guard the kernel merges a
  // file mapping at the end of one arena with a contiguous-offset mapping
  // at the start of the next into a single VMA — /proc/self/maps would then
  // show entries straddling arena boundaries and per-arena mapping recovery
  // (BuildArenaBimap) could not attribute them.
  VmIo* io = file->vm_io();
  const bool huge = file->huge_backing() != HugeBacking::kNone;
  // Huge-capable arenas over-reserve by two huge units: one to round the
  // base up to a 2 MiB boundary, one to absorb the congruence shift (slot 0
  // must land where virtual address ≡ file offset of `congruent_page`
  // mod 2 MiB, or no range could ever PMD-map). The slack stays PROT_NONE —
  // one merged reservation VMA either way, so the mapping budget is
  // unchanged.
  const uint64_t slack = huge ? 2 * kHugePageSize : 0;
  const uint64_t reserve_len = (num_slots + 1) * kPageSize + slack;
  StatusOr<void*> raw =
      io->Mmap(nullptr, reserve_len, PROT_NONE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0,
               "mmap(reserve)");
  if (!raw.ok()) return raw.status();
  uint8_t* reserve_base = static_cast<uint8_t*>(*raw);
  uint8_t* base = reserve_base;
  if (huge) {
    const uint64_t addr = reinterpret_cast<uint64_t>(reserve_base);
    const uint64_t aligned =
        (addr + kHugePageSize - 1) / kHugePageSize * kHugePageSize;
    const uint64_t shift = congruent_page % kPagesPerHugeUnit;
    base = reinterpret_cast<uint8_t*>(aligned + shift * kPageSize);
  }
  return std::unique_ptr<VirtualArena>(
      new VirtualArena(std::move(file), base, num_slots, io, reserve_base,
                       reserve_len));
}

VirtualArena::~VirtualArena() {
  // Teardown goes through the seam too, so an injecting VmIo's VMA
  // accountant stays balanced across arena lifetimes. Injected failures
  // here are swallowed: destructors cannot report, and a "failed" munmap
  // leaks address space, not correctness.
  (void)io_->Munmap(reserve_base_, reserve_len_,
                    "munmap(arena)");  // slots + guard page + align slack
}

uint64_t VirtualArena::shift_pages() const {
  return (reinterpret_cast<uint64_t>(base_) / kPageSize) % kPagesPerHugeUnit;
}

uint64_t VirtualArena::UnitOfSlot(uint64_t slot) const {
  return (shift_pages() + slot) / kPagesPerHugeUnit;
}

int64_t VirtualArena::FirstSlotOfUnit(uint64_t unit) const {
  return static_cast<int64_t>(unit * kPagesPerHugeUnit) -
         static_cast<int64_t>(shift_pages());
}

bool VirtualArena::HugeCapable() const {
  return file_->huge_backing() != HugeBacking::kNone &&
         !HugePagesDisabledByEnv();
}

uint64_t VirtualArena::huge_backed_bytes() const {
  return huge_units_.size() * kHugePageSize;
}

void VirtualArena::DropHugeUnits(uint64_t slot_start, uint64_t count) {
  if (huge_units_.empty() || count == 0) return;
  const uint64_t first = UnitOfSlot(slot_start);
  const uint64_t last = UnitOfSlot(slot_start + count - 1);
  auto it = huge_units_.lower_bound(first);
  while (it != huge_units_.end() && *it <= last) {
    it = huge_units_.erase(it);
    ++huge_demotions_;
  }
}

Status VirtualArena::CheckHugetlbAlignment(uint64_t slot_start, uint64_t count,
                                           const char* op) const {
  if (file_->huge_backing() != HugeBacking::kHugetlb) return OkStatus();
  if ((shift_pages() + slot_start) % kPagesPerHugeUnit != 0 ||
      count % kPagesPerHugeUnit != 0) {
    return InvalidArgument(std::string(op) +
                           ": hugetlb files map in whole 2 MiB units only");
  }
  return OkStatus();
}

Status VirtualArena::MapRange(uint64_t slot_start, uint64_t file_page_start,
                              uint64_t count) {
  if (count == 0) return OkStatus();
  if (slot_start + count > num_slots_) {
    return InvalidArgument("MapRange beyond arena");
  }
  if (file_page_start + count > file_->num_pages()) {
    return InvalidArgument("MapRange beyond file");
  }
  VMSV_RETURN_IF_ERROR(CheckHugetlbAlignment(slot_start, count, "MapRange"));
  if (file_->huge_backing() == HugeBacking::kHugetlb &&
      file_page_start % kPagesPerHugeUnit != 0) {
    return InvalidArgument("MapRange: hugetlb file offset must be 2 MiB-aligned");
  }
  // Deliberately no MAP_POPULATE: pre-faulting at rewiring time charges
  // every view creation for page-table entries, while lazy first-touch
  // faults are paid at most once per view and amortize across repeated
  // queries (measured net win on the Figure-4 workload).
  void* target = base_ + slot_start * kPageSize;
  StatusOr<void*> mapped =
      io_->Mmap(target, count * kPageSize, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_FIXED, file_->fd(),
                static_cast<off_t>(file_page_start * kPageSize),
                "mmap(rewire)");
  if (!mapped.ok()) return mapped.status();
  ++map_calls_;
  // A fresh 4 KiB mapping over a collapsed THP unit splits its PMD in the
  // kernel; mirror that. A hugetlb map IS huge by construction — record its
  // units instead.
  if (file_->huge_backing() == HugeBacking::kHugetlb) {
    for (uint64_t u = UnitOfSlot(slot_start);
         u <= UnitOfSlot(slot_start + count - 1); ++u) {
      huge_units_.insert(u);
    }
  } else {
    DropHugeUnits(slot_start, count);
  }
  RecordMapped(slot_start, file_page_start, count);
  return OkStatus();
}

void VirtualArena::RecordMapped(uint64_t slot_start, uint64_t file_page_start,
                                uint64_t count) {
  if (slot_to_page_.size() < slot_start + count) {
    slot_to_page_.resize(slot_start + count, kUnmapped);
  }
  for (uint64_t i = 0; i < count; ++i) {
    int64_t& entry = slot_to_page_[slot_start + i];
    if (entry == kUnmapped) ++num_mapped_;
    entry = static_cast<int64_t>(file_page_start + i);
  }
}

void VirtualArena::RecordUnmapped(uint64_t slot_start, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t slot = slot_start + i;
    if (slot >= slot_to_page_.size()) continue;  // never mapped: table never grew
    int64_t& entry = slot_to_page_[slot];
    if (entry != kUnmapped) --num_mapped_;
    entry = kUnmapped;
  }
}

Status VirtualArena::UnmapRange(uint64_t slot_start, uint64_t count) {
  if (count == 0) return OkStatus();
  if (slot_start + count > num_slots_) {
    return InvalidArgument("UnmapRange beyond arena");
  }
  VMSV_RETURN_IF_ERROR(CheckHugetlbAlignment(slot_start, count, "UnmapRange"));
  // MAP_FIXED anonymous PROT_NONE re-reserves the range instead of punching a
  // hole another allocation could land in.
  void* target = base_ + slot_start * kPageSize;
  StatusOr<void*> mapped =
      io_->Mmap(target, count * kPageSize, PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0,
                "mmap(unreserve)");
  if (!mapped.ok()) return mapped.status();
  DropHugeUnits(slot_start, count);
  RecordUnmapped(slot_start, count);
  return OkStatus();
}

Status VirtualArena::PromoteRange(uint64_t slot_start, uint64_t count) {
  if (count == 0) return OkStatus();
  if (slot_start + count > num_slots_) {
    return InvalidArgument("PromoteRange beyond arena");
  }
  // Plain files have nothing to promote to; hugetlb units are born huge;
  // the env override forces 4 KiB mode everywhere.
  if (file_->huge_backing() != HugeBacking::kThp || !HugeCapable()) {
    return OkStatus();
  }
  const uint64_t end = slot_start + count;
  const uint64_t first_unit = UnitOfSlot(slot_start);
  const uint64_t last_unit = UnitOfSlot(end - 1);
  for (uint64_t unit = first_unit; unit <= last_unit; ++unit) {
    if (huge_units_.count(unit) != 0) continue;
    const int64_t unit_first = FirstSlotOfUnit(unit);
    if (unit_first < 0 ||
        static_cast<uint64_t>(unit_first) + kPagesPerHugeUnit > end ||
        static_cast<uint64_t>(unit_first) < slot_start) {
      continue;  // partial unit: stays 4 KiB
    }
    const uint64_t s0 = static_cast<uint64_t>(unit_first);
    // The whole unit must be one prospective PMD: every slot mapped, file
    // pages consecutive, and the file offset 2 MiB-aligned (the virtual
    // side is aligned by construction of the unit grid).
    const int64_t p0 = SlotFilePage(s0);
    if (p0 == kUnmapped ||
        static_cast<uint64_t>(p0) % kPagesPerHugeUnit != 0) {
      continue;
    }
    bool contiguous = true;
    for (uint64_t i = 1; i < kPagesPerHugeUnit; ++i) {
      if (SlotFilePage(s0 + i) != p0 + static_cast<int64_t>(i)) {
        contiguous = false;
        break;
      }
    }
    if (!contiguous) continue;
    void* unit_addr = base_ + s0 * kPageSize;
    ++huge_promote_attempts_;
    // MADV_HUGEPAGE first: marks the VMA eligible (required in "advise"
    // mode) and lets faults allocate huge folios even where MADV_COLLAPSE
    // is unavailable. Its failure already means no-THP — count and move on.
    Status advised = io_->Madvise(unit_addr, kHugePageSize, MADV_HUGEPAGE,
                                  "madvise(hugepage)");
    Status collapsed =
        advised.ok() ? io_->Madvise(unit_addr, kHugePageSize, MADV_COLLAPSE,
                                    "madvise(collapse)")
                     : advised;
    if (collapsed.ok()) {
      huge_units_.insert(unit);
    } else {
      // EINVAL: kernel without MADV_COLLAPSE (or THP disabled); ENOMEM /
      // EAGAIN: allocation pressure; injected faults. All of them leave
      // the unit correct at 4 KiB — the defining property of this design.
      ++huge_promote_failures_;
    }
  }
  return OkStatus();
}

Status VirtualArena::DemoteRange(uint64_t slot_start, uint64_t count) {
  if (count == 0) return OkStatus();
  if (slot_start + count > num_slots_) {
    return InvalidArgument("DemoteRange beyond arena");
  }
  if (file_->huge_backing() == HugeBacking::kHugetlb) {
    // hugetlb frames cannot change granularity in place; whole-unit unmap
    // is the only exit. Callers that need 4 KiB churn must not sit on a
    // hugetlb file in the first place (see HugeBacking::kHugetlb).
    bool overlaps = false;
    const uint64_t first = UnitOfSlot(slot_start);
    const uint64_t last = UnitOfSlot(slot_start + count - 1);
    for (auto it = huge_units_.lower_bound(first);
         it != huge_units_.end() && *it <= last; ++it) {
      overlaps = true;
      break;
    }
    if (overlaps) {
      return FailedPrecondition("DemoteRange: hugetlb units are fixed-size");
    }
    return OkStatus();
  }
  if (huge_units_.empty()) return OkStatus();
  // Advise each affected unit back to 4 KiB BEFORE the caller's mutation.
  // Best-effort by design: a refusal (injected or real) is counted and
  // swallowed — the kernel splits the PMD on the 4 KiB overwrite that
  // follows regardless, so scans stay bit-identical either way.
  const uint64_t first = UnitOfSlot(slot_start);
  const uint64_t last = UnitOfSlot(slot_start + count - 1);
  for (uint64_t unit = first; unit <= last; ++unit) {
    if (huge_units_.count(unit) == 0) continue;
    // Clamp the unit's 2 MiB extent to the arena's slot range (unit 0 of a
    // congruence-shifted arena starts before slot 0).
    const int64_t unit_first = FirstSlotOfUnit(unit);
    const uint64_t s0 = unit_first < 0 ? 0 : static_cast<uint64_t>(unit_first);
    const uint64_t s1 =
        std::min<uint64_t>(num_slots_, unit_first + static_cast<int64_t>(
                                           kPagesPerHugeUnit));
    (void)io_->Madvise(base_ + s0 * kPageSize, (s1 - s0) * kPageSize,
                       MADV_NOHUGEPAGE, "madvise(nohugepage)");
  }
  DropHugeUnits(slot_start, count);
  return OkStatus();
}

}  // namespace vmsv
