// VirtualArena — a contiguous reserved virtual address range whose
// page-sized slots can be rewired onto arbitrary pages of a
// PhysicalMemoryFile (paper §2.1).
//
// The arena reserves its full range up front with an inaccessible anonymous
// mapping (PROT_NONE, MAP_NORESERVE), so slot rewiring is always a MAP_FIXED
// replacement and the range stays contiguous for scans. Unmapped slots fault
// on access by design.
//
// The arena additionally keeps a user-space slot→file-page table. The paper
// (§2.5) argues a DBMS need not maintain such a table because the kernel
// already has the truth and /proc/self/maps exposes it; both mapping sources
// are implemented (see maps_parser.h / update_applier.h) so their costs can
// be compared.
//
// Thread-safety: the arena is NOT internally synchronized. Concurrent scans
// of mapped slots are fine; MapRange/UnmapRange and destruction tear
// mappings down in place and must never overlap a reader of the affected
// range. The concurrent engine (core/adaptive_layer.h) enforces this with
// epoch-based reclamation: arenas released or evicted with their view are
// RETIRED to an epoch limbo list (util/epoch.h) — mappings intact until
// every possibly-referencing reader exited — and in-place mutation runs
// only after an epoch quiescence wait.

#ifndef VMSV_REWIRING_VIRTUAL_ARENA_H_
#define VMSV_REWIRING_VIRTUAL_ARENA_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "rewiring/physical_memory_file.h"
#include "util/status.h"

namespace vmsv {

class VmIo;

class VirtualArena {
 public:
  /// Sentinel in the slot table: slot is not backed by any file page.
  static constexpr int64_t kUnmapped = -1;

  /// Reserves `num_slots` pages of virtual address space against `file`.
  /// Every address-space syscall the arena makes (reservation, rewiring,
  /// unmapping, madvise, teardown) routes through the file's VmIo
  /// seam (file->vm_io()), resolved once here, so fault injection covers
  /// the arena's whole mapping lifetime.
  ///
  /// When the file carries a huge backing (huge_backing() != kNone) the
  /// reservation is over-allocated and the base placed so that slot 0's
  /// address is CONGRUENT to file page `congruent_page` modulo 2 MiB — the
  /// precondition for PMD-mapping a range (virtual address and file offset
  /// must share their low 21 bits). Identity maps pass 0 (the default);
  /// a view's materialization passes its first member page. For plain
  /// files the argument is ignored and the reservation is exact.
  static StatusOr<std::unique_ptr<VirtualArena>> Create(
      std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_slots,
      uint64_t congruent_page = 0);

  ~VirtualArena();
  VirtualArena(const VirtualArena&) = delete;
  VirtualArena& operator=(const VirtualArena&) = delete;

  /// Rewires `count` consecutive slots starting at `slot_start` onto
  /// `count` consecutive file pages starting at `file_page_start`, with a
  /// single mmap call (run coalescing is the caller's job).
  Status MapRange(uint64_t slot_start, uint64_t file_page_start, uint64_t count);

  /// Returns `count` slots starting at `slot_start` to the inaccessible
  /// reserved state (one mmap call).
  Status UnmapRange(uint64_t slot_start, uint64_t count);

  /// Base address of the reservation.
  uint8_t* data() const { return base_; }

  /// Address of one slot; valid to dereference only while the slot is mapped.
  uint8_t* SlotData(uint64_t slot) const { return base_ + slot * kPageSize; }

  uint64_t num_slots() const { return num_slots_; }
  const std::shared_ptr<PhysicalMemoryFile>& file() const { return file_; }

  /// User-space mirror of the kernel mapping state: file page backing each
  /// slot, or kUnmapped. The table grows on demand — views map slots
  /// contiguously from 0, so it stays O(mapped slots), not O(reservation).
  int64_t SlotFilePage(uint64_t slot) const {
    return slot < slot_to_page_.size() ? slot_to_page_[slot] : kUnmapped;
  }
  const std::vector<int64_t>& slot_table() const { return slot_to_page_; }

  /// Number of slots currently backed by a file page.
  uint64_t num_mapped_slots() const { return num_mapped_; }

  /// Total mmap(2) invocations that installed file pages (reservation and
  /// unmapping excluded) — the figure-6 "mmap_calls" metric.
  uint64_t map_call_count() const { return map_calls_; }

  // -------------------------------------------------------------------------
  // Per-range granularity (4 KiB <-> 2 MiB). A "huge unit" is one
  // 2 MiB-aligned virtual range of 512 slots currently PMD-backed. Huge and
  // 4 KiB ranges coexist freely in one arena; any 4 KiB mutation of a huge
  // unit (MapRange/UnmapRange over it) demotes that unit first —
  // for THP the kernel splits the PMD on its own and only bookkeeping moves,
  // for hugetlb sub-unit mutation is impossible and rejected up front.

  /// True when the backing file carries a huge flavor and the
  /// VMSV_NO_HUGEPAGES override is not set — i.e. promotion attempts make
  /// sense on this arena.
  bool HugeCapable() const;

  /// Attempts to collapse every whole, file-congruent, fully-mapped 2 MiB
  /// unit within [slot_start, slot_start + count) to a PMD mapping
  /// (MADV_HUGEPAGE + MADV_COLLAPSE through the seam). Partial units and
  /// non-congruent ranges are silently skipped; a collapse refusal (EINVAL
  /// on kernels without the op, ENOMEM under memory pressure, injected
  /// faults) leaves the unit at 4 KiB and is counted, never propagated —
  /// promotion is a perf action with a built-in fallback. Errors are
  /// returned only for out-of-range arguments. No-op on plain or hugetlb
  /// arenas (the latter is born huge).
  Status PromoteRange(uint64_t slot_start, uint64_t count);

  /// Returns every huge unit overlapping [slot_start, slot_start + count)
  /// to 4 KiB granularity BEFORE a 4 KiB mutation of the range: bookkeeping
  /// leaves the huge set, and the kernel is advised MADV_NOHUGEPAGE so the
  /// range does not re-collapse behind our back. The advice is best-effort
  /// (an injected or real madvise failure is counted and swallowed — the
  /// kernel splits the PMD on the next 4 KiB overwrite regardless, so
  /// correctness never depends on it). FailedPrecondition on hugetlb
  /// arenas, whose units cannot change granularity in place.
  Status DemoteRange(uint64_t slot_start, uint64_t count);

  /// Huge units currently PMD-backed, and the bytes they cover.
  uint64_t huge_unit_count() const { return huge_units_.size(); }
  uint64_t huge_backed_bytes() const;

  /// Promotion/demotion telemetry: units attempted, collapse refusals, and
  /// units demoted back to 4 KiB over this arena's lifetime.
  uint64_t huge_promote_attempts() const { return huge_promote_attempts_; }
  uint64_t huge_promote_failures() const { return huge_promote_failures_; }
  uint64_t huge_demotions() const { return huge_demotions_; }

 private:
  VirtualArena(std::shared_ptr<PhysicalMemoryFile> file, uint8_t* base,
               uint64_t num_slots, VmIo* io, uint8_t* reserve_base,
               uint64_t reserve_len)
      : file_(std::move(file)), base_(base), num_slots_(num_slots), io_(io),
        reserve_base_(reserve_base), reserve_len_(reserve_len) {}

  /// Records `count` slots starting at `slot_start` as mapped onto
  /// consecutive file pages from `file_page_start` (bookkeeping only).
  void RecordMapped(uint64_t slot_start, uint64_t file_page_start,
                    uint64_t count);
  /// Records `count` slots starting at `slot_start` as unmapped.
  void RecordUnmapped(uint64_t slot_start, uint64_t count);

  /// Offset of slot 0 from the enclosing 2 MiB boundary, in pages (the
  /// congruence shift chosen at Create; 0 for plain arenas).
  uint64_t shift_pages() const;
  /// Index of the huge unit containing `slot`, in virtual-address space.
  uint64_t UnitOfSlot(uint64_t slot) const;
  /// First slot of huge unit `unit` (may be "negative", i.e. before slot 0,
  /// for unit 0 of a shifted arena — callers clamp).
  int64_t FirstSlotOfUnit(uint64_t unit) const;
  /// Drops huge units overlapping the range from the bookkeeping (the
  /// kernel-side split already happened or is about to).
  void DropHugeUnits(uint64_t slot_start, uint64_t count);
  /// Rejects 4 KiB-grained operations on hugetlb arenas (Status explains);
  /// OK for whole-unit-aligned ranges and for every other backing.
  Status CheckHugetlbAlignment(uint64_t slot_start, uint64_t count,
                               const char* op) const;

  std::shared_ptr<PhysicalMemoryFile> file_;
  uint8_t* base_;
  uint64_t num_slots_;
  VmIo* io_;  // never null; resolved from file_->vm_io() at Create
  /// Full reservation (>= the slot range when huge alignment over-reserves);
  /// what the destructor unmaps.
  uint8_t* reserve_base_;
  uint64_t reserve_len_;
  std::vector<int64_t> slot_to_page_;
  uint64_t num_mapped_ = 0;
  uint64_t map_calls_ = 0;
  /// Indices (UnitOfSlot space) of 2 MiB units currently PMD-backed.
  std::set<uint64_t> huge_units_;
  uint64_t huge_promote_attempts_ = 0;
  uint64_t huge_promote_failures_ = 0;
  uint64_t huge_demotions_ = 0;
};

}  // namespace vmsv

#endif  // VMSV_REWIRING_VIRTUAL_ARENA_H_
