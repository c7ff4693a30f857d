// VirtualArena — a contiguous reserved virtual address range whose
// page-sized slots can be rewired onto arbitrary pages of a
// PhysicalMemoryFile (paper §2.1).
//
// The arena reserves its full range up front with an inaccessible anonymous
// mapping (PROT_NONE, MAP_NORESERVE), so slot rewiring is always a MAP_FIXED
// replacement and the range stays contiguous for scans. Unmapped slots fault
// on access by design.
//
// The arena additionally keeps a user-space slot→file-page table, against
// which tests check what /proc/self/maps recovers. The paper (§2.5) argues a
// DBMS need not maintain such a table because the kernel already has the
// truth and /proc/self/maps exposes it. Update alignment reads either the
// kernel's maps (MappingSource::kProcMaps, maps_parser.h) or the view's own
// membership bitmap (kUserSpaceTable, update_applier.h), never this table.
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
  /// unmapping, teardown) routes through the file's VmIo seam
  /// (file->vm_io()), resolved once here, so fault injection covers the
  /// arena's whole mapping lifetime.
  static StatusOr<std::unique_ptr<VirtualArena>> Create(
      std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_slots);

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

 private:
  VirtualArena(std::shared_ptr<PhysicalMemoryFile> file, uint8_t* base,
               uint64_t num_slots, VmIo* io)
      : file_(std::move(file)), base_(base), num_slots_(num_slots), io_(io) {}

  /// Records `count` slots starting at `slot_start` as mapped onto
  /// consecutive file pages from `file_page_start` (bookkeeping only).
  void RecordMapped(uint64_t slot_start, uint64_t file_page_start,
                    uint64_t count);
  /// Records `count` slots starting at `slot_start` as unmapped.
  void RecordUnmapped(uint64_t slot_start, uint64_t count);

  std::shared_ptr<PhysicalMemoryFile> file_;
  uint8_t* base_;
  uint64_t num_slots_;
  VmIo* io_;  // never null; resolved from file_->vm_io() at Create
  std::vector<int64_t> slot_to_page_;
  uint64_t num_mapped_ = 0;
  uint64_t map_calls_ = 0;
};

}  // namespace vmsv

#endif  // VMSV_REWIRING_VIRTUAL_ARENA_H_
