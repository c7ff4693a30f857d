#include "rewiring/virtual_arena.h"

#include <sys/mman.h>

#include "rewiring/vm_io.h"

namespace vmsv {

StatusOr<std::unique_ptr<VirtualArena>> VirtualArena::Create(
    std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_slots) {
  if (file == nullptr) return InvalidArgument("VirtualArena needs a file");
  if (num_slots == 0) return InvalidArgument("VirtualArena needs >= 1 slot");
  // One extra permanently-reserved guard page: mmap places adjacent
  // reservations back to back, and without the guard the kernel merges a
  // file mapping at the end of one arena with a contiguous-offset mapping
  // at the start of the next into a single VMA — /proc/self/maps would then
  // show entries straddling arena boundaries and per-arena mapping recovery
  // (BuildArenaBimap) could not attribute them.
  VmIo* io = file->vm_io();
  StatusOr<void*> raw =
      io->Mmap(nullptr, (num_slots + 1) * kPageSize, PROT_NONE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0,
               "mmap(reserve)");
  if (!raw.ok()) return raw.status();
  return std::unique_ptr<VirtualArena>(new VirtualArena(
      std::move(file), static_cast<uint8_t*>(*raw), num_slots, io));
}

VirtualArena::~VirtualArena() {
  // Teardown goes through the seam too, so an injecting VmIo's VMA
  // accountant stays balanced across arena lifetimes. Injected failures
  // here are swallowed: destructors cannot report, and a "failed" munmap
  // leaks address space, not correctness.
  (void)io_->Munmap(base_, (num_slots_ + 1) * kPageSize,
                    "munmap(arena)");  // slots + guard page
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
  // MAP_FIXED anonymous PROT_NONE re-reserves the range instead of punching a
  // hole another allocation could land in.
  void* target = base_ + slot_start * kPageSize;
  StatusOr<void*> mapped =
      io_->Mmap(target, count * kPageSize, PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0,
                "mmap(unreserve)");
  if (!mapped.ok()) return mapped.status();
  RecordUnmapped(slot_start, count);
  return OkStatus();
}

}  // namespace vmsv
