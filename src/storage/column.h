// PhysicalColumn — the base table: a fixed-width value column stored in a
// PhysicalMemoryFile and accessed through an identity-mapped VirtualArena
// (the "full view" every query could fall back to). Partial views rewire
// subsets of the same physical pages; writes through the column are
// therefore immediately visible in every view for free — the core property
// the paper's update path (§2.4) exploits.

#ifndef VMSV_STORAGE_COLUMN_H_
#define VMSV_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>

#include "rewiring/virtual_arena.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

class PhysicalColumn {
 public:
  /// Creates a zeroed column able to hold `num_rows` values (rounded up to a
  /// whole number of pages).
  static StatusOr<std::unique_ptr<PhysicalColumn>> Create(uint64_t num_rows);

  /// Wraps an EXISTING memory file (typically file-backed, reopened by the
  /// durable recovery path) in a column of `num_rows` values, identity-
  /// mapping its pages without zeroing them — the file's content IS the
  /// column. The file must hold exactly ceil(num_rows / kValuesPerPage)
  /// pages.
  static StatusOr<std::unique_ptr<PhysicalColumn>> Attach(
      std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_rows);

  uint64_t num_rows() const { return num_rows_; }
  uint64_t num_pages() const { return file_->num_pages(); }

  /// First value of a page; pages are fully value-addressable.
  const Value* PageData(uint64_t page) const {
    return reinterpret_cast<const Value*>(arena_->SlotData(page));
  }

  Value Get(uint64_t row) const { return values_[row]; }

  /// Writes `value` at `row`, returning the previous value. Visible to all
  /// virtual views sharing pages with the base immediately.
  Value Set(uint64_t row, Value value) {
    Value* slot = values_ + row;
    const Value old = *slot;
    *slot = value;
    return old;
  }

  /// Page holding `row`.
  static uint64_t PageOfRow(uint64_t row) { return row / kValuesPerPage; }

  /// The backing memory file, shared with every partial view.
  const std::shared_ptr<PhysicalMemoryFile>& file() const { return file_; }

  /// The identity-mapped base arena (page i of the file at slot i).
  const VirtualArena& base_arena() const { return *arena_; }

 private:
  PhysicalColumn(std::shared_ptr<PhysicalMemoryFile> file,
                 std::unique_ptr<VirtualArena> arena, uint64_t num_rows)
      : file_(std::move(file)), arena_(std::move(arena)), num_rows_(num_rows),
        values_(reinterpret_cast<Value*>(arena_->data())) {}

  std::shared_ptr<PhysicalMemoryFile> file_;
  std::unique_ptr<VirtualArena> arena_;
  uint64_t num_rows_;
  Value* values_;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_COLUMN_H_
