// PhysicalColumn — the base table: a fixed-width value column stored in a
// PhysicalMemoryFile and accessed through an identity-mapped VirtualArena
// (the "full view" every query could fall back to). Partial views rewire
// subsets of the same physical pages; writes through the column are
// therefore immediately visible in every view for free — the core property
// the paper's update path (§2.4) exploits.
//
// Page zones. The column keeps one PageZone per page, and the engine's
// view, candidate and base scans read a page only when its zone meets the
// query: a page whose zone misses a query holds no value of it. The
// invariant: whenever a reader can scan page p, zones()[p] bounds every
// value a whole-page scan of p reads, zero tail included. A page is loose
// when its zone may be wider than the page's own [min, max]. Its writers:
//   - Create: every zone {0, 0} — the file is zeroed;
//   - Attach: every zone the full domain, valid for any content, and every
//     page loose until the owner derives exact zones (SetZone);
//   - Load: exact zones, kept page by page while the rows are written;
//   - Set: widens the row's page zone — conservative, never narrower — and
//     marks the page loose;
//   - SetZone: an exact zone the caller computed from the page (the engine
//     uses the dispatched zone kernel; storage stays below exec).
// The engine re-derives the loose pages at each flush and Checkpoint.
// Every writer runs with readers excluded, exactly like a data write;
// readers read the table lock-free, like the data, and never the flags.

#ifndef VMSV_STORAGE_COLUMN_H_
#define VMSV_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

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
  /// pages. Every page zone starts at the full domain.
  static StatusOr<std::unique_ptr<PhysicalColumn>> Attach(
      std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_rows);

  uint64_t num_rows() const { return num_rows_; }
  uint64_t num_pages() const { return file_->num_pages(); }

  /// First value of a page; pages are fully value-addressable.
  const Value* PageData(uint64_t page) const {
    return reinterpret_cast<const Value*>(arena_->SlotData(page));
  }

  Value Get(uint64_t row) const { return values_[row]; }

  /// Writes `value` at `row`, returning the previous value, widens the
  /// page's zone to include it and marks the page loose: the old value may
  /// have been the page's min or max. Visible to all virtual views sharing
  /// pages with the base immediately.
  Value Set(uint64_t row, Value value) {
    const uint64_t page = PageOfRow(row);
    PageZone& zone = zones_[page];
    if (value < zone.min) zone.min = value;
    if (value > zone.max) zone.max = value;
    loose_[page] = 1;
    Value* slot = values_ + row;
    const Value old = *slot;
    *slot = value;
    return old;
  }

  /// Bulk load: writes value_of(row) to every row, page by page, and
  /// records each page's exact zone — the tail past num_rows() included, as
  /// the page holds it — from registers, not per row through the table.
  template <typename ValueOf>
  void Load(ValueOf&& value_of) {
    for (uint64_t page = 0; page < num_pages(); ++page) {
      const uint64_t first = page * kValuesPerPage;
      const uint64_t rows = num_rows_ - first < kValuesPerPage
                                ? num_rows_ - first
                                : kValuesPerPage;
      Value* data = values_ + first;
      PageZone zone;
      const auto widen = [&zone](Value v) {
        zone.min = v < zone.min ? v : zone.min;
        zone.max = v > zone.max ? v : zone.max;
      };
      for (uint64_t i = 0; i < rows; ++i) {
        data[i] = value_of(first + i);
        widen(data[i]);
      }
      // Scans read whole pages, so the tail counts as the page holds it.
      for (uint64_t i = rows; i < kValuesPerPage; ++i) widen(data[i]);
      SetZone(page, zone);
    }
  }

  /// Per-page zones, indexed by page (see the header comment).
  const PageZone* zones() const { return zones_.data(); }

  /// Installs an exact zone for `page`, computed by the caller from the
  /// page's content, and clears its loose flag. Readers excluded; distinct
  /// pages may be installed from concurrent threads.
  void SetZone(uint64_t page, const PageZone& zone) {
    zones_[page] = zone;
    loose_[page] = 0;
  }

  /// The loose pages, ascending (see the header comment).
  std::vector<uint64_t> LoosePages() const;

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
        values_(reinterpret_cast<Value*>(arena_->data())),
        zones_(file_->num_pages(), PageZone{0, ~Value{0}}),
        loose_(file_->num_pages(), 1) {}

  std::shared_ptr<PhysicalMemoryFile> file_;
  std::unique_ptr<VirtualArena> arena_;
  uint64_t num_rows_;
  Value* values_;
  std::vector<PageZone> zones_;  // one per page; see the header comment
  /// One flag per page, a byte so that SetZone on distinct pages never
  /// shares a memory location with another thread's.
  std::vector<uint8_t> loose_;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_COLUMN_H_
