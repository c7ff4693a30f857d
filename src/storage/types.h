// Core value/layout types shared by storage, index, and core layers.

#ifndef VMSV_STORAGE_TYPES_H_
#define VMSV_STORAGE_TYPES_H_

#include <cstdint>

#include "rewiring/physical_memory_file.h"

namespace vmsv {

/// Fixed-width 8-byte column value (the paper's experiments use 8B ints).
using Value = uint64_t;

/// Values per 4 KiB storage page.
inline constexpr uint64_t kValuesPerPage = kPageSize / sizeof(Value);

/// Inclusive value-range predicate lo <= v <= hi — the query shape of every
/// experiment in the paper.
struct RangeQuery {
  Value lo = 0;
  Value hi = 0;

  bool Contains(Value v) const { return v >= lo && v <= hi; }
  bool operator==(const RangeQuery& o) const { return lo == o.lo && hi == o.hi; }
};

/// Min/max of a page — the zone-map building block, and the per-page zone
/// table every engine scan consults (storage/column.h).
struct PageZone {
  Value min = ~Value{0};
  Value max = 0;

  bool Intersects(const RangeQuery& q) const { return min <= q.hi && max >= q.lo; }
};

/// One logged update: row got new_value, previously held old_value.
struct RowUpdate {
  uint64_t row = 0;
  Value old_value = 0;
  Value new_value = 0;
};

}  // namespace vmsv

#endif  // VMSV_STORAGE_TYPES_H_
