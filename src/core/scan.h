// Per-page scan kernels — the SCALAR REFERENCE implementations. Every query
// path — full scans, index probes, view scans — funnels through the
// dispatched versions in exec/scan_kernels.h, which fall back to these loops
// on hardware without SIMD support. The scalar loops stay branch-light and
// header-inline; they define the semantics every vectorized kernel must
// reproduce bit-identically (match_count, wrap-around sum, zone min/max).

#ifndef VMSV_CORE_SCAN_H_
#define VMSV_CORE_SCAN_H_

#include <cstdint>

#include "storage/types.h"

namespace vmsv {

struct PageScanResult {
  uint64_t match_count = 0;
  Value sum = 0;  // wraps mod 2^64; identical across variants by construction

  void Merge(const PageScanResult& other) {
    match_count += other.match_count;
    sum += other.sum;
  }
};

/// Filters `count` values against q, accumulating count and sum of matches.
inline PageScanResult ScanPageScalar(const Value* data, uint64_t count,
                                     const RangeQuery& q) {
  PageScanResult result;
  for (uint64_t i = 0; i < count; ++i) {
    const Value v = data[i];
    // Branch-free qualification keeps the loop vectorizable.
    const uint64_t match = static_cast<uint64_t>(v >= q.lo) &
                           static_cast<uint64_t>(v <= q.hi);
    result.match_count += match;
    result.sum += v * match;
  }
  return result;
}

/// Number of values per early-exit block in PageContainsAny kernels. One
/// 4 KiB page; large enough that the block accumulator stays branch-free,
/// small enough that qualifying data is detected after a bounded overshoot.
inline constexpr uint64_t kContainsBlockValues = 512;

/// True when at least one of `count` values falls in q. Processes
/// 512-value blocks with a branch-free OR-accumulator and early-exits per
/// block, so a non-qualifying page costs one dependency-free pass instead of
/// a chain of `count` data-dependent branches.
inline bool PageContainsAnyScalar(const Value* data, uint64_t count,
                                  const RangeQuery& q) {
  uint64_t i = 0;
  while (i < count) {
    const uint64_t block_end =
        (count - i < kContainsBlockValues) ? count : i + kContainsBlockValues;
    uint64_t any = 0;
    for (; i < block_end; ++i) {
      const Value v = data[i];
      any |= static_cast<uint64_t>(v >= q.lo) &
             static_cast<uint64_t>(v <= q.hi);
    }
    if (any != 0) return true;
  }
  return false;
}

inline PageZone ComputePageZoneScalar(const Value* data, uint64_t count) {
  PageZone zone;
  for (uint64_t i = 0; i < count; ++i) {
    const Value v = data[i];
    if (v < zone.min) zone.min = v;
    if (v > zone.max) zone.max = v;
  }
  return zone;
}

}  // namespace vmsv

#endif  // VMSV_CORE_SCAN_H_
