// View alignment after base-table updates (paper §2.4/§2.5).
//
// Because views share physical pages with the base column, an update's new
// value is already visible everywhere; what can change is page MEMBERSHIP: a
// page may start or stop containing values in a view's range. Alignment
// re-evaluates membership for exactly the pages a batch touched.
//
// The current mapping state of each view can come from two places:
//   - kProcMaps: parse /proc/self/maps and rebuild a slot↔page bimap — the
//     paper's §2.5 "the kernel already stores the mapping table" approach;
//   - kUserSpaceTable: the view's membership bitmap (VirtualView::
//     ContainsPage), which every view keeps in user space, arena or not.
// Both produce identical alignment; the benchmarks compare their cost.

#ifndef VMSV_CORE_UPDATE_APPLIER_H_
#define VMSV_CORE_UPDATE_APPLIER_H_

#include <vector>

#include "core/virtual_view.h"
#include "storage/column.h"
#include "storage/update.h"
#include "util/status.h"

namespace vmsv {

enum class MappingSource {
  kProcMaps,
  kUserSpaceTable,
};

struct UpdateApplyStats {
  /// Time to recover mapping state (maps parse + bimap build); ~0 for the
  /// user-space source.
  double parse_ms = 0;
  /// Time re-evaluating membership and rewiring pages in/out of views.
  double align_ms = 0;
  uint64_t pages_added = 0;
  uint64_t pages_removed = 0;
  /// Net batch size after FilterLastPerRow.
  uint64_t net_updates = 0;
};

/// Aligns every view in `views` with the current column content, assuming
/// `batch` is the complete log of changes since the views were last aligned.
/// The column must already hold the new values.
StatusOr<UpdateApplyStats> AlignPartialViews(
    const PhysicalColumn& column, const std::vector<VirtualView*>& views,
    const UpdateBatch& batch, MappingSource source);

}  // namespace vmsv

#endif  // VMSV_CORE_UPDATE_APPLIER_H_
