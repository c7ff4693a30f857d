#include "core/update_applier.h"

#include "exec/scan_kernels.h"
#include "rewiring/maps_parser.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace vmsv {

StatusOr<UpdateApplyStats> AlignPartialViews(
    const PhysicalColumn& column, const std::vector<VirtualView*>& views,
    const UpdateBatch& batch, MappingSource source) {
  UpdateApplyStats stats;
  if (batch.empty() || views.empty()) return stats;

  const UpdateBatch net = batch.FilterLastPerRow();
  stats.net_updates = net.size();
  const std::vector<uint64_t> touched = net.TouchedPages();

  // Phase 1 (§2.5): recover each view's current page membership.
  Stopwatch parse_timer;
  std::vector<PageBimap> bimaps;
  if (source == MappingSource::kProcMaps) {
    auto entries = ParseSelfMaps();
    if (!entries.ok()) return entries.status();
    bimaps.resize(views.size());
    for (size_t vi = 0; vi < views.size(); ++vi) {
      // A view without an arena has no kernel mappings to recover; its
      // bitmap lives only in user space and is consulted directly below.
      if (views[vi]->is_materialized()) {
        bimaps[vi] = BuildArenaBimap(*entries, views[vi]->arena());
      }
    }
  }
  stats.parse_ms = parse_timer.ElapsedMillis();

  // Phase 2 (§2.4): re-decide membership of each touched page per view.
  Stopwatch align_timer;
  for (size_t vi = 0; vi < views.size(); ++vi) {
    VirtualView* view = views[vi];
    const RangeQuery range = view->value_range();
    for (const uint64_t page : touched) {
      const bool qualifies =
          PageContainsAny(column.PageData(page), kValuesPerPage, range);
      const bool member =
          source == MappingSource::kProcMaps && view->is_materialized()
              ? bimaps[vi].ContainsPage(page)
              : view->ContainsPage(page);
      if (qualifies && !member) {
        VMSV_RETURN_IF_ERROR(view->AppendPage(page));
        ++stats.pages_added;
      } else if (!qualifies && member) {
        VMSV_RETURN_IF_ERROR(view->RemovePage(page));
        ++stats.pages_removed;
      }
    }
  }
  stats.align_ms = align_timer.ElapsedMillis();
  return stats;
}

}  // namespace vmsv
