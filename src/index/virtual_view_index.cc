#include "index/virtual_view_index.h"

namespace vmsv {

Status VirtualViewIndex::Build(const PhysicalColumn& column, Value lo,
                               Value hi) {
  lo_ = lo;
  hi_ = hi;
  ViewCreationOptions options;
  options.coalesce_runs = true;
  auto view_r = BuildViewByScan(column, lo, hi, options, nullptr);
  if (!view_r.ok()) return view_r.status();
  view_ = std::move(view_r).ValueOrDie();
  return OkStatus();
}

Status VirtualViewIndex::ApplyUpdate(const PhysicalColumn& column,
                                     const RowUpdate& update) {
  const uint64_t page = PhysicalColumn::PageOfRow(update.row);
  const bool qualifies = PageQualifies(column, page);
  const bool member = view_->ContainsPage(page);
  if (qualifies && !member) return view_->AppendPage(page);
  if (!qualifies && member) return view_->RemovePage(page);
  // Content-only change: nothing to do — the view shares the physical page.
  return OkStatus();
}

IndexQueryResult VirtualViewIndex::Query(const PhysicalColumn& /*column*/,
                                         const RangeQuery& q) const {
  return view_->Scan(q);
}

}  // namespace vmsv
