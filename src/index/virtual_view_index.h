// Virtual view (the paper's representation): qualifying pages are rewired
// into a contiguous virtual range instead of being copied. Scans are as
// dense as the physical copy, but updates only maintain page MEMBERSHIP —
// content changes are shared with the base column through the common
// physical pages. An update that moves a page in or out of the range maps
// it at the tail or swap-removes it (core/virtual_view.h), so the view
// stays one dense range under sustained updates.

#ifndef VMSV_INDEX_VIRTUAL_VIEW_INDEX_H_
#define VMSV_INDEX_VIRTUAL_VIEW_INDEX_H_

#include <memory>

#include "core/virtual_view.h"
#include "index/partial_index.h"

namespace vmsv {

class VirtualViewIndex : public PartialIndex {
 public:
  const char* name() const override { return "virtual_view"; }

  Status Build(const PhysicalColumn& column, Value lo, Value hi) override;
  Status ApplyUpdate(const PhysicalColumn& column,
                     const RowUpdate& update) override;
  IndexQueryResult Query(const PhysicalColumn& column,
                         const RangeQuery& q) const override;
  uint64_t num_indexed_pages() const override {
    return view_ == nullptr ? 0 : view_->num_pages();
  }

  const VirtualView& view() const { return *view_; }

 private:
  std::unique_ptr<VirtualView> view_;
};

}  // namespace vmsv

#endif  // VMSV_INDEX_VIRTUAL_VIEW_INDEX_H_
