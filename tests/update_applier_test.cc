#include "core/update_applier.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

constexpr uint64_t kTestPages = 64;
constexpr Value kMaxValue = 100'000'000;

std::unique_ptr<PhysicalColumn> MakeTestColumn(DataDistribution kind,
                                               uint64_t seed = 42) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = kMaxValue;
  spec.seed = seed;
  auto column_r = MakeColumn(spec, kTestPages * kValuesPerPage);
  EXPECT_TRUE(column_r.ok());
  return std::move(column_r).ValueOrDie();
}

/// The ground truth a view must match after alignment: exactly the pages
/// whose current content intersects the view range.
std::vector<uint64_t> ExpectedPages(const PhysicalColumn& column, Value lo,
                                    Value hi) {
  std::vector<uint64_t> pages;
  for (uint64_t page = 0; page < column.num_pages(); ++page) {
    if (PageContainsAny(column.PageData(page), kValuesPerPage,
                        RangeQuery{lo, hi})) {
      pages.push_back(page);
    }
  }
  return pages;
}

std::vector<uint64_t> SortedViewPages(const VirtualView& view) {
  std::vector<uint64_t> pages = view.physical_pages();
  std::sort(pages.begin(), pages.end());
  return pages;
}

class UpdateApplierTest : public ::testing::TestWithParam<MappingSource> {};

TEST_P(UpdateApplierTest, ViewMatchesRebuildAfterScatteredUpdates) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  const Value lo = 0;
  const Value hi = kMaxValue / 16;  // narrow slice: membership will churn
  auto view_r = BuildViewByScan(*column, lo, hi);
  ASSERT_TRUE(view_r.ok());
  auto view = std::move(view_r).ValueOrDie();

  Rng rng(7);
  UpdateBatch batch;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t row = rng.Below(column->num_rows());
    const Value new_value = rng.Below(kMaxValue + 1);
    batch.Add(row, column->Set(row, new_value), new_value);
  }

  auto stats_r =
      AlignPartialViews(*column, {view.get()}, batch, GetParam());
  ASSERT_TRUE(stats_r.ok()) << stats_r.status().ToString();
  const UpdateApplyStats& stats = *stats_r;
  EXPECT_GT(stats.net_updates, 0u);

  EXPECT_EQ(SortedViewPages(*view), ExpectedPages(*column, lo, hi));
}

TEST_P(UpdateApplierTest, ViewContentStaysConsistentWithBase) {
  // Content consistency is rewiring's free lunch: after updates, scanning
  // the aligned view must equal scanning the base for the view's range.
  auto column = MakeTestColumn(DataDistribution::kSine);
  const Value lo = 20'000'000;
  const Value hi = 60'000'000;
  auto view_r = BuildViewByScan(*column, lo, hi);
  ASSERT_TRUE(view_r.ok());
  auto view = std::move(view_r).ValueOrDie();

  Rng rng(13);
  UpdateBatch batch;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t row = rng.Below(column->num_rows());
    const Value new_value = rng.Below(kMaxValue + 1);
    batch.Add(row, column->Set(row, new_value), new_value);
  }
  auto stats_r = AlignPartialViews(*column, {view.get()}, batch, GetParam());
  ASSERT_TRUE(stats_r.ok());
  EXPECT_GT(stats_r->pages_added, 0u);

  const RangeQuery q{lo, hi};
  const PageScanResult via_view = view->Scan(q);
  PageScanResult via_base;
  for (uint64_t page = 0; page < column->num_pages(); ++page) {
    via_base.Merge(ScanPage(column->PageData(page), kValuesPerPage, q));
  }
  EXPECT_EQ(via_view.match_count, via_base.match_count);
  EXPECT_EQ(via_view.sum, via_base.sum);
}

TEST_P(UpdateApplierTest, MultipleViewsAlignIndependently) {
  auto column = MakeTestColumn(DataDistribution::kUniform, 5);
  struct Range { Value lo, hi; };
  const std::vector<Range> ranges = {
      {0, kMaxValue / 8},
      {kMaxValue / 2, kMaxValue / 2 + kMaxValue / 8},
      {kMaxValue - kMaxValue / 8, kMaxValue}};
  std::vector<std::unique_ptr<VirtualView>> views;
  std::vector<VirtualView*> pointers;
  for (const Range& r : ranges) {
    auto view_r = BuildViewByScan(*column, r.lo, r.hi);
    ASSERT_TRUE(view_r.ok());
    pointers.push_back(view_r->get());
    views.push_back(std::move(view_r).ValueOrDie());
  }

  Rng rng(23);
  UpdateBatch batch;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t row = rng.Below(column->num_rows());
    const Value new_value = rng.Below(kMaxValue + 1);
    batch.Add(row, column->Set(row, new_value), new_value);
  }
  auto stats_r = AlignPartialViews(*column, pointers, batch, GetParam());
  ASSERT_TRUE(stats_r.ok());

  for (size_t i = 0; i < ranges.size(); ++i) {
    SCOPED_TRACE("view " + std::to_string(i));
    EXPECT_EQ(SortedViewPages(*views[i]),
              ExpectedPages(*column, ranges[i].lo, ranges[i].hi));
  }
}

INSTANTIATE_TEST_SUITE_P(BothMappingSources, UpdateApplierTest,
                         ::testing::Values(MappingSource::kProcMaps,
                                           MappingSource::kUserSpaceTable));

TEST(UpdateApplierEdgeTest, EmptyBatchIsFree) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view_r = BuildViewByScan(*column, 0, kMaxValue / 4);
  ASSERT_TRUE(view_r.ok());
  auto view = std::move(view_r).ValueOrDie();
  const uint64_t pages_before = view->num_pages();
  UpdateBatch empty;
  auto stats_r = AlignPartialViews(*column, {view.get()}, empty,
                                   MappingSource::kProcMaps);
  ASSERT_TRUE(stats_r.ok());
  EXPECT_EQ(stats_r->pages_added, 0u);
  EXPECT_EQ(stats_r->pages_removed, 0u);
  EXPECT_EQ(view->num_pages(), pages_before);
}

TEST(UpdateBatchTest, FilterLastPerRowKeepsNetEffect) {
  UpdateBatch batch;
  batch.Add(10, 1, 2);
  batch.Add(11, 5, 6);
  batch.Add(10, 2, 3);   // same row again: net 1 -> 3
  batch.Add(12, 9, 9);   // no-op from the start
  batch.Add(11, 6, 5);   // net 5 -> 5: a round trip, dropped
  const UpdateBatch net = batch.FilterLastPerRow();
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net.updates()[0].row, 10u);
  EXPECT_EQ(net.updates()[0].old_value, 1u);
  EXPECT_EQ(net.updates()[0].new_value, 3u);
}

TEST(UpdateBatchTest, GroupByPageSplitsOnPageBoundaries) {
  UpdateBatch batch;
  batch.Add(0, 0, 1);                     // page 0
  batch.Add(kValuesPerPage - 1, 0, 2);    // page 0
  batch.Add(kValuesPerPage, 0, 3);        // page 1
  batch.Add(5 * kValuesPerPage + 7, 0, 4);  // page 5
  const auto groups = batch.GroupByPage();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.at(0).size(), 2u);
  EXPECT_EQ(groups.at(1).size(), 1u);
  EXPECT_EQ(groups.at(5).size(), 1u);
  EXPECT_EQ(batch.TouchedPages(), (std::vector<uint64_t>{0, 1, 5}));
}

}  // namespace
}  // namespace vmsv
