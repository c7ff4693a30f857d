#include "vmsv.h"

#include <cerrno>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan_kernels.h"
#include "rewiring/vm_io.h"
#include "util/random.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr uint64_t kTestPages = 64;
constexpr Value kMaxValue = 100'000'000;

std::unique_ptr<PhysicalColumn> MakeTestColumn(DataDistribution kind) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, kTestPages * kValuesPerPage);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  return std::move(column_r).ValueOrDie();
}

std::unique_ptr<Table> MakeAdaptive(DataDistribution kind,
                                    const AdaptiveConfig& config) {
  auto adaptive_r = Db::Create(MakeTestColumn(kind), DbOptions{config});
  EXPECT_TRUE(adaptive_r.ok()) << adaptive_r.status().ToString();
  return std::move(adaptive_r).ValueOrDie();
}

std::vector<RangeQuery> TestWorkload(uint64_t n, uint64_t seed) {
  QueryWorkloadSpec wspec;
  wspec.num_queries = n;
  wspec.domain_hi = kMaxValue;
  wspec.seed = seed;
  return MakeVaryingWidthWorkload(wspec, kMaxValue / 2, kMaxValue / 20000);
}

TEST(AdaptiveColumnTest, CreateValidatesArguments) {
  EXPECT_FALSE(Db::Create(nullptr, {}).ok());
  AdaptiveConfig config;
  config.max_views = 0;
  EXPECT_FALSE(
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config})
          .ok());
  config = AdaptiveConfig{};
  config.materialize_after_hits = 0;
  EXPECT_FALSE(
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config})
          .ok());
  // The lifecycle values are refused, not patched, unless > 0.
  for (const double bad : {0.0, -1.0, std::nan("")}) {
    SCOPED_TRACE(bad);
    config = AdaptiveConfig{};
    config.lifecycle.recency_half_life = bad;
    EXPECT_EQ(
        Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config})
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    config = AdaptiveConfig{};
    config.lifecycle.eviction_margin = bad;
    EXPECT_EQ(
        Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config})
            .status()
            .code(),
        StatusCode::kInvalidArgument);
  }
}

TEST(AdaptiveColumnTest, RejectsInvertedQuery) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  EXPECT_FALSE(adaptive->Execute(RangeQuery{10, 5}).ok());
}

// The core correctness contract: in both modes, on every distribution,
// adaptive answers must equal the full-scan baseline for a whole query
// sequence (the runner verifies each query).
class AdaptiveModeTest
    : public ::testing::TestWithParam<std::tuple<QueryMode, DataDistribution>> {
};

TEST_P(AdaptiveModeTest, ResultsEqualFullScanBaseline) {
  const auto [mode, kind] = GetParam();
  AdaptiveConfig config;
  config.mode = mode;
  config.max_views = 16;
  auto adaptive = MakeAdaptive(kind, config);

  RunnerOptions options;
  options.run_baseline = true;
  options.verify_results = true;
  auto report_r = RunWorkload(adaptive.get(), TestWorkload(40, 3), options);
  ASSERT_TRUE(report_r.ok()) << report_r.status().ToString();
  EXPECT_EQ(report_r->traces.size(), 40u);

  // The budget must be respected throughout.
  EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), config.max_views);
  // On clustered data at least one view must have materialized.
  EXPECT_GE(adaptive->shard(0)->view_index().num_partial_views(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndDistributions, AdaptiveModeTest,
    ::testing::Combine(::testing::Values(QueryMode::kSingleView,
                                         QueryMode::kMultiView),
                       ::testing::Values(DataDistribution::kSine,
                                         DataDistribution::kLinear,
                                         DataDistribution::kSparse,
                                         DataDistribution::kUniform)));

TEST(AdaptiveColumnTest, MaxViewsBudgetIsHardLimit) {
  AdaptiveConfig config;
  config.max_views = 3;
  // Pin the historical cliff policy: every candidate at budget is dropped.
  config.lifecycle.eviction_policy = EvictionPolicy::kDropNewest;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);

  bool saw_budget_exhausted = false;
  for (const RangeQuery& q : TestWorkload(60, 11)) {
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok());
    EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), 3u);
    saw_budget_exhausted |=
        exec->stats.decision == CandidateDecision::kBudgetExhausted;
  }
  EXPECT_TRUE(saw_budget_exhausted);
  // Drops are no longer silent: the counter must match what we observed.
  EXPECT_GT(adaptive->shard(0)->metrics().candidates_dropped, 0u);
  EXPECT_EQ(adaptive->shard(0)->metrics().views_evicted, 0u);
}

TEST(AdaptiveColumnTest, CostAwareBudgetStaysWithinLimitToo) {
  AdaptiveConfig config;
  config.max_views = 3;
  config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);
  for (const RangeQuery& q : TestWorkload(60, 11)) {
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok());
    EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), 3u);
  }
  // Under budget pressure the pool adapted instead of freezing.
  EXPECT_GT(adaptive->shard(0)->metrics().views_evicted +
                adaptive->shard(0)->metrics().candidates_dropped,
            0u);
}

TEST(AdaptiveColumnTest, CoveredQueryIsAnsweredFromView) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery wide{10'000'000, 30'000'000};
  auto first = adaptive->Execute(wide);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.decision, CandidateDecision::kInserted);
  EXPECT_EQ(first->stats.scanned_pages, kTestPages);

  // A narrower query inside the view's range must be answered from it and
  // scan at most the view's pages.
  const RangeQuery narrow{12'000'000, 20'000'000};
  auto second = adaptive->Execute(narrow);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_LT(second->stats.scanned_pages, kTestPages);

  auto baseline = adaptive->ExecuteFullScan(narrow);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(second->match_count, baseline->match_count);
  EXPECT_EQ(second->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, RepeatedQueryIsDiscardedAsSubset) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery q{5'000'000, 25'000'000};
  ASSERT_TRUE(adaptive->Execute(q).ok());
  // Force the full-scan path again by querying a range only slightly wider
  // than the view: its page set is typically identical on clustered data.
  const RangeQuery wider{5'000'000, 25'000'001};
  auto exec = adaptive->Execute(wider);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
  EXPECT_EQ(adaptive->shard(0)->view_index().num_partial_views(), 1u);

  // An exact-subset discard must extend the absorbing view's range, so the
  // same query is answered from the view from now on instead of triggering
  // an endless full-scan/discard loop.
  auto again = adaptive->Execute(wider);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(again->match_count, exec->match_count);
  EXPECT_EQ(again->sum, exec->sum);

  auto baseline = adaptive->ExecuteFullScan(wider);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(again->match_count, baseline->match_count);
  EXPECT_EQ(again->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, DisjointSubsetDiscardDoesNotExtendRange) {
  // A candidate whose range is DISJOINT from the absorbing view must not
  // widen it: the gap between the ranges was never scanned for, so routing
  // gap queries to the view would return wrong results.
  auto adaptive = MakeAdaptive(DataDistribution::kSparse, {});
  // Sparse data: most pages hold only low-band values, so two disjoint
  // high-band ranges often qualify the same few spike pages.
  const RangeQuery a{60'000'000, 70'000'000};
  ASSERT_TRUE(adaptive->Execute(a).ok());
  const RangeQuery b{80'000'000, 90'000'000};
  auto exec_b = adaptive->Execute(b);
  ASSERT_TRUE(exec_b.ok());

  // Whatever the decisions were, every later query must stay correct.
  for (const RangeQuery& q :
       {RangeQuery{72'000'000, 78'000'000}, RangeQuery{60'000'000, 90'000'000},
        a, b}) {
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok());
    auto baseline = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(exec->match_count, baseline->match_count)
        << "[" << q.lo << "," << q.hi << "]";
    EXPECT_EQ(exec->sum, baseline->sum);
  }
}

TEST(AdaptiveColumnTest, DataFreeRangeIsRememberedAsEmptyView) {
  // A query range holding no data must be recorded (as an empty view), not
  // rebuilt and discarded on every repetition.
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  // All column values are <= kMaxValue, so this range is provably empty.
  const RangeQuery empty_range{kMaxValue + 1, kMaxValue + 1000};
  auto first = adaptive->Execute(empty_range);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->match_count, 0u);
  EXPECT_EQ(first->stats.decision, CandidateDecision::kInserted);

  auto second = adaptive->Execute(empty_range);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(second->stats.scanned_pages, 0u);
  EXPECT_EQ(second->match_count, 0u);

  // A touching empty range merges instead of burning budget; a data-bearing
  // query afterwards must not be answered by (or replace into) the empty
  // view wrongly.
  auto third = adaptive->Execute(RangeQuery{kMaxValue + 1001, kMaxValue + 2000});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.decision, CandidateDecision::kDiscardedSubset);
  EXPECT_EQ(adaptive->shard(0)->view_index().num_partial_views(), 1u);

  const RangeQuery data_range{0, kMaxValue / 4};
  auto fourth = adaptive->Execute(data_range);
  ASSERT_TRUE(fourth.ok());
  auto baseline = adaptive->ExecuteFullScan(data_range);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(fourth->match_count, baseline->match_count);
  EXPECT_EQ(fourth->sum, baseline->sum);
  // The empty view must still be present alongside any new view.
  EXPECT_GE(adaptive->shard(0)->view_index().num_partial_views(), 2u);
}

TEST(AdaptiveColumnTest, MultiViewCombinesViews) {
  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.max_views = 8;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);

  // Two adjacent views...
  ASSERT_TRUE(adaptive->Execute(RangeQuery{10'000'000, 20'000'000}).ok());
  ASSERT_TRUE(adaptive->Execute(RangeQuery{20'000'001, 30'000'000}).ok());
  // ...jointly answer a query spanning both.
  const RangeQuery spanning{15'000'000, 25'000'000};
  auto exec = adaptive->Execute(spanning);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(exec->stats.considered_views, 2u);

  auto baseline = adaptive->ExecuteFullScan(spanning);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, MetricsAccumulate) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  ASSERT_TRUE(adaptive->Execute(RangeQuery{0, kMaxValue}).ok());
  ASSERT_TRUE(adaptive->Execute(RangeQuery{1'000'000, 2'000'000}).ok());
  const CumulativeStats& m = adaptive->shard(0)->metrics();
  EXPECT_EQ(m.queries, 2u);
  EXPECT_EQ(m.fullscan_equivalent_pages, 2 * kTestPages);
  EXPECT_GT(m.scanned_pages, 0u);
  EXPECT_GE(m.PagesSavedRatio(), 0.0);
  EXPECT_LT(m.PagesSavedRatio(), 1.0);
}

TEST(AdaptiveColumnTest, PendingUpdatesAreFlushedBeforeAnswering) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery q{40'000'000, 60'000'000};
  ASSERT_TRUE(adaptive->Execute(q).ok());

  // Move some rows into and out of the queried range, bypassing no logs.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const uint64_t row = rng.Below(adaptive->shard(0)->column().num_rows());
    adaptive->Update(row, rng.Below(kMaxValue + 1));
  }
  EXPECT_TRUE(adaptive->shard(0)->HasPendingUpdates());

  auto exec = adaptive->Execute(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(adaptive->shard(0)->HasPendingUpdates());
  auto baseline = adaptive->ExecuteFullScan(q);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
}

// ---------------------------------------------------------------------------
// Admission at the tolerance edges. Page p of a step column holds only the
// value (p + 1) * 1000, so StepPages(a, b) qualifies exactly pages a..b and
// each case below fixes how many pages a candidate and a view differ by.
// The 3-page cases put two of the pages in one 64-page membership word and
// the third in the next, so a count that stops at the tolerance after the
// first word would decide wrongly.

constexpr uint64_t kStepPages = 128;

Value StepValue(uint64_t page) { return static_cast<Value>((page + 1) * 1000); }

RangeQuery StepPages(uint64_t first, uint64_t last) {
  return RangeQuery{StepValue(first), StepValue(last)};
}

/// A table over the step column holding one view, over pages first..last.
std::unique_ptr<Table> MakeStepTable(uint64_t first, uint64_t last) {
  auto column_r = PhysicalColumn::Create(kStepPages * kValuesPerPage);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  auto column = std::move(column_r).ValueOrDie();
  column->Load([](uint64_t row) { return StepValue(row / kValuesPerPage); });
  AdaptiveConfig config;
  config.discard_tolerance = 2;
  config.replace_tolerance = 2;
  auto table_r = Db::Create(std::move(column), DbOptions{config});
  EXPECT_TRUE(table_r.ok()) << table_r.status().ToString();
  auto table = std::move(table_r).ValueOrDie();
  auto seed = table->Execute(StepPages(first, last));
  EXPECT_TRUE(seed.ok());
  EXPECT_EQ(seed->stats.decision, CandidateDecision::kInserted);
  return table;
}

/// Executes q, checks the answer against the full scan, returns the decision.
CandidateDecision ExecuteChecked(Table* table, const RangeQuery& q) {
  auto exec = table->Execute(q);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  auto baseline = table->ExecuteFullScan(q);
  EXPECT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
  return exec->stats.decision;
}

const VirtualView& OnlyView(Table* table) {
  const auto& views = table->shard(0)->view_index().views();
  EXPECT_EQ(views.size(), 1u);
  return *views.front();
}

TEST(AdmissionEdgeTest, DiscardToleranceIsExact) {
  {
    // Candidate 50..63 holds 2 pages the view 50..61 lacks: discarded, and
    // being inexact it does not widen the view's range.
    auto table = MakeStepTable(50, 61);
    EXPECT_EQ(ExecuteChecked(table.get(), StepPages(50, 63)),
              CandidateDecision::kDiscardedSubset);
    EXPECT_EQ(OnlyView(table.get()).value_range(), StepPages(50, 61));
  }
  {
    // Candidate 50..64 holds 3 (62 and 63, then 64 in the next word): not
    // discarded; the view, missing nothing from it, is replaced instead.
    auto table = MakeStepTable(50, 61);
    EXPECT_EQ(ExecuteChecked(table.get(), StepPages(50, 64)),
              CandidateDecision::kReplacedExisting);
    EXPECT_EQ(OnlyView(table.get()).value_range(), StepPages(50, 64));
    EXPECT_EQ(OnlyView(table.get()).num_pages(), 15u);
  }
}

TEST(AdmissionEdgeTest, ReplaceToleranceIsExact) {
  {
    // View 62..75 has 2 pages candidate 64..90 lacks: it is replaced.
    auto table = MakeStepTable(62, 75);
    EXPECT_EQ(ExecuteChecked(table.get(), StepPages(64, 90)),
              CandidateDecision::kReplacedExisting);
    EXPECT_EQ(OnlyView(table.get()).value_range(), StepPages(64, 90));
  }
  {
    // Three view pages (62 and 63, then 64) missing from candidate 65..90:
    // both views stay.
    auto table = MakeStepTable(62, 75);
    EXPECT_EQ(ExecuteChecked(table.get(), StepPages(65, 90)),
              CandidateDecision::kInserted);
    EXPECT_EQ(table->shard(0)->view_index().num_partial_views(), 2u);
  }
}

TEST(AdmissionEdgeTest, TouchingExactSubsetWidensTheRange) {
  auto table = MakeStepTable(50, 61);
  // Pages 55..61 again, over a range reaching past the view's hi into
  // values no page holds: an exact subset that overlaps the view.
  const RangeQuery q{StepValue(55), StepValue(61) + 500};
  EXPECT_EQ(ExecuteChecked(table.get(), q),
            CandidateDecision::kDiscardedSubset);
  EXPECT_EQ(OnlyView(table.get()).value_range(),
            (RangeQuery{StepValue(50), StepValue(61) + 500}));
  EXPECT_EQ(ExecuteChecked(table.get(), q),
            CandidateDecision::kAnsweredFromView);
}

// ---------------------------------------------------------------------------
// Page zones: every writer keeps each page's zone a bound of the page, so
// zone-filtered view hits, candidate builds and base passes stay exact.

/// The exact zone of `page`, zero tail included.
PageZone ExactZone(const PhysicalColumn& column, uint64_t page) {
  return ComputePageZone(column.PageData(page), kValuesPerPage);
}

/// Pages of the view q routes to (single-view mode) whose zone misses q:
/// the pages its view hit does not read.
uint64_t SkippedRoutedPages(const AdaptiveColumn& engine, const RangeQuery& q) {
  const VirtualView* view = engine.view_index().FindSmallestCovering(q);
  if (view == nullptr) return 0;
  uint64_t skipped = 0;
  view->ForEachPage([&](uint64_t page) {
    if (!engine.column().zones()[page].Intersects(q)) ++skipped;
  });
  return skipped;
}

TEST(ZoneTableTest, EveryWriterLeavesTheLooseFlagsItPromises) {
  // The last page holds a zero tail.
  constexpr uint64_t kPages = 130;
  const uint64_t rows = kPages * kValuesPerPage - 100;
  auto created = PhysicalColumn::Create(rows);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PhysicalColumn& column = **created;
  const auto expect_all_exact = [](const PhysicalColumn& c, const char* when) {
    SCOPED_TRACE(when);
    EXPECT_TRUE(c.LoosePages().empty());
    for (uint64_t page = 0; page < c.num_pages(); ++page) {
      EXPECT_EQ(c.zones()[page].min, ExactZone(c, page).min) << page;
      EXPECT_EQ(c.zones()[page].max, ExactZone(c, page).max) << page;
    }
  };
  expect_all_exact(column, "created");

  // Set marks exactly its own page loose, the tail page included.
  column.Set(3 * kValuesPerPage + 1, 7);
  column.Set(rows - 1, 9);
  EXPECT_EQ(column.LoosePages(), (std::vector<uint64_t>{3, kPages - 1}));
  EXPECT_EQ(column.zones()[kPages - 1].max, 9u);

  // SetZone leaves its page exact.
  column.SetZone(3, ExactZone(column, 3));
  EXPECT_EQ(column.LoosePages(), (std::vector<uint64_t>{kPages - 1}));

  // Load leaves every page exact, the zero tail counted as the page holds
  // it.
  column.Load([](uint64_t row) { return row * 7 + 1; });
  expect_all_exact(column, "loaded");
  EXPECT_EQ(column.zones()[kPages - 1].min, 0u) << "the loader dropped the tail";

  // Attach marks every page of the column loose until its owner derives
  // the zones.
  auto attached = PhysicalColumn::Attach(column.file(), rows);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  std::vector<uint64_t> every_page(kPages);
  for (uint64_t page = 0; page < kPages; ++page) every_page[page] = page;
  EXPECT_EQ((*attached)->LoosePages(), every_page);
  for (uint64_t page = 0; page < kPages; ++page) {
    (*attached)->SetZone(page, ExactZone(**attached, page));
  }
  expect_all_exact(**attached, "attached, then derived");
}

TEST(ZoneTableTest, AnswersStayExactAcrossEveryWriter) {
  // The last page is partial: its zero tail belongs to the page's zone.
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, kTestPages * kValuesPerPage - 100);
  ASSERT_TRUE(column_r.ok()) << column_r.status().ToString();
  AdaptiveConfig config;
  config.max_views = 8;
  auto table_r =
      Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  ASSERT_TRUE(table_r.ok()) << table_r.status().ToString();
  const std::unique_ptr<Table> table = std::move(table_r).ValueOrDie();
  AdaptiveColumn* engine = table->shard(0);
  const PhysicalColumn& column = engine->column();
  const uint64_t last = kTestPages - 1;
  ASSERT_EQ(column.zones()[last].min, 0u) << "the loader dropped the tail";

  const RangeQuery low{0, kMaxValue / 5};
  const RangeQuery mid{3 * kMaxValue / 10, 7 * kMaxValue / 10};
  for (const RangeQuery& q : {low, mid}) {
    auto exec = table->Execute(q);
    ASSERT_TRUE(exec.ok());
    ASSERT_EQ(exec->stats.decision, CandidateDecision::kInserted);
  }
  const VirtualView* mid_view = engine->view_index().FindSmallestCovering(mid);
  ASSERT_NE(mid_view, nullptr);

  // Queries strictly inside the two views, the tail's zeros among them.
  std::vector<RangeQuery> inner = {{0, 0}, {1, kMaxValue / 10}};
  Rng rng(29);
  for (int i = 0; i < 12; ++i) {
    const RangeQuery& view = i % 2 == 0 ? low : mid;
    const Value width = (view.hi - view.lo) / 20;
    const Value lo = view.lo + 1 + rng.Below(view.hi - view.lo - width - 2);
    inner.push_back({lo, lo + width});
  }
  // Each inner query, alone and as one batch, against the full scan. The
  // first query after an Update flushes it.
  const auto expect_exact = [&](const char* when) {
    SCOPED_TRACE(when);
    for (const RangeQuery& q : inner) {
      auto got = table->Execute(q);
      auto want = table->ExecuteFullScan(q);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(got->stats.decision, CandidateDecision::kAnsweredFromView);
      EXPECT_EQ(got->match_count, want->match_count) << q.lo << ".." << q.hi;
      EXPECT_EQ(got->sum, want->sum) << q.lo << ".." << q.hi;
    }
    auto batch = table->ExecuteBatch(inner);
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < inner.size(); ++i) {
      auto want = table->ExecuteFullScan(inner[i]);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(batch->queries[i].match_count, want->match_count) << i;
      EXPECT_EQ(batch->queries[i].sum, want->sum) << i;
    }
    EXPECT_FALSE(engine->HasPendingUpdates());
  };
  const auto expect_zone_exact = [&](uint64_t page) {
    EXPECT_EQ(column.zones()[page].min, ExactZone(column, page).min) << page;
    EXPECT_EQ(column.zones()[page].max, ExactZone(column, page).max) << page;
  };
  expect_exact("as loaded");
  auto zeros = table->ExecuteFullScan({0, 0});
  ASSERT_TRUE(zeros.ok());
  EXPECT_GE(zeros->match_count, 100u) << "no zero tail to find";
  uint64_t skipped = 0;
  for (const RangeQuery& q : inner) skipped += SkippedRoutedPages(*engine, q);
  EXPECT_GT(skipped, 0u) << "no view hit skips a page";

  // Three member pages of the mid view whose zones leave room in its range.
  const Value margin = kMaxValue / 100;
  std::vector<uint64_t> roomy;
  mid_view->ForEachPage([&](uint64_t page) {
    const PageZone zone = ExactZone(column, page);
    if (zone.min >= mid.lo + 2 * margin && zone.max + 2 * margin <= mid.hi) {
      roomy.push_back(page);
    }
  });
  ASSERT_GE(roomy.size(), 4u);

  // (1) Update writes a value below its page's zone: Set widens the zone
  // at once, and the flush before the next answer re-derives it.
  const uint64_t p1 = roomy[0];
  const Value v1 = ExactZone(column, p1).min - margin;
  ASSERT_TRUE(table->Update(p1 * kValuesPerPage + 5, v1).ok());
  EXPECT_LE(column.zones()[p1].min, v1) << "Update did not widen the zone";
  inner.push_back({v1 - margin / 2, v1 + margin / 2});
  expect_exact("after an Update and its flush");
  expect_zone_exact(p1);

  // (2) Update removes a page's max: after the flush its zone narrows, and
  // a query between the new and the old max skips the page.
  const uint64_t p2 = roomy[1];
  const PageZone wide = ExactZone(column, p2);
  uint64_t max_row = p2 * kValuesPerPage;
  while (column.Get(max_row) != wide.max) ++max_row;
  ASSERT_TRUE(table->Update(max_row, wide.min).ok());
  const Value new_max = ExactZone(column, p2).max;
  ASSERT_LT(new_max, wide.max);
  EXPECT_EQ(column.zones()[p2].max, wide.max) << "Set narrowed a zone";
  const RangeQuery above{new_max + 1, wide.max};
  inner.push_back(above);
  expect_exact("after an Update that removes a page's max");
  expect_zone_exact(p2);
  EXPECT_FALSE(column.zones()[p2].Intersects(above));
  EXPECT_TRUE(mid_view->ContainsPage(p2));

  // (3) A write through mutable_column() once the table exists: no flush
  // follows it, so Set's widening keeps the answer exact until Checkpoint
  // re-derives the zone.
  const uint64_t p3 = roomy[2];
  const Value v3 = ExactZone(column, p3).max + margin;
  engine->mutable_column()->Set(p3 * kValuesPerPage + 9, v3);
  EXPECT_GE(column.zones()[p3].max, v3) << "Set did not widen the zone";
  EXPECT_EQ(column.LoosePages(), std::vector<uint64_t>{p3});
  inner.push_back({v3 - margin / 2, v3 + margin / 2});
  expect_exact("after a write through mutable_column()");
  ASSERT_TRUE(table->Checkpoint().ok());
  expect_zone_exact(p3);
  EXPECT_TRUE(column.LoosePages().empty());

  // (4) A write through mutable_column() removes a page's max: the zone
  // stays wide until Checkpoint, and then a query between the new and the
  // old max skips the page.
  const uint64_t p4 = roomy[3];
  const PageZone wide4 = ExactZone(column, p4);
  uint64_t max_row4 = p4 * kValuesPerPage;
  while (column.Get(max_row4) != wide4.max) ++max_row4;
  engine->mutable_column()->Set(max_row4, wide4.min);
  const Value new_max4 = ExactZone(column, p4).max;
  ASSERT_LT(new_max4, wide4.max);
  const RangeQuery above4{new_max4 + 1, wide4.max};
  inner.push_back(above4);
  expect_exact("after a write through mutable_column() that removes a max");
  EXPECT_EQ(column.zones()[p4].max, wide4.max) << "narrowed before Checkpoint";
  ASSERT_TRUE(table->Checkpoint().ok());
  expect_zone_exact(p4);
  EXPECT_FALSE(column.zones()[p4].Intersects(above4));
  EXPECT_TRUE(mid_view->ContainsPage(p4));
  expect_exact("after Checkpoint");
}

TEST(AdaptiveColumnTest, BackgroundMappingCreationMatchesBaseline) {
  // Views built eagerly with their mmaps shipped to one shared background
  // mapper (the Fig. 6 creation path) scan exactly like the full column.
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const PhysicalColumn& column = adaptive->shard(0)->column();
  BackgroundMapper mapper;
  const ViewCreationOptions options{/*coalesce_runs=*/true,
                                    /*background_mapping=*/true,
                                    /*lazy_materialize=*/false};
  for (const RangeQuery& q : TestWorkload(20, 9)) {
    auto view = BuildViewByScan(column, q.lo, q.hi, options, &mapper);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_TRUE((*view)->is_materialized());
    auto baseline = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(baseline.ok());
    const PageScanResult got = (*view)->Scan(q);
    EXPECT_EQ(got.match_count, baseline->match_count);
    EXPECT_EQ(got.sum, baseline->sum);
  }
}

// ---------------------------------------------------------------------------
// Views without an arena answer over the base mapping: the same pages are
// read, so every answer and every stat equals a pool that maps each view at
// its first hit, and the full scan.

void ExpectSameAnswer(const QueryExecution& got, const QueryExecution& want) {
  EXPECT_EQ(got.match_count, want.match_count);
  EXPECT_EQ(got.sum, want.sum);
}

void ExpectSameExecution(const QueryExecution& over_base,
                         const QueryExecution& arena) {
  ExpectSameAnswer(over_base, arena);
  EXPECT_EQ(over_base.stats.decision, arena.stats.decision);
  EXPECT_EQ(over_base.stats.scanned_pages, arena.stats.scanned_pages);
  EXPECT_EQ(over_base.stats.considered_views, arena.stats.considered_views);
  EXPECT_EQ(over_base.stats.views_after, arena.stats.views_after);
}

TEST(OverBaseTest, AnswersEqualArenaAndFullScan) {
  // Overlapping view ranges, so multi-view covers share pages; the queries
  // hit inside one view, span two or three, or miss and adapt.
  const std::vector<RangeQuery> ranges = {{10'000'000, 30'000'000},
                                          {25'000'000, 45'000'000},
                                          {40'000'000, 60'000'000}};
  const std::vector<RangeQuery> queries = {
      {12'000'000, 28'000'000}, {20'000'000, 50'000'000},
      {26'000'000, 44'000'000}, {11'000'000, 59'000'000},
      {41'000'000, 59'000'000}, {5'000'000, 15'000'000},
      {20'000'000, 50'000'000}, {12'000'000, 28'000'000}};
  const ScanKernel restore = ActiveScanKernel();
  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kAvx2, ScanKernel::kAvx512}) {
    if (!ScanKernelAvailable(kernel)) continue;
    ASSERT_TRUE(SetActiveScanKernel(kernel).ok());
    for (const DataDistribution kind :
         {DataDistribution::kSine, DataDistribution::kLinear,
          DataDistribution::kSparse, DataDistribution::kUniform}) {
      for (const QueryMode mode : {QueryMode::kSingleView, QueryMode::kMultiView}) {
        SCOPED_TRACE(std::string(ScanKernelName(kernel)) + " " +
                     DistributionName(kind) +
                     (mode == QueryMode::kMultiView ? " multi" : " single"));
        AdaptiveConfig over_base_config;
        over_base_config.mode = mode;
        over_base_config.max_views = 16;
        AdaptiveConfig arena_config = over_base_config;
        arena_config.materialize_after_hits = 1;
        auto over_base = MakeAdaptive(kind, over_base_config);
        auto arena = MakeAdaptive(kind, arena_config);
        for (const RangeQuery& r : ranges) {
          ASSERT_TRUE(over_base->Execute(r).ok());
          ASSERT_TRUE(arena->Execute(r).ok());
        }
        for (const RangeQuery& q : queries) {
          auto b = over_base->Execute(q);
          auto a = arena->Execute(q);
          auto oracle = over_base->ExecuteFullScan(q);
          ASSERT_TRUE(b.ok() && a.ok() && oracle.ok());
          ExpectSameExecution(*b, *a);
          ExpectSameAnswer(*b, *oracle);
        }
        auto b = over_base->ExecuteBatch(queries);
        auto a = arena->ExecuteBatch(queries);
        ASSERT_TRUE(b.ok() && a.ok());
        EXPECT_EQ(b->shared_scanned_pages, a->shared_scanned_pages);
        EXPECT_EQ(b->view_answered, a->view_answered);
        EXPECT_GT(b->view_answered, 0u);
        for (size_t i = 0; i < queries.size(); ++i) {
          ExpectSameExecution(b->queries[i], a->queries[i]);
          auto oracle = over_base->ExecuteFullScan(queries[i]);
          ASSERT_TRUE(oracle.ok());
          ExpectSameAnswer(b->queries[i], *oracle);
        }
        const CumulativeStats mb = over_base->shard(0)->metrics();
        const CumulativeStats ma = arena->shard(0)->metrics();
        EXPECT_EQ(mb.scanned_pages, ma.scanned_pages);
        EXPECT_EQ(mb.views_created, ma.views_created);
        EXPECT_EQ(mb.views_discarded, ma.views_discarded);
        EXPECT_EQ(mb.views_replaced, ma.views_replaced);
        // Far below the default threshold, no view of `over_base` mapped.
        bool arena_mapped = false;
        for (const auto& view : over_base->shard(0)->view_index().views()) {
          EXPECT_FALSE(view->is_materialized());
        }
        for (const auto& view : arena->shard(0)->view_index().views()) {
          arena_mapped = arena_mapped || view->is_materialized();
        }
        EXPECT_TRUE(arena_mapped);
      }
    }
  }
  ASSERT_TRUE(SetActiveScanKernel(restore).ok());
}

TEST(OverBaseTest, FlushMovesPagesOfAnUnmappedView) {
  // A hit caches the view's member runs; updates then move pages into and
  // out of its range, and the hits after the flush must read the new ones.
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery range{20'000'000, 30'000'000};
  const RangeQuery inside{21'000'000, 29'000'000};
  ASSERT_TRUE(adaptive->Execute(range).ok());
  auto hit = adaptive->Execute(inside);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->stats.decision, CandidateDecision::kAnsweredFromView);
  const VirtualView* view =
      adaptive->shard(0)->view_index().views().front().get();
  ASSERT_FALSE(view->is_materialized());

  // Out: every row of the view's first page leaves the range. In: one row
  // of the first page outside the view lands inside the query.
  const std::vector<uint64_t> before = view->physical_pages();
  ASSERT_FALSE(before.empty());
  const uint64_t out_page = before.front();
  for (uint64_t row = out_page * kValuesPerPage;
       row < (out_page + 1) * kValuesPerPage; ++row) {
    ASSERT_TRUE(adaptive->Update(row, kMaxValue).ok());
  }
  uint64_t in_page = 0;
  while (view->ContainsPage(in_page)) ++in_page;
  ASSERT_TRUE(adaptive->Update(in_page * kValuesPerPage, 25'000'000).ok());
  auto flushed = adaptive->FlushUpdates();
  ASSERT_TRUE(flushed.ok());
  EXPECT_GT(flushed->pages_added, 0u);
  EXPECT_GT(flushed->pages_removed, 0u);
  EXPECT_FALSE(view->ContainsPage(out_page));
  EXPECT_TRUE(view->ContainsPage(in_page));

  for (const RangeQuery& q : {inside, range, RangeQuery{25'000'000, 25'000'000}}) {
    auto exec = adaptive->Execute(q);
    auto oracle = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(exec.ok() && oracle.ok());
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
    ExpectSameAnswer(*exec, *oracle);
  }
  EXPECT_FALSE(view->is_materialized());
}

// ---------------------------------------------------------------------------
// One query path: Execute and a batch of one run the same route-and-answer
// step, so they must agree on the answer, on every ExecStats field, and on
// the counters the step moves.

struct PathCase {
  const char* name;
  AdaptiveConfig config;
  /// Executed on both tables first (each builds or extends a lazy view).
  std::vector<RangeQuery> warmup;
  /// The compared query.
  RangeQuery query;
  CandidateDecision decision;
  uint64_t considered_views;
  /// Every view releases its arena before the compared query, which must
  /// then map its view again.
  bool release = false;
  /// One injected mmap failure on the compared query's materialization.
  bool fail_materialization = false;
};

std::unique_ptr<Table> MakePathTable(const PathCase& c, VmIo* io) {
  AdaptiveConfig config = c.config;
  config.vm_io = io;
  return MakeAdaptive(DataDistribution::kSine, config);
}

TEST(SinglePathTest, ExecuteAndBatchOfOneAgree) {
  const RangeQuery low{10'000'000, 20'000'000};
  const RangeQuery high{20'000'001, 30'000'000};
  const RangeQuery inside_low{12'000'000, 18'000'000};
  const RangeQuery spanning{15'000'000, 25'000'000};
  // At threshold 1 the compared query maps its views (again, after a
  // release); at the default the same hits read over the base mapping.
  AdaptiveConfig single_view;
  single_view.materialize_after_hits = 1;
  AdaptiveConfig multi_view = single_view;
  multi_view.mode = QueryMode::kMultiView;
  multi_view.max_views = 8;
  AdaptiveConfig single_over_base;
  AdaptiveConfig multi_over_base = multi_view;
  multi_over_base.materialize_after_hits =
      single_over_base.materialize_after_hits;

  std::vector<PathCase> cases = {
      {"single_view_hit", single_view, {low}, inside_low,
       CandidateDecision::kAnsweredFromView, 1},
      {"one_view_cover", multi_view, {low}, inside_low,
       CandidateDecision::kAnsweredFromView, 1},
      {"two_view_cover", multi_view, {low, high}, spanning,
       CandidateDecision::kAnsweredFromView, 2},
      {"remap_after_release", single_view, {low, low}, inside_low,
       CandidateDecision::kAnsweredFromView, 1},
      {"materialization_failure", single_view, {low}, inside_low,
       CandidateDecision::kBaseFallback, 1},
      {"single_view_hit_over_base", single_over_base, {low}, inside_low,
       CandidateDecision::kAnsweredFromView, 1},
      {"two_view_cover_over_base", multi_over_base, {low, high}, spanning,
       CandidateDecision::kAnsweredFromView, 2},
  };
  cases[3].release = true;
  cases[4].fail_materialization = true;

  for (const PathCase& c : cases) {
    SCOPED_TRACE(c.name);
    FaultInjectingVmIo execute_io;
    FaultInjectingVmIo batch_io;
    auto via_execute = MakePathTable(c, &execute_io);
    auto via_batch = MakePathTable(c, &batch_io);
    ASSERT_NE(via_execute, nullptr);
    ASSERT_NE(via_batch, nullptr);
    for (const RangeQuery& q : c.warmup) {
      ASSERT_TRUE(via_execute->Execute(q).ok());
      ASSERT_TRUE(via_batch->Execute(q).ok());
    }
    if (c.release) {
      ASSERT_EQ(via_execute->shard(0)->ReleaseColdestArenas(8), 1u);
      ASSERT_EQ(via_batch->shard(0)->ReleaseColdestArenas(8), 1u);
    }
    const uint64_t mapped_before =
        via_execute->shard(0)->Health().views_promoted;
    if (c.fail_materialization) {
      VmFaultPlan plan;
      plan.op_index = 1;
      plan.target = VmOp::kMmap;
      plan.fail_errno = ENOMEM;
      execute_io.Arm(plan);
      batch_io.Arm(plan);
    }

    auto single = via_execute->Execute(c.query);
    auto batch = via_batch->ExecuteBatch({c.query});
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->queries.size(), 1u);
    const QueryExecution& one = batch->queries.front();
    EXPECT_EQ(single->stats.decision, c.decision);
    EXPECT_EQ(single->stats.considered_views, c.considered_views);
    EXPECT_EQ(one.match_count, single->match_count);
    EXPECT_EQ(one.sum, single->sum);
    EXPECT_EQ(one.stats.decision, single->stats.decision);
    EXPECT_EQ(one.stats.scanned_pages, single->stats.scanned_pages);
    EXPECT_EQ(one.stats.considered_views, single->stats.considered_views);
    EXPECT_EQ(one.stats.views_after, single->stats.views_after);

    const CumulativeStats m_single = via_execute->shard(0)->metrics();
    const CumulativeStats m_batch = via_batch->shard(0)->metrics();
    EXPECT_EQ(m_batch.queries, m_single.queries);
    EXPECT_EQ(m_batch.scanned_pages, m_single.scanned_pages);
    EXPECT_EQ(m_batch.fullscan_equivalent_pages,
              m_single.fullscan_equivalent_pages);
    const ColumnHealth h_single = via_execute->shard(0)->Health();
    const ColumnHealth h_batch = via_batch->shard(0)->Health();
    EXPECT_EQ(h_batch.map_failures, h_single.map_failures);
    EXPECT_EQ(h_batch.base_fallbacks, h_single.base_fallbacks);
    EXPECT_EQ(h_batch.views_promoted, h_single.views_promoted);
    EXPECT_EQ(h_batch.views_demoted, h_single.views_demoted);
    if (c.release) {
      EXPECT_EQ(h_single.views_promoted, mapped_before + 1);
    }

    auto oracle = via_execute->ExecuteFullScan(c.query);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(single->match_count, oracle->match_count);
    EXPECT_EQ(single->sum, oracle->sum);
  }
}

// ---------------------------------------------------------------------------
// Only a lone view maps or reads an arena: a cover of several views reads
// the union of their pages over the base mapping once, and a lone view
// whose map fails keeps answering from its own page runs.

void ExpectOracle(Table* table, const RangeQuery& q,
                  const QueryExecution& exec) {
  auto oracle = table->ExecuteFullScan(q);
  ASSERT_TRUE(oracle.ok());
  ExpectSameAnswer(exec, *oracle);
}

TEST(LoneViewTest, OnlyACoverOfOneViewMaps) {
  FaultInjectingVmIo io;
  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.max_views = 8;
  config.materialize_after_hits = 1;
  config.vm_io = &io;
  auto table = MakeAdaptive(DataDistribution::kSine, config);
  ASSERT_TRUE(table->Execute(RangeQuery{10'000'000, 20'000'000}).ok());
  ASSERT_TRUE(table->Execute(RangeQuery{20'000'001, 30'000'000}).ok());
  AdaptiveColumn* column = table->shard(0);
  ASSERT_EQ(column->view_index().num_partial_views(), 2u);

  // Two-view covers, on both paths: no mmap, no promotion, no arena.
  const RangeQuery spanning{15'000'000, 25'000'000};
  const RangeQuery wider{12'000'000, 28'000'000};
  const uint64_t mmaps_before = io.stats().mmaps;
  auto two = table->Execute(spanning);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(two->stats.considered_views, 2u);
  ExpectOracle(table.get(), spanning, *two);
  auto batch = table->ExecuteBatch({spanning, wider});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->view_answered, 2u);
  ExpectOracle(table.get(), spanning, batch->queries[0]);
  ExpectOracle(table.get(), wider, batch->queries[1]);
  EXPECT_EQ(io.stats().mmaps, mmaps_before);
  EXPECT_EQ(column->Health().views_promoted, 0u);
  for (const auto& view : column->view_index().views()) {
    EXPECT_FALSE(view->is_materialized());
  }

  // A cover of one maps its view at the threshold hit.
  const RangeQuery inside_low{12'000'000, 18'000'000};
  auto one = table->Execute(inside_low);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(one->stats.considered_views, 1u);
  ExpectOracle(table.get(), inside_low, *one);
  EXPECT_GT(io.stats().mmaps, mmaps_before);
  EXPECT_EQ(column->Health().views_promoted, 1u);
  EXPECT_TRUE(
      column->view_index().FindSmallestCovering(inside_low)->is_materialized());
}

TEST(LoneViewTest, FailedMapAnswersFromTheViewsOwnPages) {
  const RangeQuery low{10'000'000, 20'000'000};
  const RangeQuery inside_low{12'000'000, 18'000'000};
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch of one" : "Execute");
    FaultInjectingVmIo io;
    AdaptiveConfig config;
    config.materialize_after_hits = 1;
    config.vm_io = &io;
    auto table = MakeAdaptive(DataDistribution::kSine, config);
    ASSERT_TRUE(table->Execute(low).ok());
    AdaptiveColumn* column = table->shard(0);
    ASSERT_EQ(column->view_index().num_partial_views(), 1u);
    const VirtualView* view = column->view_index().views().front().get();
    const uint64_t view_pages = view->num_pages();
    ASSERT_GT(view_pages, 0u);
    ASSERT_LT(view_pages, column->column().num_pages());

    VmFaultPlan plan;
    plan.op_index = 1;
    plan.target = VmOp::kMmap;
    plan.fail_errno = ENOMEM;
    io.Arm(plan);
    QueryExecution exec;
    if (batch) {
      auto out = table->ExecuteBatch({inside_low});
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->base_answered, 0u);
      EXPECT_EQ(out->view_answered, 1u);
      EXPECT_EQ(out->shared_scanned_pages, view_pages);
      exec = out->queries.front();
    } else {
      auto out = table->Execute(inside_low);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      exec = *out;
    }
    EXPECT_EQ(exec.stats.decision, CandidateDecision::kBaseFallback);
    EXPECT_EQ(exec.stats.considered_views, 1u);
    EXPECT_EQ(exec.stats.scanned_pages, view_pages);
    ExpectOracle(table.get(), inside_low, exec);
    EXPECT_EQ(column->metrics().scanned_pages,
              column->column().num_pages() + view_pages);
    const ColumnHealth health = column->Health();
    EXPECT_EQ(health.map_failures, 1u);
    EXPECT_EQ(health.base_fallbacks, 1u);
    EXPECT_EQ(health.views_promoted, 0u);
    EXPECT_TRUE(health.mapping_pressure);
    ASSERT_EQ(column->view_index().num_partial_views(), 1u);
    EXPECT_EQ(column->view_index().views().front().get(), view);
    EXPECT_FALSE(view->is_materialized());
  }
}

TEST(SinglePathTest, PartiallyCoveredBatchQueryRidesTheBasePass) {
  // Two views with a value gap between them: a batch query spanning the gap
  // has no complete cover, so it must not be answered from the views it
  // partially overlaps.
  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.max_views = 8;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);
  ASSERT_TRUE(adaptive->Execute(RangeQuery{10'000'000, 20'000'000}).ok());
  ASSERT_TRUE(adaptive->Execute(RangeQuery{30'000'000, 40'000'000}).ok());
  const RangeQuery across_gap{15'000'000, 35'000'000};
  auto batch = adaptive->ExecuteBatch({across_gap});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->view_answered, 0u);
  EXPECT_EQ(batch->queries.front().stats.decision, CandidateDecision::kNone);
  auto oracle = adaptive->ExecuteFullScan(across_gap);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(batch->queries.front().match_count, oracle->match_count);
  EXPECT_EQ(batch->queries.front().sum, oracle->sum);
}

}  // namespace
}  // namespace vmsv
