// The pool's decisions as tables: routing, admission and victim order over
// views built from page lists alone — no arena, no engine. Each row names
// the rule it pins; the decisions read only ranges, membership bitmaps,
// usage counters, the query sequence number and the config.

#include "core/view_pool.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/column.h"

namespace vmsv {
namespace {

constexpr uint64_t kPages = 64;
/// The query sequence number every admission row decides at.
constexpr uint64_t kNow = 16;

/// Ascending [first, end) page runs.
using Runs = std::vector<std::pair<uint64_t, uint64_t>>;

struct ViewSpec {
  Value lo;
  Value hi;
  Runs runs;
};

std::unique_ptr<PhysicalColumn> MakeTestColumn() {
  auto column = PhysicalColumn::Create(kPages * kValuesPerPage);
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  return std::move(column).ValueOrDie();
}

/// A view without an arena over [lo, hi] holding the runs' pages, created
/// at query `created_at` by a full scan of the column.
std::unique_ptr<VirtualView> MakeView(const PhysicalColumn& column,
                                      const ViewSpec& spec,
                                      uint64_t created_at) {
  auto view = VirtualView::CreateEmpty(column, spec.lo, spec.hi);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  std::vector<uint64_t> pages;
  for (const auto& [first, end] : spec.runs) {
    for (uint64_t page = first; page < end; ++page) pages.push_back(page);
  }
  EXPECT_TRUE((*view)->InstallPages(pages).ok());
  (*view)->SetCreationInfo(created_at, kPages);
  return std::move(view).ValueOrDie();
}

PartialViewIndex MakePool(const PhysicalColumn& column,
                          const std::vector<ViewSpec>& specs) {
  PartialViewIndex pool;
  for (const ViewSpec& spec : specs) {
    pool.Insert(MakeView(column, spec, /*created_at=*/0));
  }
  return pool;
}

/// Pool positions of `views`, in order.
std::vector<int> Positions(const PartialViewIndex& pool,
                           const std::vector<VirtualView*>& views) {
  std::vector<int> positions;
  for (const VirtualView* view : views) {
    int position = -1;
    for (size_t i = 0; i < pool.views().size(); ++i) {
      if (pool.views()[i].get() == view) position = static_cast<int>(i);
    }
    positions.push_back(position);
  }
  return positions;
}

// ---------------------------------------------------------------------------
// Admission

struct Knobs {
  uint64_t discard_tolerance;
  uint64_t replace_tolerance;
  size_t max_views;
  EvictionPolicy policy;
  double eviction_margin;
};

constexpr Knobs kDefaults{0, 0, 100, EvictionPolicy::kCostAware, 1.25};

Knobs Tolerances(uint64_t d, uint64_t r) {
  return {d, r, 100, EvictionPolicy::kCostAware, 1.25};
}

Knobs Budget(size_t max_views, EvictionPolicy policy, double margin) {
  return {0, 0, max_views, policy, margin};
}

struct AdmitCase {
  const char* name;
  std::vector<ViewSpec> pool;
  ViewSpec candidate;
  Knobs knobs;
  CandidateDecision outcome;
  /// Pool position of the admission's target; -1 for none.
  int target;
};

// The budget rows: a 32-page view created at query 0 against a disjoint
// 32-page candidate created at kNow, one half-life later. Their scores are
// 0.25 and 0.5, so the candidate outscores the view by exactly 2x.
const ViewSpec kLowHalf{100, 200, {{0, 32}}};
const ViewSpec kHighHalf{300, 400, {{32, 64}}};

const AdmitCase kAdmitCases[] = {
    {"exact subset absorbs a touching range", {{100, 200, {{0, 10}}}},
     {201, 300, {{2, 5}}}, kDefaults, CandidateDecision::kDiscardedSubset, 0},
    {"exact subset across a gap absorbs nothing", {{100, 200, {{0, 10}}}},
     {202, 300, {{2, 5}}}, kDefaults, CandidateDecision::kDiscardedSubset,
     -1},
    {"d: one page missing, below the edge", {{100, 200, {{0, 10}}}},
     {150, 250, {{0, 5}, {20, 21}}}, Tolerances(2, 0),
     CandidateDecision::kDiscardedSubset, -1},
    {"d: two pages missing, at the edge", {{100, 200, {{0, 10}}}},
     {150, 250, {{0, 5}, {20, 22}}}, Tolerances(2, 0),
     CandidateDecision::kDiscardedSubset, -1},
    {"d: three pages missing, above the edge", {{100, 200, {{0, 10}}}},
     {150, 250, {{0, 5}, {20, 23}}}, Tolerances(2, 0),
     CandidateDecision::kInserted, -1},
    {"r: one view page missing, below the edge", {{100, 200, {{0, 10}}}},
     {100, 300, {{0, 9}, {20, 40}}}, Tolerances(0, 2),
     CandidateDecision::kReplacedExisting, 0},
    {"r: two view pages missing, at the edge", {{100, 200, {{0, 10}}}},
     {100, 300, {{0, 8}, {20, 40}}}, Tolerances(0, 2),
     CandidateDecision::kReplacedExisting, 0},
    {"r: three view pages missing, above the edge", {{100, 200, {{0, 10}}}},
     {100, 300, {{0, 7}, {20, 40}}}, Tolerances(0, 2),
     CandidateDecision::kInserted, -1},
    {"empty candidate under a covering view", {{100, 500, {{0, 1}}}},
     {200, 300, {}}, kDefaults, CandidateDecision::kDiscardedSubset, -1},
    {"empty candidate merges into a touching empty view", {{100, 200, {}}},
     {201, 300, {}}, kDefaults, CandidateDecision::kDiscardedSubset, 0},
    {"empty candidate beside a view with pages is admitted",
     {{100, 200, {{0, 1}}}}, {201, 300, {}}, kDefaults,
     CandidateDecision::kInserted, -1},
    {"empty view inside the candidate's range is replaced", {{100, 200, {}}},
     {50, 250, {{0, 1}}}, kDefaults, CandidateDecision::kReplacedExisting, 0},
    {"empty view reaching past the candidate's range stays",
     {{100, 200, {}}}, {150, 250, {{0, 1}}}, kDefaults,
     CandidateDecision::kInserted, -1},
    {"insert under budget", {kLowHalf}, kHighHalf,
     Budget(2, EvictionPolicy::kCostAware, 1.25),
     CandidateDecision::kInserted, -1},
    {"drop-newest drops at the budget", {kLowHalf}, kHighHalf,
     Budget(1, EvictionPolicy::kDropNewest, 1.25),
     CandidateDecision::kBudgetExhausted, -1},
    {"cost-aware evicts below the margin", {kLowHalf}, kHighHalf,
     Budget(1, EvictionPolicy::kCostAware, 1.5),
     CandidateDecision::kEvictedExisting, 0},
    {"cost-aware drops at the margin", {kLowHalf}, kHighHalf,
     Budget(1, EvictionPolicy::kCostAware, 2.0),
     CandidateDecision::kBudgetExhausted, -1},
    {"cost-aware drops above the margin", {kLowHalf}, kHighHalf,
     Budget(1, EvictionPolicy::kCostAware, 2.5),
     CandidateDecision::kBudgetExhausted, -1},
};

TEST(ViewPoolTest, AdmitTable) {
  const auto column = MakeTestColumn();
  for (const AdmitCase& row : kAdmitCases) {
    SCOPED_TRACE(row.name);
    const PartialViewIndex pool = MakePool(*column, row.pool);
    const auto candidate = MakeView(*column, row.candidate, kNow);
    AdaptiveConfig config;
    config.discard_tolerance = row.knobs.discard_tolerance;
    config.replace_tolerance = row.knobs.replace_tolerance;
    config.max_views = row.knobs.max_views;
    config.lifecycle.eviction_policy = row.knobs.policy;
    config.lifecycle.eviction_margin = row.knobs.eviction_margin;
    const Admission admission = pool.Admit(*candidate, config, kNow, kPages);
    EXPECT_EQ(CandidateDecisionName(admission.outcome),
              std::string(CandidateDecisionName(row.outcome)));
    EXPECT_EQ(Positions(pool, {admission.target}),
              std::vector<int>{row.target});
  }
}

// ---------------------------------------------------------------------------
// Routing

struct RouteCase {
  const char* name;
  std::vector<ViewSpec> pool;
  QueryMode mode;
  bool cost_based_routing;
  RangeQuery query;
  /// Pool positions of the cover, in cover order; empty routes to a scan.
  std::vector<int> cover;
};

const RouteCase kRouteCases[] = {
    {"single view: the smallest covering view",
     {{0, 1000, {{0, 10}}},
      {100, 500, {{0, 5}}},
      {100, 600, {{0, 3}}},
      {250, 600, {{0, 1}}}},
     QueryMode::kSingleView, false, {200, 300}, {2}},
    {"single view: no view covers", {{0, 100, {{0, 1}}}},
     QueryMode::kSingleView, false, {50, 150}, {}},
    {"multi view: touching views cover",
     {{0, 100, {{0, 4}}}, {101, 300, {{4, 8}}}}, QueryMode::kMultiView,
     false, {50, 250}, {0, 1}},
    {"multi view: a gap leaves no cover",
     {{0, 100, {{0, 4}}}, {102, 300, {{4, 8}}}}, QueryMode::kMultiView,
     false, {50, 250}, {}},
    {"multi view: a view ending at the query's low end covers it",
     {{0, 50, {{0, 4}}}, {51, 300, {{4, 8}}}}, QueryMode::kMultiView,
     false, {50, 250}, {0, 1}},
    {"cost-based: a view ending at the query's low end covers it",
     {{0, 50, {{0, 4}}}, {51, 300, {{4, 8}}}}, QueryMode::kMultiView,
     true, {50, 250}, {0, 1}},
    {"multi view: a view reaching past the point beats one ending there",
     {{0, 50, {{0, 4}}}, {40, 300, {{4, 8}}}}, QueryMode::kMultiView,
     false, {50, 250}, {1}},
    {"cost-based: a cover of the column's pages goes to the scan",
     {{0, 100, {{0, 40}}}, {101, 300, {{40, 64}}}}, QueryMode::kMultiView,
     true, {50, 250}, {}},
    {"cost-based: a cover of fewer pages answers",
     {{0, 100, {{0, 40}}}, {101, 300, {{40, 63}}}}, QueryMode::kMultiView,
     true, {50, 250}, {0, 1}},
};

TEST(ViewPoolTest, RouteTable) {
  const auto column = MakeTestColumn();
  for (const RouteCase& row : kRouteCases) {
    SCOPED_TRACE(row.name);
    const PartialViewIndex pool = MakePool(*column, row.pool);
    AdaptiveConfig config;
    config.mode = row.mode;
    config.cost_based_routing = row.cost_based_routing;
    std::vector<VirtualView*> cover{nullptr};  // Route clears it first
    pool.Route(row.query, config, kPages, &cover);
    EXPECT_EQ(Positions(pool, cover), row.cover);
  }
}

// ---------------------------------------------------------------------------
// Victim order

struct ColdestCase {
  const char* name;
  size_t count;
  bool arenas_only;
  std::vector<int> victims;
};

const ColdestCase kColdestCases[] = {
    {"coldest first, a tie in pool order", 3, false, {1, 0, 2}},
    {"a count past the pool orders every view", 10, false, {1, 0, 2, 3}},
    {"arena release skips views without an arena", 10, true, {}},
};

TEST(ViewPoolTest, ColdestFirstTable) {
  // Four equal 32-page views last used at queries 16, 0, 16 and 32, scored
  // at query 32: 0.25, 0.125, 0.25 (a tie with view 0) and 0.5.
  const auto column = MakeTestColumn();
  PartialViewIndex pool = MakePool(
      *column, {kLowHalf, kLowHalf, kLowHalf, kLowHalf});
  const uint64_t last_used[] = {16, 0, 16, 32};
  for (size_t i = 0; i < 4; ++i) {
    pool.MutableViews()[i]->SetCreationInfo(last_used[i], kPages);
  }
  for (const ColdestCase& row : kColdestCases) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(Positions(pool, pool.ColdestFirst(row.count, row.arenas_only,
                                                LifecycleConfig{}, 32,
                                                kPages)),
              row.victims);
  }
}

TEST(ViewPoolTest, ScorePrefersRecentCheapCoverage) {
  const auto column = MakeTestColumn();
  const LifecycleConfig lifecycle;
  const auto narrow = MakeView(*column, {10, 20, {{0, 8}}}, 0);
  const auto wide = MakeView(*column, {0, 100, {{0, kPages}}}, 0);

  // Same recency: the narrow view saves more pages per hit.
  EXPECT_GT(EvictionScore(*narrow, lifecycle, 0, kPages),
            EvictionScore(*wide, lifecycle, 0, kPages));
  // Recency decays: the same view scores lower when long unused.
  const double fresh_score = EvictionScore(*narrow, lifecycle, 0, kPages);
  const double stale_score = EvictionScore(*narrow, lifecycle, 100, kPages);
  EXPECT_GT(fresh_score, stale_score);
  // A hit restores recency AND adds reuse evidence: with one hit the
  // evidence weight is 1 + log2(2) = 2 on top of the fresh score.
  narrow->RecordHit(100);
  EXPECT_DOUBLE_EQ(EvictionScore(*narrow, lifecycle, 100, kPages),
                   2.0 * fresh_score);
}

}  // namespace
}  // namespace vmsv
