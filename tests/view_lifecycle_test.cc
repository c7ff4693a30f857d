// Lifecycle coverage: hole-punch fragmentation, mremap compaction (and its
// forced rewire fallback), bit-identical scans across kernels and thread
// counts, cost-aware eviction, and the compaction trigger wiring in the
// adaptive layer.

#include "core/view_lifecycle.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "core/virtual_view.h"
#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "util/random.h"
#include "workload/distribution.h"

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

// Scalar serial reference over exactly the pages the view holds.
PageScanResult ReferenceScan(const PhysicalColumn& column,
                             const VirtualView& view, const RangeQuery& q) {
  PageScanResult ref;
  view.ForEachPage([&](uint64_t page) {
    ref.Merge(ScanPageScalar(column.PageData(page), kValuesPerPage, q));
  });
  return ref;
}

// A materialized full-column view with every odd page removed: the maximal
// fragmentation shape (single-page live runs separated by single holes).
std::unique_ptr<VirtualView> MakeFragmentedView(const PhysicalColumn& column) {
  auto view_r = BuildViewByScan(column, 0, kMaxValue,
                                ViewCreationOptions{/*coalesce_runs=*/true,
                                                    /*background_mapping=*/false,
                                                    /*lazy_materialize=*/false});
  EXPECT_TRUE(view_r.ok()) << view_r.status().ToString();
  auto view = std::move(view_r).ValueOrDie();
  EXPECT_EQ(view->num_pages(), kTestPages);
  for (uint64_t page = 1; page < kTestPages; page += 2) {
    EXPECT_TRUE(view->RemovePage(page).ok());
  }
  return view;
}

TEST(ViewFragmentationTest, HolePunchRemovalKeepsScansCorrect) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view = MakeFragmentedView(*column);

  EXPECT_FALSE(view->is_dense());
  EXPECT_EQ(view->num_pages(), kTestPages / 2);
  // Last page (odd) was removed and its trailing hole trimmed; the interior
  // holes remain.
  EXPECT_EQ(view->num_slots(), kTestPages - 1);
  EXPECT_EQ(view->hole_slots(), kTestPages / 2 - 1);
  EXPECT_EQ(view->num_slot_runs(), kTestPages / 2);
  for (uint64_t page = 0; page < kTestPages; ++page) {
    EXPECT_EQ(view->ContainsPage(page), page % 2 == 0);
  }

  const RangeQuery q{0, kMaxValue / 3};
  const PageScanResult ref = ReferenceScan(*column, *view, q);
  const PageScanResult got = view->Scan(q);
  EXPECT_EQ(got.match_count, ref.match_count);
  EXPECT_EQ(got.sum, ref.sum);
}

TEST(ViewFragmentationTest, AppendFillsLowestHole) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view = MakeFragmentedView(*column);
  const uint64_t slots_before = view->num_slots();

  ASSERT_TRUE(view->AppendPage(1).ok());  // page 1 was removed first (slot 1)
  EXPECT_EQ(view->num_slots(), slots_before);  // filled a hole, no tail growth
  EXPECT_EQ(view->hole_slots(), kTestPages / 2 - 2);
  EXPECT_TRUE(view->ContainsPage(1));

  const RangeQuery q{0, kMaxValue};
  const PageScanResult ref = ReferenceScan(*column, *view, q);
  const PageScanResult got = view->Scan(q);
  EXPECT_EQ(got.match_count, ref.match_count);
  EXPECT_EQ(got.sum, ref.sum);
}

TEST(ViewCompactionTest, CompactRestoresDenseLayout) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view = MakeFragmentedView(*column);
  const RangeQuery q{kMaxValue / 5, kMaxValue / 2};
  const PageScanResult before = view->Scan(q);

  ViewCompactionStats stats;
  ASSERT_TRUE(view->Compact(ViewCompactionOptions{}, &stats).ok());

  EXPECT_TRUE(view->is_dense());
  EXPECT_EQ(view->num_slots(), view->num_pages());
  EXPECT_EQ(view->num_pages(), kTestPages / 2);
  EXPECT_EQ(view->num_slot_runs(), 1u);
  EXPECT_EQ(stats.live_pages, kTestPages / 2);
  EXPECT_EQ(stats.holes_reclaimed, kTestPages / 2 - 1);
  EXPECT_EQ(stats.slot_runs_before, kTestPages / 2);
  EXPECT_EQ(stats.slot_runs_after, 1u);
  if (VirtualArena::MremapSupported()) {
    EXPECT_EQ(stats.mremap_moves, kTestPages / 2);
    EXPECT_EQ(stats.remap_moves, 0u);
  }
  // Membership survives compaction.
  for (uint64_t page = 0; page < kTestPages; ++page) {
    EXPECT_EQ(view->ContainsPage(page), page % 2 == 0);
  }
  // And the answer is bit-identical.
  const PageScanResult after = view->Scan(q);
  EXPECT_EQ(after.match_count, before.match_count);
  EXPECT_EQ(after.sum, before.sum);
}

TEST(ViewCompactionTest, ForcedRemapFallbackMatchesMremap) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view = MakeFragmentedView(*column);
  const RangeQuery q{0, kMaxValue / 2};
  const PageScanResult before = view->Scan(q);

  ViewCompactionOptions options;
  options.use_mremap = false;  // the forced mremap-unavailable path
  ViewCompactionStats stats;
  ASSERT_TRUE(view->Compact(options, &stats).ok());

  EXPECT_EQ(stats.mremap_moves, 0u);
  EXPECT_EQ(stats.remap_moves, kTestPages / 2);
  EXPECT_TRUE(view->is_dense());
  const PageScanResult after = view->Scan(q);
  EXPECT_EQ(after.match_count, before.match_count);
  EXPECT_EQ(after.sum, before.sum);
}

TEST(ViewCompactionTest, BitIdenticalAcrossKernelsAndThreadCounts) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto fragmented = MakeFragmentedView(*column);
  auto compacted = MakeFragmentedView(*column);
  ASSERT_TRUE(compacted->Compact().ok());

  const RangeQuery q{kMaxValue / 10, kMaxValue / 2};
  const PageScanResult ref = ReferenceScan(*column, *fragmented, q);

  const ScanKernel restore = ActiveScanKernel();
  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kAvx2, ScanKernel::kAvx512}) {
    if (!ScanKernelAvailable(kernel)) continue;
    ASSERT_TRUE(SetActiveScanKernel(kernel).ok());
    for (const unsigned threads : {1u, 2u, 5u}) {
      ParallelScanOptions options;
      options.threads = threads;
      options.serial_cutoff = 0;  // force sharding even at test scale
      const PageScanResult frag = fragmented->Scan(q, options);
      const PageScanResult comp = compacted->Scan(q, options);
      EXPECT_EQ(frag.match_count, ref.match_count)
          << ScanKernelName(kernel) << " threads=" << threads;
      EXPECT_EQ(frag.sum, ref.sum);
      EXPECT_EQ(comp.match_count, ref.match_count);
      EXPECT_EQ(comp.sum, ref.sum);
    }
  }
  ASSERT_TRUE(SetActiveScanKernel(restore).ok());
}

TEST(ViewCompactionTest, SortRunsByPageConsolidatesFileRuns) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view_r = VirtualView::CreateEmpty(*column, 0, kMaxValue);
  ASSERT_TRUE(view_r.ok());
  auto view = std::move(view_r).ValueOrDie();
  ASSERT_TRUE(view->EnsureMaterialized().ok());
  // Append in scrambled order: every append is its own file run.
  std::vector<uint64_t> order;
  for (uint64_t page = 0; page < kTestPages; ++page) order.push_back(page);
  Rng rng(13);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  for (const uint64_t page : order) {
    ASSERT_TRUE(view->AppendPage(page).ok());
  }
  EXPECT_GT(view->CountFileRuns(), 1u);

  const RangeQuery q{0, kMaxValue / 2};
  const PageScanResult before = view->Scan(q);
  ViewCompactionStats stats;
  ASSERT_TRUE(view->Compact(ViewCompactionOptions{}, &stats).ok());
  // The full-column page set is one consecutive range once sorted.
  EXPECT_EQ(stats.file_runs_after, 1u);
  EXPECT_LT(stats.file_runs_after, stats.file_runs_before);
  const std::vector<uint64_t> pages = view->physical_pages();
  EXPECT_TRUE(std::is_sorted(pages.begin(), pages.end()));
  const PageScanResult after = view->Scan(q);
  EXPECT_EQ(after.match_count, before.match_count);
  EXPECT_EQ(after.sum, before.sum);
}

TEST(ViewCompactionTest, DenseAndUnmaterializedViewsAreNoops) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  // Dense materialized view: nothing to do.
  auto dense = BuildViewByScan(*column, 0, kMaxValue);
  ASSERT_TRUE(dense.ok());
  ViewCompactionStats stats;
  ASSERT_TRUE((*dense)->Compact(ViewCompactionOptions{}, &stats).ok());
  EXPECT_EQ(stats.mremap_moves + stats.remap_moves, 0u);

  // Unmaterialized (lazy) view: list only, no arena work possible.
  ViewCreationOptions lazy;
  lazy.lazy_materialize = true;
  auto lazy_view = BuildViewByScan(*column, 0, kMaxValue, lazy);
  ASSERT_TRUE(lazy_view.ok());
  ASSERT_FALSE((*lazy_view)->is_materialized());
  ASSERT_TRUE((*lazy_view)->Compact(ViewCompactionOptions{}, &stats).ok());
  EXPECT_FALSE((*lazy_view)->is_materialized());
  EXPECT_EQ(stats.mremap_moves + stats.remap_moves, 0u);
}

TEST(ViewLifecycleManagerTest, ShouldCompactFollowsRunRatioThreshold) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  LifecycleConfig config;
  config.compaction_run_ratio = 0.25;
  config.compaction_min_runs = 4;
  ViewLifecycleManager manager(config);

  auto dense = BuildViewByScan(*column, 0, kMaxValue);
  ASSERT_TRUE(dense.ok());
  EXPECT_FALSE(manager.ShouldCompact(**dense));  // 1 run, no holes

  auto fragmented = MakeFragmentedView(*column);
  // 32 single-page runs over 32 live pages: ratio 1.0 > 0.25.
  EXPECT_TRUE(manager.ShouldCompact(*fragmented));

  ASSERT_TRUE(manager.CompactView(fragmented.get()).ok());
  EXPECT_FALSE(manager.ShouldCompact(*fragmented));
  EXPECT_EQ(manager.stats().compactions, 1u);
  EXPECT_GT(manager.stats().holes_reclaimed, 0u);
  EXPECT_GT(manager.stats().slot_runs_collapsed, 0u);
}

TEST(ViewLifecycleManagerTest, ScorePrefersRecentCheapCoverage) {
  auto column = MakeTestColumn(DataDistribution::kSine);
  ViewLifecycleManager manager(LifecycleConfig{});

  auto narrow = BuildViewByScan(*column, 10'000'000, 20'000'000);
  auto wide = BuildViewByScan(*column, 0, kMaxValue);
  ASSERT_TRUE(narrow.ok() && wide.ok());
  (*narrow)->SetCreationInfo(/*query_seq=*/0, kTestPages);
  (*wide)->SetCreationInfo(/*query_seq=*/0, kTestPages);

  // Same recency: the narrow view saves more pages per hit.
  EXPECT_GT(manager.Score(**narrow, 0, kTestPages),
            manager.Score(**wide, 0, kTestPages));
  // Recency decays: the same view scores lower when long unused.
  const double fresh_score = manager.Score(**narrow, 0, kTestPages);
  const double stale_score = manager.Score(**narrow, 100, kTestPages);
  EXPECT_GT(fresh_score, stale_score);
  // A hit restores recency AND adds reuse evidence: with one hit the
  // evidence weight is 1 + log2(2) = 2 on top of the fresh score.
  (*narrow)->RecordHit(100);
  EXPECT_DOUBLE_EQ(manager.Score(**narrow, 100, kTestPages), 2.0 * fresh_score);
}

TEST(AdaptiveEvictionTest, CostAwareEvictsColdViewAndStaysCorrect) {
  AdaptiveConfig config;
  config.max_views = 2;
  config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
  config.lifecycle.recency_half_life = 2.0;
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  const RangeQuery hot{10'000'000, 20'000'000};
  const RangeQuery cold{40'000'000, 50'000'000};
  const RangeQuery fresh{70'000'000, 80'000'000};
  ASSERT_TRUE(adaptive->Execute(hot).ok());   // view 1
  ASSERT_TRUE(adaptive->Execute(cold).ok());  // view 2 — pool now full
  for (int i = 0; i < 6; ++i) {
    auto exec = adaptive->Execute(hot);  // keep view 1 hot
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
  }

  auto exec = adaptive->Execute(fresh);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.decision, CandidateDecision::kEvictedExisting);
  EXPECT_EQ(adaptive->shard(0)->metrics().views_evicted, 1u);
  EXPECT_EQ(adaptive->shard(0)->lifecycle_stats().evictions, 1u);
  EXPECT_EQ(adaptive->shard(0)->view_index().num_partial_views(), 2u);

  // The hot view must have survived; the cold one is gone.
  auto hot_again = adaptive->Execute(hot);
  ASSERT_TRUE(hot_again.ok());
  EXPECT_EQ(hot_again->stats.decision, CandidateDecision::kAnsweredFromView);

  // Everything stays correct, including re-querying the evicted range.
  for (const RangeQuery& q : {hot, cold, fresh}) {
    auto got = adaptive->Execute(q);
    ASSERT_TRUE(got.ok());
    auto baseline = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(got->match_count, baseline->match_count);
    EXPECT_EQ(got->sum, baseline->sum);
  }
}

TEST(AdaptiveEvictionTest, DropNewestSurfacesDropCounter) {
  AdaptiveConfig config;
  config.max_views = 1;
  config.lifecycle.eviction_policy = EvictionPolicy::kDropNewest;
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  ASSERT_TRUE(adaptive->Execute(RangeQuery{10'000'000, 20'000'000}).ok());
  auto exec = adaptive->Execute(RangeQuery{60'000'000, 70'000'000});
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.decision, CandidateDecision::kBudgetExhausted);
  // The satellite fix: the silent drop is now a counter.
  EXPECT_EQ(adaptive->shard(0)->metrics().candidates_dropped, 1u);
  EXPECT_EQ(adaptive->shard(0)->metrics().views_evicted, 0u);
}

TEST(AdaptiveEvictionTest, EvictionChurnStaysCorrect) {
  // An eviction-heavy workload: every fresh range competes for a 2-view
  // budget. Result verification doubles as the "never drops a view
  // mid-scan" check.
  AdaptiveConfig config;
  config.max_views = 2;
  config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
  config.lifecycle.recency_half_life = 1.0;
  auto adaptive_r =
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config});
  ASSERT_TRUE(adaptive_r.ok());
  auto& adaptive = *adaptive_r;

  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    const Value lo = rng.Below(kMaxValue - 10'000'000);
    const RangeQuery q{lo, lo + 10'000'000};
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto baseline = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(exec->match_count, baseline->match_count);
    EXPECT_EQ(exec->sum, baseline->sum);
    EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), 2u);
  }
  EXPECT_GT(adaptive->shard(0)->metrics().views_evicted, 0u);
}

TEST(AdaptiveCompactionTest, UpdateChurnTriggersCompaction) {
  AdaptiveConfig config;
  config.materialize_after_hits = 1;
  config.lifecycle.compaction_min_runs = 4;
  config.lifecycle.compaction_run_ratio = 0.2;
  auto narrow_r = Db::Create(
      MakeTestColumn(DataDistribution::kUniform), DbOptions{config});
  ASSERT_TRUE(narrow_r.ok());
  auto& narrow = *narrow_r;
  const RangeQuery low{0, kMaxValue / 4};
  ASSERT_TRUE(narrow->Execute(low).ok());
  // Candidates are built lazily; the first covered query materializes the
  // view, so the removals below punch holes instead of editing a list.
  ASSERT_TRUE(narrow->Execute(low).ok());
  const VirtualView* view = narrow->shard(0)->view_index().views().front().get();
  ASSERT_TRUE(view->is_materialized());
  const uint64_t pages_before = view->num_pages();
  ASSERT_GT(pages_before, 8u);

  // Push every value of alternating member pages above the view range:
  // alignment must remove those pages (holes), and the flush-triggered
  // sweep must compact the view back to density.
  const std::vector<uint64_t> members = view->physical_pages();
  for (size_t i = 0; i < members.size(); i += 2) {
    const uint64_t page = members[i];
    for (uint64_t row = page * kValuesPerPage; row < (page + 1) * kValuesPerPage;
         ++row) {
      narrow->Update(row, kMaxValue / 2);
    }
  }
  auto exec = narrow->Execute(low);
  ASSERT_TRUE(exec.ok());
  EXPECT_GE(narrow->shard(0)->lifecycle_stats().compactions, 1u);
  view = narrow->shard(0)->view_index().views().front().get();
  EXPECT_TRUE(view->is_dense());

  auto baseline = narrow->ExecuteFullScan(low);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
}

// ---------------------------------------------------------------------------
// Membership: the bitmap, InstallPages and the lazily built slot index.

std::unique_ptr<VirtualView> MakeEmptyView(const PhysicalColumn& column) {
  auto view_r = VirtualView::CreateEmpty(column, 0, kMaxValue);
  EXPECT_TRUE(view_r.ok()) << view_r.status().ToString();
  return std::move(view_r).ValueOrDie();
}

// Runs of consecutive ids in a sorted page set.
uint64_t SetRuns(const std::set<uint64_t>& pages) {
  uint64_t runs = 0;
  uint64_t prev = 0;
  for (const uint64_t page : pages) {
    if (runs == 0 || page != prev + 1) ++runs;
    prev = page;
  }
  return runs;
}

TEST(ViewMembershipTest, InstallPagesRejectsBadListsAndLeavesViewUntouched) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view = MakeEmptyView(*column);
  for (const std::vector<uint64_t>& bad :
       {std::vector<uint64_t>{1, 4, 4, 9}, std::vector<uint64_t>{2, 7, 3},
        std::vector<uint64_t>{0, kTestPages}, std::vector<uint64_t>{~0ull}}) {
    const Status st = view->InstallPages(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_EQ(view->num_pages(), 0u);
    EXPECT_EQ(view->num_slots(), 0u);
    EXPECT_EQ(view->MinimalFileRuns(), 0u);
    for (uint64_t page = 0; page < kTestPages; ++page) {
      ASSERT_FALSE(view->ContainsPage(page)) << page;
    }
  }
  // A valid list still installs afterwards, and a second install is refused.
  ASSERT_TRUE(view->InstallPages({1, 2, 3, 7}).ok());
  EXPECT_EQ(view->num_pages(), 4u);
  EXPECT_EQ(view->MinimalFileRuns(), 2u);
  EXPECT_EQ(view->CountFileRuns(), 2u);
  EXPECT_EQ(view->num_slot_runs(), 1u);
  EXPECT_EQ(view->InstallPages({9}).code(), StatusCode::kFailedPrecondition);
}

TEST(ViewMembershipTest, PagesAtOrPastTheColumnEndAreNeverMembers) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  auto view = MakeEmptyView(*column);
  std::vector<uint64_t> all(kTestPages);
  for (uint64_t page = 0; page < kTestPages; ++page) all[page] = page;
  ASSERT_TRUE(view->InstallPages(all).ok());
  EXPECT_TRUE(view->ContainsPage(kTestPages - 1));
  EXPECT_FALSE(view->ContainsPage(kTestPages));
  EXPECT_FALSE(view->ContainsPage(kTestPages + 1));
  EXPECT_FALSE(view->ContainsPage(~uint64_t{0}));
  EXPECT_EQ(view->MinimalFileRuns(), 1u);
  // Removing the last page probes page + 1 past the end.
  ASSERT_TRUE(view->RemovePage(kTestPages - 1).ok());
  EXPECT_EQ(view->MinimalFileRuns(), 1u);
  EXPECT_EQ(view->AppendPage(kTestPages).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(view->AppendPageRun(kTestPages - 1, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(view->RemovePage(kTestPages).code(), StatusCode::kNotFound);
}

// Seeded random mutation sequences against a std::set model: after every
// step the bitmap, the live count and the set-run count must equal the
// model's, whichever path (list edit, hole punch, hole fill, tail append,
// compaction, release, install) changed them.
TEST(ViewMembershipTest, RandomMutationsMatchSetModel) {
  constexpr uint64_t kPages = 256;
  DistributionSpec spec;
  spec.kind = DataDistribution::kUniform;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, kPages * kValuesPerPage);
  ASSERT_TRUE(column_r.ok());
  const auto column = std::move(column_r).ValueOrDie();
  const RangeQuery q{kMaxValue / 4, kMaxValue / 2};

  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    std::unique_ptr<VirtualView> view;
    std::set<uint64_t> model;
    const auto random_page = [&] { return rng.Below(kPages); };
    const auto install_fresh = [&] {
      view = MakeEmptyView(*column);
      model.clear();
      const uint64_t density = rng.Below(4);  // 0: empty ... 3: most pages
      std::vector<uint64_t> pages;
      for (uint64_t page = 0; page < kPages; ++page) {
        if (rng.Below(4) < density) pages.push_back(page);
      }
      model.insert(pages.begin(), pages.end());
      ASSERT_TRUE(view->InstallPages(std::move(pages)).ok());
    };
    install_fresh();
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const uint64_t op = rng.Below(10);
      if (op == 0) {
        if (rng.Below(8) == 0) install_fresh();
        if (view->num_slots() > 0 || view->is_materialized()) {
          EXPECT_EQ(view->InstallPages({0}).code(),
                    StatusCode::kFailedPrecondition);
        }
      } else if (op <= 2) {
        const uint64_t page = random_page();
        const Status st = view->AppendPage(page);
        if (model.count(page) != 0) {
          EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
        } else {
          ASSERT_TRUE(st.ok()) << st.ToString();
          model.insert(page);
        }
      } else if (op == 3) {
        const uint64_t first = random_page();
        uint64_t count = 1 + rng.Below(6);
        if (first + count > kPages) count = kPages - first;
        bool any_member = false;
        for (uint64_t i = 0; i < count; ++i) {
          any_member = any_member || model.count(first + i) != 0;
        }
        const Status st = view->AppendPageRun(first, count);
        if (any_member) {
          EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
        } else if (st.ok()) {
          for (uint64_t i = 0; i < count; ++i) model.insert(first + i);
        } else {
          EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
        }
      } else if (op <= 6) {
        // Members most of the time, so the set drains as well as fills.
        uint64_t page = random_page();
        if (!model.empty() && rng.Below(4) != 0) {
          auto it = model.lower_bound(page);
          page = it == model.end() ? *model.begin() : *it;
        }
        const Status st = view->RemovePage(page);
        if (model.count(page) != 0) {
          ASSERT_TRUE(st.ok()) << st.ToString();
          model.erase(page);
        } else {
          EXPECT_EQ(st.code(), StatusCode::kNotFound);
        }
      } else if (op == 7) {
        ASSERT_TRUE(view->Compact().ok());
      } else if (op == 8) {
        view->ReleaseArena();
      } else {
        ASSERT_TRUE(view->EnsureMaterialized().ok());
      }

      ASSERT_EQ(view->num_pages(), model.size());
      for (uint64_t page = 0; page <= kPages; ++page) {
        ASSERT_EQ(view->ContainsPage(page), model.count(page) != 0) << page;
      }
      ASSERT_EQ(view->MinimalFileRuns(), SetRuns(model));
      std::vector<uint64_t> pages = view->physical_pages();
      std::sort(pages.begin(), pages.end());
      ASSERT_EQ(pages, std::vector<uint64_t>(model.begin(), model.end()));
      if (view->is_materialized()) {
        const PageScanResult got = view->Scan(q);
        const PageScanResult ref = ReferenceScan(*column, *view, q);
        ASSERT_EQ(got.match_count, ref.match_count);
        ASSERT_EQ(got.sum, ref.sum);
      }
    }
  }
}

// The lazy candidate path installs the pass's page list in one step; the
// eager path replays it through the append paths. Once materialized, the
// two views must be indistinguishable for every kernel, thread count,
// distribution and range width. Before it is materialized, the lazy view
// reads its member runs over the base mapping, and must answer exactly as
// the arenas do and as a full scan does.
TEST(ViewBuildTest, LazyInstallEqualsEagerBuild) {
  constexpr uint64_t kPages = 256;
  // The last page is half full; its zeroed tail counts as the page holds it.
  constexpr uint64_t kRows = kPages * kValuesPerPage - kValuesPerPage / 2;
  const std::vector<RangeQuery> ranges = {
      {kMaxValue + 1, kMaxValue + 1000},               // empty
      {kMaxValue / 3, kMaxValue / 3 + 5'000},          // 5k wide
      {kMaxValue / 5, kMaxValue / 5 + kMaxValue / 100},  // 1 %
      {kMaxValue / 4, kMaxValue / 4 + kMaxValue / 2},  // 50 %
      {0, kMaxValue},                                   // full domain
  };
  const ViewCreationOptions lazy{/*coalesce_runs=*/true,
                                 /*background_mapping=*/false,
                                 /*lazy_materialize=*/true};
  const std::vector<ViewCreationOptions> eager_variants = {
      {/*coalesce_runs=*/true, /*background_mapping=*/false,
       /*lazy_materialize=*/false},
      {/*coalesce_runs=*/false, /*background_mapping=*/false,
       /*lazy_materialize=*/false},
      {/*coalesce_runs=*/true, /*background_mapping=*/true,
       /*lazy_materialize=*/false},
  };
  BackgroundMapper mapper;

  const ScanKernel restore = ActiveScanKernel();
  for (const DataDistribution kind :
       {DataDistribution::kSine, DataDistribution::kLinear,
        DataDistribution::kUniform, DataDistribution::kSparse}) {
    DistributionSpec spec;
    spec.kind = kind;
    spec.max_value = kMaxValue;
    spec.seed = 42;
    auto column_r = MakeColumn(spec, kRows);
    ASSERT_TRUE(column_r.ok());
    const auto column = std::move(column_r).ValueOrDie();
    ASSERT_EQ(column->num_pages(), kPages);
    for (const ScanKernel kernel :
         {ScanKernel::kScalar, ScanKernel::kAvx2, ScanKernel::kAvx512}) {
      if (!ScanKernelAvailable(kernel)) continue;
      ASSERT_TRUE(SetActiveScanKernel(kernel).ok());
      for (const unsigned threads : {1u, 2u, 4u, 5u}) {
        ParallelScanOptions options;
        options.threads = threads;
        options.serial_cutoff = 0;  // force sharding even at test scale
        for (const RangeQuery& range : ranges) {
          SCOPED_TRACE(std::string(DistributionName(kind)) + " " +
                       ScanKernelName(kernel) + " threads=" +
                       std::to_string(threads) + " [" +
                       std::to_string(range.lo) + "," +
                       std::to_string(range.hi) + "]");
          auto lazy_r = BuildViewByScan(*column, range.lo, range.hi, lazy,
                                        nullptr, options);
          ASSERT_TRUE(lazy_r.ok()) << lazy_r.status().ToString();
          const auto lazy_view = std::move(lazy_r).ValueOrDie();
          ASSERT_FALSE(lazy_view->is_materialized());
          std::vector<PageScanResult> over_base;
          for (const RangeQuery& q : ranges) {
            over_base.push_back(lazy_view->Scan(q, options));
          }
          const std::vector<PageScanResult> over_base_many =
              lazy_view->ScanMany(ranges, column->zones(), options);
          ASSERT_TRUE(lazy_view->EnsureMaterialized().ok());
          const std::vector<PageScanResult> arena_many =
              lazy_view->ScanMany(ranges, column->zones(), options);
          const ParallelScanner full_scan(options);
          for (size_t qi = 0; qi < ranges.size(); ++qi) {
            // A view holds every page with a value in its range, so for a
            // query inside the range it answers as the whole column does.
            const RangeQuery& q = ranges[qi];
            const PageScanResult arena = lazy_view->Scan(q, options);
            EXPECT_EQ(over_base[qi].match_count, arena.match_count);
            EXPECT_EQ(over_base[qi].sum, arena.sum);
            EXPECT_EQ(over_base_many[qi].match_count, arena_many[qi].match_count);
            EXPECT_EQ(over_base_many[qi].sum, arena_many[qi].sum);
            EXPECT_EQ(over_base_many[qi].match_count, arena.match_count);
            EXPECT_EQ(over_base_many[qi].sum, arena.sum);
            if (range.lo <= q.lo && q.hi <= range.hi) {
              const PageScanResult whole = full_scan.ScanPages(
                  reinterpret_cast<const Value*>(
                      column->base_arena().data()),
                  column->num_pages(), q);
              EXPECT_EQ(over_base[qi].match_count, whole.match_count);
              EXPECT_EQ(over_base[qi].sum, whole.sum);
            }
          }
          for (const ViewCreationOptions& eager : eager_variants) {
            auto eager_r = BuildViewByScan(*column, range.lo, range.hi, eager,
                                           &mapper, options);
            ASSERT_TRUE(eager_r.ok()) << eager_r.status().ToString();
            const auto eager_view = std::move(eager_r).ValueOrDie();
            EXPECT_EQ(lazy_view->physical_pages(),
                      eager_view->physical_pages());
            EXPECT_EQ(lazy_view->num_slot_runs(), eager_view->num_slot_runs());
            EXPECT_EQ(lazy_view->CountFileRuns(), eager_view->CountFileRuns());
            EXPECT_EQ(lazy_view->MinimalFileRuns(),
                      eager_view->MinimalFileRuns());
            for (uint64_t page = 0; page <= kPages; ++page) {
              ASSERT_EQ(lazy_view->ContainsPage(page),
                        eager_view->ContainsPage(page))
                  << page;
            }
            for (const RangeQuery& q : ranges) {
              const PageScanResult a = lazy_view->Scan(q, options);
              const PageScanResult b = eager_view->Scan(q, options);
              EXPECT_EQ(a.match_count, b.match_count);
              EXPECT_EQ(a.sum, b.sum);
            }
          }
          // And the list is exactly the pages holding a value in range.
          std::vector<uint64_t> holding;
          for (uint64_t page = 0; page < kPages; ++page) {
            if (PageContainsAnyScalar(column->PageData(page), kValuesPerPage,
                                      range)) {
              holding.push_back(page);
            }
          }
          EXPECT_EQ(lazy_view->physical_pages(), holding);
        }
      }
    }
  }
  ASSERT_TRUE(SetActiveScanKernel(restore).ok());
}

}  // namespace
}  // namespace vmsv
