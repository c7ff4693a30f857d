// Lifecycle coverage: the view contract (membership is the bitmap; an
// arena is a dense cache of it — materialization maps the bitmap's runs
// ascending, adds map at the tail, removals swap-remove) with its failure
// contract through the fault seam, bit-identical scans across kernels and
// thread counts, and cost-aware eviction.

#include "core/view_pool.h"

#include <algorithm>
#include <cerrno>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "core/virtual_view.h"
#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "rewiring/vm_io.h"
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

std::unique_ptr<VirtualView> MakeEmptyView(const PhysicalColumn& column) {
  auto view_r = VirtualView::CreateEmpty(column, 0, kMaxValue);
  EXPECT_TRUE(view_r.ok()) << view_r.status().ToString();
  return std::move(view_r).ValueOrDie();
}

// A view without an arena holding pages [0, count).
std::unique_ptr<VirtualView> MakeLeadingPagesView(const PhysicalColumn& column,
                                                  uint64_t count) {
  auto view = MakeEmptyView(column);
  std::vector<uint64_t> pages(count);
  for (uint64_t page = 0; page < count; ++page) pages[page] = page;
  EXPECT_TRUE(view->InstallPages(pages).ok());
  return view;
}

// The arena is a dense cache of the bitmap: slots [0, num_pages) are
// mapped, each onto a distinct member page, and nothing else is mapped.
void ExpectDenseArena(const VirtualView& view) {
  ASSERT_TRUE(view.is_materialized());
  const VirtualArena& arena = view.arena();
  EXPECT_EQ(arena.num_mapped_slots(), view.num_pages());
  std::set<uint64_t> mapped;
  for (uint64_t slot = 0; slot < view.num_pages(); ++slot) {
    const int64_t page = arena.SlotFilePage(slot);
    ASSERT_NE(page, VirtualArena::kUnmapped) << "slot " << slot;
    EXPECT_TRUE(view.ContainsPage(static_cast<uint64_t>(page))) << page;
    mapped.insert(static_cast<uint64_t>(page));
  }
  EXPECT_EQ(mapped.size(), view.num_pages());
}

void ExpectScansExact(const PhysicalColumn& column, const VirtualView& view) {
  for (const RangeQuery& q :
       {RangeQuery{0, kMaxValue}, RangeQuery{kMaxValue / 5, kMaxValue / 2}}) {
    const PageScanResult ref = ReferenceScan(column, view, q);
    const PageScanResult got = view.Scan(q);
    EXPECT_EQ(got.match_count, ref.match_count);
    EXPECT_EQ(got.sum, ref.sum);
  }
}

// Fails before the arena became a dense cache: the removals swap-removed a
// page list, which then mapped out of order in 5 mmaps (the reservation,
// then pages 0, 7, 6 and 3-5).
TEST(ViewContractTest, MapAfterRemovalsMapsBitmapRunsAscending) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  FaultInjectingVmIo io;
  column->file()->set_vm_io(&io);
  auto view = MakeLeadingPagesView(*column, 8);
  ASSERT_TRUE(view->RemovePage(1).ok());
  ASSERT_TRUE(view->RemovePage(2).ok());
  EXPECT_EQ(io.stats().mmaps, 0u);  // no arena: bit flips only
  EXPECT_EQ(view->num_page_runs(), 2u);  // {0}, {3..7}

  ASSERT_TRUE(view->EnsureMaterialized().ok());
  EXPECT_EQ(io.stats().mmaps, 1 + view->num_page_runs());
  ExpectDenseArena(*view);
  const std::vector<uint64_t> pages = view->physical_pages();
  for (uint64_t slot = 0; slot < pages.size(); ++slot) {
    EXPECT_EQ(view->arena().SlotFilePage(slot),
              static_cast<int64_t>(pages[slot]));
  }
  ExpectScansExact(*column, *view);
}

// Fails before the arena became a dense cache: a removal punched a
// PROT_NONE hole in 1 mmap and left 6 slots for 5 pages.
TEST(ViewContractTest, MappedRemovalSwapRemovesAndStaysDense) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  FaultInjectingVmIo io;
  column->file()->set_vm_io(&io);
  auto view = MakeLeadingPagesView(*column, 6);
  ASSERT_TRUE(view->EnsureMaterialized().ok());
  ASSERT_EQ(io.stats().mmaps, 2u);  // reservation + one run

  // Page 2 sits mid-arena: the tail page (5) is rewired into its slot,
  // then the tail slot unmapped.
  ASSERT_TRUE(view->RemovePage(2).ok());
  EXPECT_EQ(io.stats().mmaps, 4u);
  EXPECT_EQ(view->num_pages(), 5u);
  ExpectDenseArena(*view);
  ExpectScansExact(*column, *view);

  // Page 4 now holds the tail slot: only the unmap remains.
  ASSERT_TRUE(view->RemovePage(4).ok());
  EXPECT_EQ(io.stats().mmaps, 5u);
  ExpectDenseArena(*view);

  // An add maps at the tail in one mmap.
  ASSERT_TRUE(view->AppendPage(40).ok());
  EXPECT_EQ(io.stats().mmaps, 6u);
  ExpectDenseArena(*view);
  EXPECT_EQ(view->physical_pages(), (std::vector<uint64_t>{0, 1, 3, 5, 40}));

  // The dense arena answers as its pages do for every kernel and thread
  // count.
  const RangeQuery q{kMaxValue / 10, kMaxValue / 2};
  const PageScanResult ref = ReferenceScan(*column, *view, q);
  const ScanKernel restore = ActiveScanKernel();
  for (const ScanKernel kernel :
       {ScanKernel::kScalar, ScanKernel::kAvx2, ScanKernel::kAvx512}) {
    if (!ScanKernelAvailable(kernel)) continue;
    ASSERT_TRUE(SetActiveScanKernel(kernel).ok());
    for (const unsigned threads : {1u, 2u, 5u}) {
      ParallelScanOptions options;
      options.threads = threads;
      options.serial_cutoff = 0;  // force sharding even at test scale
      const PageScanResult got = view->Scan(q, options);
      EXPECT_EQ(got.match_count, ref.match_count)
          << ScanKernelName(kernel) << " threads=" << threads;
      EXPECT_EQ(got.sum, ref.sum);
    }
  }
  ASSERT_TRUE(SetActiveScanKernel(restore).ok());
}

TEST(ViewContractTest, FailedGapMapLeavesViewUnchanged) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  FaultInjectingVmIo io;
  column->file()->set_vm_io(&io);
  auto view = MakeLeadingPagesView(*column, 6);
  ASSERT_TRUE(view->EnsureMaterialized().ok());

  VmFaultPlan plan;
  plan.op_index = 1;  // the gap map
  plan.fail_errno = ENOMEM;
  plan.target = VmOp::kMmap;
  io.Arm(plan);
  const Status st = view->RemovePage(2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.sys_errno(), ENOMEM);
  EXPECT_EQ(view->num_pages(), 6u);
  EXPECT_TRUE(view->ContainsPage(2));
  ExpectDenseArena(*view);
  for (uint64_t slot = 0; slot < 6; ++slot) {
    EXPECT_EQ(view->arena().SlotFilePage(slot), static_cast<int64_t>(slot));
  }
  ExpectScansExact(*column, *view);
}

// Fails before the arena became a dense cache: a removal made one mmap, so
// the second never fired and RemovePage returned OK.
TEST(ViewContractTest, FailedTailUnmapReturnsErrorWithViewEdited) {
  auto column = MakeTestColumn(DataDistribution::kUniform);
  FaultInjectingVmIo io;
  column->file()->set_vm_io(&io);
  auto view = MakeLeadingPagesView(*column, 6);
  ASSERT_TRUE(view->EnsureMaterialized().ok());

  VmFaultPlan plan;
  plan.op_index = 2;  // the unmap of the old tail slot
  plan.fail_errno = ENOMEM;
  plan.target = VmOp::kMmap;
  io.Arm(plan);
  const Status st = view->RemovePage(2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.sys_errno(), ENOMEM);
  EXPECT_EQ(view->num_pages(), 5u);
  EXPECT_FALSE(view->ContainsPage(2));
  // The stale tail mapping lies past the slot list: scans read exactly the
  // five members.
  ExpectScansExact(*column, *view);
  // And the view keeps working: the next add maps over the stale slot.
  ASSERT_TRUE(view->AppendPage(2).ok());
  ExpectDenseArena(*view);
  ExpectScansExact(*column, *view);
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

// ---------------------------------------------------------------------------
// Membership: the bitmap, InstallPages and the run count.

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
    EXPECT_EQ(view->num_page_runs(), 0u);
    for (uint64_t page = 0; page < kTestPages; ++page) {
      ASSERT_FALSE(view->ContainsPage(page)) << page;
    }
  }
  // A valid list still installs afterwards, and a second install is refused.
  ASSERT_TRUE(view->InstallPages({1, 2, 3, 7}).ok());
  EXPECT_EQ(view->num_pages(), 4u);
  EXPECT_EQ(view->num_page_runs(), 2u);
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
  EXPECT_EQ(view->num_page_runs(), 1u);
  ASSERT_TRUE(view->RemovePage(kTestPages - 1).ok());
  EXPECT_EQ(view->num_page_runs(), 1u);
  EXPECT_EQ(view->AppendPage(kTestPages).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(view->AppendPageRun(kTestPages - 1, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(view->RemovePage(kTestPages).code(), StatusCode::kNotFound);
}

// Seeded random mutation sequences against a std::set model, with an arena
// and without one: after every step the bitmap, the page count and the run
// count must equal the model's, whichever path (bit flip, tail append,
// swap-remove, release, map, install) changed them, and an arena must stay
// a dense cache of the bitmap.
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
        if (view->num_pages() > 0 || view->is_materialized()) {
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
        } else {
          ASSERT_TRUE(st.ok()) << st.ToString();
          for (uint64_t i = 0; i < count; ++i) model.insert(first + i);
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
      } else if (op == 8) {
        view->ReleaseArena();
      } else {
        ASSERT_TRUE(view->EnsureMaterialized().ok());
      }

      ASSERT_EQ(view->num_pages(), model.size());
      for (uint64_t page = 0; page <= kPages; ++page) {
        ASSERT_EQ(view->ContainsPage(page), model.count(page) != 0) << page;
      }
      ASSERT_EQ(view->num_page_runs(), SetRuns(model));
      ASSERT_EQ(view->physical_pages(),
                std::vector<uint64_t>(model.begin(), model.end()));
      if (view->is_materialized()) {
        ASSERT_NO_FATAL_FAILURE(ExpectDenseArena(*view));
      }
      const PageScanResult got = view->Scan(q);
      const PageScanResult ref = ReferenceScan(*column, *view, q);
      ASSERT_EQ(got.match_count, ref.match_count);
      ASSERT_EQ(got.sum, ref.sum);
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
            EXPECT_EQ(lazy_view->num_page_runs(), eager_view->num_page_runs());
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
