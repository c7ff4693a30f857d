// Figure 7 (paper §3.4): time to update a set of partial views when a batch
// of changes hits the underlying table, vs rebuilding the views from
// scratch.
//
// Setup: one column over [0, 2^64-1] (uniform in (a), sine in (b)); five
// partial views, each covering a randomly selected 1/1024-th of the value
// range. A batch of N updates (N in {100, 1k, 10k, 100k, 1M}) is applied and
// all five views are aligned. The total time splits into parsing
// /proc/self/maps (§2.5) and updating the views (§2.4); pages added/removed
// are reported alongside, plus the rebuild-from-scratch alternative.
//
// Paper shape: aligning beats rebuilding except at very large batches;
// parsing dominates small batches and is costlier under uniform data (more
// mappings, bigger maps file); removals cost more than additions.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_layer.h"
#include "core/update_applier.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

constexpr int kNumViews = 5;

struct ViewSet {
  std::vector<std::unique_ptr<VirtualView>> views;
  std::vector<VirtualView*> pointers;
  uint64_t total_pages = 0;
};

ViewSet BuildViews(const PhysicalColumn& column, uint64_t seed) {
  ViewSet set;
  Rng rng(seed);
  const Value slice = (~Value{0}) / 1024;
  for (int i = 0; i < kNumViews; ++i) {
    const Value lo = rng.Below(~Value{0} - slice);
    auto view_r = BuildViewByScan(column, lo, lo + slice, {}, nullptr);
    VMSV_BENCH_CHECK_OK(view_r.status());
    set.total_pages += (*view_r)->num_pages();
    set.views.push_back(std::move(view_r).ValueOrDie());
  }
  for (auto& view : set.views) set.pointers.push_back(view.get());
  return set;
}

int RunDistribution(const bench::BenchEnv& env, DataDistribution kind) {
  const std::vector<uint64_t> batch_sizes = {100, 1000, 10000, 100000, 1000000};

  std::fprintf(stdout, "\n## %s distribution\n", DistributionName(kind));
  TablePrinter table(bench::WithScanConfigHeaders(
      {"batch", "parse_ms", "update_views_ms", "total_ms", "rebuild_ms",
       "pages_added", "pages_removed", "view_pages_before"}));

  for (const uint64_t batch_size : batch_sizes) {
    DistributionSpec spec;
    spec.kind = kind;
    spec.max_value = ~Value{0};
    spec.seed = 42;
    auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
    VMSV_BENCH_CHECK_OK(column_r.status());
    auto column = std::move(column_r).ValueOrDie();
    ViewSet set = BuildViews(*column, /*seed=*/7);

    // Apply the batch to the column, logging (row, old, new).
    Rng rng(batch_size * 31 + 1);
    UpdateBatch batch;
    for (uint64_t u = 0; u < batch_size; ++u) {
      const uint64_t row = rng.Below(column->num_rows());
      const Value new_value = rng.Next();
      const Value old_value = column->Set(row, new_value);
      batch.Add(row, old_value, new_value);
    }

    // Path 1: incremental alignment (§2.4 + §2.5).
    auto stats_r = AlignPartialViews(*column, set.pointers, batch,
                                     MappingSource::kProcMaps);
    VMSV_BENCH_CHECK_OK(stats_r.status());
    const UpdateApplyStats stats = std::move(stats_r).ValueOrDie();

    // Path 2: rebuild all five views from scratch on the updated column.
    Stopwatch rebuild_timer;
    ViewSet rebuilt = BuildViews(*column, /*seed=*/7);
    const double rebuild_ms = rebuild_timer.ElapsedMillis();

    // Sanity: aligned views must index exactly what the rebuild indexes —
    // compare page SETS, not counts, so compensating add/remove bugs can't
    // cancel out.
    for (int i = 0; i < kNumViews; ++i) {
      std::vector<uint64_t> aligned = set.views[i]->physical_pages();
      std::vector<uint64_t> fresh = rebuilt.views[i]->physical_pages();
      std::sort(aligned.begin(), aligned.end());
      std::sort(fresh.begin(), fresh.end());
      if (aligned != fresh) {
        std::fprintf(stderr, "[bench] ALIGNMENT MISMATCH view %d: %llu vs %llu pages\n",
                     i, static_cast<unsigned long long>(aligned.size()),
                     static_cast<unsigned long long>(fresh.size()));
        return 1;
      }
    }

    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(batch_size), TablePrinter::Fmt(stats.parse_ms, 2),
         TablePrinter::Fmt(stats.align_ms, 2),
         TablePrinter::Fmt(stats.parse_ms + stats.align_ms, 2),
         TablePrinter::Fmt(rebuild_ms, 2),
         TablePrinter::Fmt(stats.pages_added),
         TablePrinter::Fmt(stats.pages_removed),
         TablePrinter::Fmt(set.total_pages)},
        env));
  }
  table.PrintTable();
  std::fprintf(stdout, "\n# csv\n");
  table.PrintCsv();
  return 0;
}

int Main() {
  const bench::BenchEnv env =
      bench::LoadBenchEnv("Figure 7: update performance vs batch size", 16384);
  for (DataDistribution kind :
       {DataDistribution::kUniform, DataDistribution::kSine}) {
    const int rc = RunDistribution(env, kind);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
