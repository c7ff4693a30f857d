// Figure 3 (paper §3.1): query performance of explicit vs virtual partial
// views.
//
// Setup: a column of uniformly random 8B integers in [0, 100M]. For each
// index selectivity k (the fraction of qualifying pages grows with k), each
// variant builds a partial index over [0, k], 10k uniformly selected entries
// are updated, and the query [0, k/2] (50% of the indexed data) is answered.
//
// Paper shape: Zone Map slowest (metadata of ALL pages inspected), Bitmap
// and Vector of Page-IDs in between, Virtual View fastest and closest to the
// artificial Physical Scan optimum.

#include <memory>
#include <vector>

#include "bench_common.h"
#include "index/bitmap_index.h"
#include "index/page_id_vector_index.h"
#include "index/physical_copy_index.h"
#include "index/virtual_view_index.h"
#include "index/zone_map_index.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;

struct VariantRun {
  std::unique_ptr<PartialIndex> index;
  double med_ms = 0;
  double avg_ms = 0;
  IndexQueryResult last_result;
};

int Main() {
  const bench::BenchEnv env =
      bench::LoadBenchEnv("Figure 3: explicit vs virtual partial views", 65536);
  // Updates scale with column size (paper: 10k updates on 1M pages).
  const uint64_t num_updates =
      GetEnvUint64("VMSV_UPDATES", std::max<uint64_t>(64, 10000 * env.pages / 1048576));

  DistributionSpec spec;
  spec.kind = DataDistribution::kUniform;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());
  auto column = std::move(column_r).ValueOrDie();

  // The paper's k values: 1250 (0.65% of pages qualify) ... 80000 (33.55%).
  const std::vector<uint64_t> ks = {1250, 2500, 5000, 10000, 20000, 40000, 80000};

  // The pre-existing *_ms columns keep their mean semantics so the perf
  // trajectory stays comparable across PRs; *_median_ms are the new,
  // outlier-robust primaries.
  TablePrinter table(bench::WithScanConfigHeaders(
      {"k", "sel_pages_pct", "zone_map_ms", "bitmap_ms", "vector_ms",
       "physical_scan_ms", "virtual_view_ms", "zone_map_median_ms",
       "bitmap_median_ms", "vector_median_ms", "physical_scan_median_ms",
       "virtual_view_median_ms"}));

  for (const uint64_t k : ks) {
    std::vector<VariantRun> variants;
    variants.push_back({std::make_unique<ZoneMapIndex>(), 0, 0, {}});
    variants.push_back({std::make_unique<BitmapIndex>(), 0, 0, {}});
    variants.push_back({std::make_unique<PageIdVectorIndex>(), 0, 0, {}});
    variants.push_back({std::make_unique<PhysicalCopyIndex>(), 0, 0, {}});
    variants.push_back({std::make_unique<VirtualViewIndex>(), 0, 0, {}});

    for (VariantRun& run : variants) {
      VMSV_BENCH_CHECK_OK(run.index->Build(*column, 0, k));
    }

    // 10k (scaled) scattered updates: all variants share the same column
    // state, so each update is applied to the column once and mirrored into
    // every index.
    Rng rng(k);
    for (uint64_t u = 0; u < num_updates; ++u) {
      const uint64_t row = rng.Below(column->num_rows());
      const Value new_value = rng.Below(kMaxValue + 1);
      const Value old_value = column->Set(row, new_value);
      for (VariantRun& run : variants) {
        VMSV_BENCH_CHECK_OK(
            run.index->ApplyUpdate(*column, RowUpdate{row, old_value, new_value}));
      }
    }

    const RangeQuery query{0, k / 2};
    double sel_pct = 0;
    for (VariantRun& run : variants) {
      SampleStats times;
      // Untimed warm-up: populates page-table entries of freshly rewired
      // views (the paper's "first access after (re-)mapping" cost) so all
      // variants are measured steady-state.
      run.last_result = run.index->Query(*column, query);
      for (uint64_t rep = 0; rep < env.reps; ++rep) {
        Stopwatch timer;
        run.last_result = run.index->Query(*column, query);
        times.Add(timer.ElapsedMillis());
      }
      run.med_ms = times.Median();
      run.avg_ms = times.Mean();
    }
    sel_pct = 100.0 * static_cast<double>(variants[4].index->num_indexed_pages()) /
              static_cast<double>(column->num_pages());

    // Cross-variant result validation: all five must agree.
    for (const VariantRun& run : variants) {
      if (run.last_result.match_count != variants[0].last_result.match_count ||
          run.last_result.sum != variants[0].last_result.sum) {
        std::fprintf(stderr, "[bench] RESULT MISMATCH between %s and %s at k=%llu\n",
                     run.index->name(), variants[0].index->name(),
                     static_cast<unsigned long long>(k));
        return 1;
      }
    }

    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(k), TablePrinter::Fmt(sel_pct, 2),
         TablePrinter::Fmt(variants[0].avg_ms, 3),
         TablePrinter::Fmt(variants[1].avg_ms, 3),
         TablePrinter::Fmt(variants[2].avg_ms, 3),
         TablePrinter::Fmt(variants[3].avg_ms, 3),
         TablePrinter::Fmt(variants[4].avg_ms, 3),
         TablePrinter::Fmt(variants[0].med_ms, 3),
         TablePrinter::Fmt(variants[1].med_ms, 3),
         TablePrinter::Fmt(variants[2].med_ms, 3),
         TablePrinter::Fmt(variants[3].med_ms, 3),
         TablePrinter::Fmt(variants[4].med_ms, 3)},
        env));
  }

  table.PrintTable();
  std::fprintf(stdout, "\n# csv\n");
  table.PrintCsv();
  return 0;
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
