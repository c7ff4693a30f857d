// Figure 6 (paper §3.3): impact of the two creation optimizations on the
// time to build a single partial view.
//
// (a) Uniform distribution over [0, 100M], view v[0, 100k] (~40% of pages
//     qualify, scattered).
// (b) Sine distribution over [0, 2^64-1], view v[0, 2^63] (~52% of pages
//     qualify, clustered).
//
// Four configurations: no optimizations, consecutive mapping only,
// concurrent (background) mapping only, both.
//
// Paper shape: both optimizations help; coalescing pays off most under
// clustering (sine), concurrent mapping is distribution-independent. NOTE:
// the scan pass finishes before the first mapping call is queued, so the
// background mapper overlaps only the queueing of later runs, not the scan;
// on a single-vCPU container it has even less room — EXPERIMENTS.md
// discusses this.

#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_layer.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

struct Scenario {
  const char* label;
  DistributionSpec spec;
  Value view_lo;
  Value view_hi;
};

struct CreationConfig {
  const char* label;
  ViewCreationOptions options;
};

int Main() {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "Figure 6: impact of optimizations on view creation", 65536);

  const std::vector<Scenario> scenarios = {
      {"uniform v[0,100k] of [0,100M]",
       DistributionSpec{DataDistribution::kUniform, 100'000'000, 42, 100.0, 0.10},
       0, 100'000},
      {"sine v[0,2^63] of [0,2^64-1]",
       DistributionSpec{DataDistribution::kSine, ~Value{0}, 42, 100.0, 0.10}, 0,
       Value{1} << 63},
  };
  const std::vector<CreationConfig> configs = {
      {"no optimizations", {/*coalesce_runs=*/false, /*background_mapping=*/false}},
      {"consecutively mapped", {true, false}},
      {"concurrently mapped", {false, true}},
      {"both optimizations", {true, true}},
  };

  TablePrinter table(bench::WithScanConfigHeaders(
      {"distribution", "config", "create_ms", "create_median_ms",
       "view_pages", "mmap_calls"}));
  for (const Scenario& scenario : scenarios) {
    auto column_r =
        MakeColumn(scenario.spec, env.pages * kValuesPerPage);
    VMSV_BENCH_CHECK_OK(column_r.status());
    auto column = std::move(column_r).ValueOrDie();

    for (const CreationConfig& cfg : configs) {
      SampleStats times;
      uint64_t view_pages = 0;
      uint64_t map_calls = 0;
      for (uint64_t rep = 0; rep < env.reps; ++rep) {
        std::unique_ptr<BackgroundMapper> mapper;
        if (cfg.options.background_mapping) {
          mapper = std::make_unique<BackgroundMapper>();
        }
        Stopwatch timer;
        auto view_r = BuildViewByScan(*column, scenario.view_lo, scenario.view_hi,
                                      cfg.options, mapper.get());
        VMSV_BENCH_CHECK_OK(view_r.status());
        times.Add(timer.ElapsedMillis());
        view_pages = (*view_r)->num_pages();
        map_calls = (*view_r)->arena().map_call_count();
      }
      // create_ms keeps its mean semantics (trajectory continuity);
      // create_median_ms is the outlier-robust primary (reps are few and
      // mmap-heavy runs have outliers).
      table.AddRow(bench::WithScanConfigCells(
          {scenario.label, cfg.label, TablePrinter::Fmt(times.Mean(), 2),
           TablePrinter::Fmt(times.Median(), 2), TablePrinter::Fmt(view_pages),
           TablePrinter::Fmt(map_calls)},
          env));
    }
  }
  table.PrintTable();
  std::fprintf(stdout, "\n# csv\n");
  table.PrintCsv();
  return 0;
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
