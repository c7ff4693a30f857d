// Ablation (extension): adaptive benefit as a function of query-position
// skew. Analysts rarely probe the value domain uniformly; under Zipfian
// positions the same few ranges recur, partial views amortize much faster,
// and the view limit matters less.
//
// Reported per skew level: accumulated adaptive vs full-scan time, pages
// saved, and the number of views the column settled on.

#include "bench_common.h"
#include "vmsv.h"
#include "util/table_printer.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;

int Main() {
  const bench::BenchEnv env =
      bench::LoadBenchEnv("Ablation: query-position skew (Zipfian)", 8192);

  TablePrinter table(bench::WithScanConfigHeaders(
      {"skew", "adaptive_ms", "fullscan_ms", "speedup_x", "pages_saved_pct",
       "final_views"}));
  for (const double skew : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    DistributionSpec spec;
    spec.kind = DataDistribution::kSine;
    spec.max_value = kMaxValue;
    spec.seed = 42;
    auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
    VMSV_BENCH_CHECK_OK(column_r.status());
    AdaptiveConfig config;
    config.max_views = 50;
    config.materialize_after_hits = 1;  // the paper maps at the first hit
    auto adaptive_r =
        Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
    VMSV_BENCH_CHECK_OK(adaptive_r.status());
    auto adaptive = std::move(adaptive_r).ValueOrDie();

    QueryWorkloadSpec wspec;
    wspec.num_queries = env.queries;
    wspec.domain_hi = kMaxValue;
    wspec.seed = 13;
    const auto queries = MakeZipfianWorkload(wspec, 0.02, skew);

    RunnerOptions options;
    options.run_baseline = true;
    options.verify_results = true;
    auto report_r = RunWorkload(adaptive.get(), queries, options);
    VMSV_BENCH_CHECK_OK(report_r.status());

    const CumulativeStats m = adaptive->Metrics();
    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(skew, 1),
         TablePrinter::Fmt(report_r->adaptive_total_ms, 1),
         TablePrinter::Fmt(report_r->fullscan_total_ms, 1),
         TablePrinter::Fmt(
             report_r->fullscan_total_ms / report_r->adaptive_total_ms, 2),
         TablePrinter::Fmt(100.0 * m.PagesSavedRatio(), 1),
         TablePrinter::Fmt(static_cast<uint64_t>(
             adaptive->shard(0)->view_index().num_partial_views()))},
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
