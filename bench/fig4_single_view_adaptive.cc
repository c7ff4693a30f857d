// Figure 4 (paper §3.2): adaptive query processing using single-view mode,
// on the three clustered distributions (sine, linear, sparse).
//
// A sequence of 250 shuffled queries varies the selected range width from
// 50M down to 5000 on the domain [0, 100M]. Reported per query: response
// time, number of scanned physical pages, and the full-scan baseline time.
//
// Paper shape: early queries cost ~a full scan plus view-creation overhead;
// once enough partial views exist, most queries are answered from small
// views and both runtime and scanned pages collapse.
//
// `--dump-dist` prints the per-page first values of each distribution
// (the series plotted in Figure 2) instead of running the benchmark.

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "util/table_printer.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;

void DumpDistributions(uint64_t pages) {
  TablePrinter table({"page", "linear", "sine", "sparse"});
  const uint64_t num_rows = pages * kValuesPerPage;
  DistributionSpec linear{DataDistribution::kLinear, kMaxValue, 42, 100.0, 0.10};
  DistributionSpec sine{DataDistribution::kSine, kMaxValue, 42, 100.0, 0.10};
  DistributionSpec sparse{DataDistribution::kSparse, kMaxValue, 42, 100.0, 0.10};
  const ValueGenerator gl(linear, num_rows);
  const ValueGenerator gs(sine, num_rows);
  const ValueGenerator gp(sparse, num_rows);
  const uint64_t limit = std::min<uint64_t>(pages, 300);  // Figure 2 plots 300
  for (uint64_t page = 0; page < limit; ++page) {
    const uint64_t row = page * kValuesPerPage;
    table.AddRow({TablePrinter::Fmt(page), TablePrinter::Fmt(gl(row)),
                  TablePrinter::Fmt(gs(row)), TablePrinter::Fmt(gp(row))});
  }
  table.PrintCsv();
}

int RunDistribution(const bench::BenchEnv& env, DataDistribution kind) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());

  AdaptiveConfig config;
  config.mode = QueryMode::kSingleView;
  config.max_views = GetEnvUint64("VMSV_MAX_VIEWS", 100);
  config.materialize_after_hits = 1;  // the paper maps at the first hit
  auto adaptive_r = Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  auto adaptive = std::move(adaptive_r).ValueOrDie();

  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = 7;
  const auto queries = MakeVaryingWidthWorkload(wspec, 50'000'000, 5'000);

  RunnerOptions options;
  options.run_baseline = true;
  options.verify_results = true;
  auto report_r = RunWorkload(adaptive.get(), queries, options);
  VMSV_BENCH_CHECK_OK(report_r.status());
  const WorkloadReport& report = *report_r;

  std::fprintf(stdout, "\n## %s distribution\n", DistributionName(kind));
  TablePrinter table(bench::WithScanConfigHeaders(
      {"query", "adaptive_ms", "scanned_pages", "fullscan_ms", "views_after",
       "decision"}));
  for (size_t i = 0; i < report.traces.size(); ++i) {
    const QueryTrace& t = report.traces[i];
    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(static_cast<uint64_t>(i)),
         TablePrinter::Fmt(t.adaptive_ms, 3),
         TablePrinter::Fmt(t.scanned_pages),
         TablePrinter::Fmt(t.fullscan_ms, 3),
         TablePrinter::Fmt(t.views_after),
         CandidateDecisionName(t.decision)},
        env));
  }
  table.PrintCsv();
  std::fprintf(stdout,
               "# %s: accumulated adaptive=%.1f ms, fullscan-only=%.1f ms, "
               "speedup=%.2fx, partial views=%llu\n",
               DistributionName(kind), report.adaptive_total_ms,
               report.fullscan_total_ms,
               report.fullscan_total_ms / report.adaptive_total_ms,
               static_cast<unsigned long long>(
                   adaptive->shard(0)->view_index().num_partial_views()));
  return 0;
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "Figure 4: adaptive query processing, single-view mode", 16384);
  if (argc > 1 && std::strcmp(argv[1], "--dump-dist") == 0) {
    DumpDistributions(env.pages);
    return 0;
  }
  for (DataDistribution kind : {DataDistribution::kSine, DataDistribution::kLinear,
                                DataDistribution::kSparse}) {
    const int rc = RunDistribution(env, kind);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace
}  // namespace vmsv

int main(int argc, char** argv) { return vmsv::Main(argc, argv); }
