// Figure 5 (paper §3.2): adaptive query processing using multi-view mode.
//
// Sine distribution, fixed selectivity: (a) 1% with up to 200 views,
// (b) 10% with up to 20 views. Reported per query: response time and the
// number of views used to answer it, plus the full-scan baseline.
//
// Paper shape: multiple overlapping views jointly answer queries (up to ~9
// views at 1%, ~6 at 10%); once coverage is built, performance improves
// drastically over full scans.

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

struct Scenario {
  double selectivity;
  size_t max_views;
};

int RunScenario(const bench::BenchEnv& env, const Scenario& scenario) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());

  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.max_views = scenario.max_views;
  config.materialize_after_hits = 1;  // the paper maps at the first hit
  auto adaptive_r = Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  auto adaptive = std::move(adaptive_r).ValueOrDie();

  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = 11;
  const auto queries = MakeFixedSelectivityWorkload(wspec, scenario.selectivity);

  RunnerOptions options;
  options.run_baseline = true;
  options.verify_results = true;
  auto report_r = RunWorkload(adaptive.get(), queries, options);
  VMSV_BENCH_CHECK_OK(report_r.status());
  const WorkloadReport& report = *report_r;

  std::fprintf(stdout, "\n## sine distribution, selectivity %.0f%%, max %zu views\n",
               scenario.selectivity * 100.0, scenario.max_views);
  TablePrinter table(bench::WithScanConfigHeaders(
      {"query", "adaptive_ms", "considered_views", "fullscan_ms",
       "views_after"}));
  uint64_t max_considered = 0;
  for (size_t i = 0; i < report.traces.size(); ++i) {
    const QueryTrace& t = report.traces[i];
    max_considered = std::max(max_considered, t.considered_views);
    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(static_cast<uint64_t>(i)),
         TablePrinter::Fmt(t.adaptive_ms, 3),
         TablePrinter::Fmt(t.considered_views),
         TablePrinter::Fmt(t.fullscan_ms, 3),
         TablePrinter::Fmt(t.views_after)},
        env));
  }
  table.PrintCsv();
  std::fprintf(stdout,
               "# sel=%.0f%%: accumulated adaptive=%.1f ms, fullscan-only=%.1f ms, "
               "speedup=%.2fx, max views used per query=%llu\n",
               scenario.selectivity * 100.0, report.adaptive_total_ms,
               report.fullscan_total_ms,
               report.fullscan_total_ms / report.adaptive_total_ms,
               static_cast<unsigned long long>(max_considered));
  return 0;
}

int Main() {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "Figure 5: adaptive query processing, multi-view mode", 16384);
  // (a) 1% selectivity with up to 200 views; (b) 10% with up to 20 views.
  for (const Scenario& scenario : {Scenario{0.01, 200}, Scenario{0.10, 20}}) {
    const int rc = RunScenario(env, scenario);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
