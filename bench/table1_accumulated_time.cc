// Table 1 (paper §3.2): accumulated response time over all 250 queries for
// the five experiment configurations of Figures 4 and 5, with and without
// adaptive view selection.
//
// Paper shape: adaptive view selection beats full-scans-only in every
// configuration, by up to a factor of 1.88x (Fig. 5b there).

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

struct Config {
  std::string label;
  DataDistribution distribution;
  QueryMode mode;
  size_t max_views;
  bool fixed_selectivity;
  double selectivity;  // only for fixed_selectivity configs
};

struct Totals {
  double fullscan_s = 0;
  double adaptive_s = 0;
};

Totals RunConfig(const bench::BenchEnv& env, const Config& cfg) {
  DistributionSpec spec;
  spec.kind = cfg.distribution;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());

  AdaptiveConfig config;
  config.mode = cfg.mode;
  config.max_views = cfg.max_views;
  auto adaptive_r = Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  auto adaptive = std::move(adaptive_r).ValueOrDie();

  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = cfg.fixed_selectivity ? 11 : 7;
  const auto queries =
      cfg.fixed_selectivity
          ? MakeFixedSelectivityWorkload(wspec, cfg.selectivity)
          : MakeVaryingWidthWorkload(wspec, 50'000'000, 5'000);

  RunnerOptions options;
  options.run_baseline = true;   // the "Full scans only" row
  options.verify_results = true;
  auto report_r = RunWorkload(adaptive.get(), queries, options);
  VMSV_BENCH_CHECK_OK(report_r.status());
  return Totals{report_r->fullscan_total_ms / 1000.0,
                report_r->adaptive_total_ms / 1000.0};
}

int Main() {
  const bench::BenchEnv env =
      bench::LoadBenchEnv("Table 1: accumulated response time, all 5 configs", 16384);

  const std::vector<Config> configs = {
      {"Fig4a sine/single", DataDistribution::kSine, QueryMode::kSingleView, 100,
       false, 0},
      {"Fig4b linear/single", DataDistribution::kLinear, QueryMode::kSingleView, 100,
       false, 0},
      {"Fig4c sparse/single", DataDistribution::kSparse, QueryMode::kSingleView, 100,
       false, 0},
      {"Fig5a sine/multi 1%", DataDistribution::kSine, QueryMode::kMultiView, 200,
       true, 0.01},
      {"Fig5b sine/multi 10%", DataDistribution::kSine, QueryMode::kMultiView, 20,
       true, 0.10},
  };

  TablePrinter table(bench::WithScanConfigHeaders(
      {"config", "fullscan_only_s", "adaptive_s", "improvement_x"}));
  for (const Config& cfg : configs) {
    const Totals totals = RunConfig(env, cfg);
    table.AddRow(bench::WithScanConfigCells(
        {cfg.label, TablePrinter::Fmt(totals.fullscan_s, 2),
         TablePrinter::Fmt(totals.adaptive_s, 2),
         TablePrinter::Fmt(totals.fullscan_s / totals.adaptive_s, 2)},
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
