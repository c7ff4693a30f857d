// Table 1 (paper §3.2): accumulated response time over all 250 queries for
// the five experiment configurations of Figures 4 and 5, with and without
// adaptive view selection, plus Fig. 4's setup on uniform data so that all
// four distributions appear.
//
// Paper shape: adaptive view selection beats full-scans-only in every
// configuration, by up to a factor of 1.88x (Fig. 5b there).
//
// zone_pass_s is a third series beside the paper's two: each query
// answered as ExecuteBatch({q}) on a second table over the same data. The
// batch path never adapts, so every query runs the zone-pruned base pass
// (only pages whose [min, max] zone meets q are read).
//
// adaptive_s maps every view at its first hit, as the paper does
// (materialize_after_hits = 1). adaptive_default_s runs the same plan at
// the engine's default threshold, where views answer over the base mapping
// until their hits pay for an arena.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "util/stopwatch.h"
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
  double adaptive_default_s = 0;
  double zone_pass_s = 0;
};

/// `materialize_after_hits` 1 is the paper's series (a view maps at its
/// first hit); the engine default lets views answer over the base mapping
/// until their hits pay for an arena.
std::unique_ptr<Table> MakeTable(const bench::BenchEnv& env, const Config& cfg,
                                 uint64_t materialize_after_hits) {
  DistributionSpec spec;
  spec.kind = cfg.distribution;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());

  AdaptiveConfig config;
  config.mode = cfg.mode;
  config.max_views = cfg.max_views;
  config.materialize_after_hits = materialize_after_hits;
  auto table_r = Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  VMSV_BENCH_CHECK_OK(table_r.status());
  return std::move(table_r).ValueOrDie();
}

Totals RunConfig(const bench::BenchEnv& env, const Config& cfg) {
  auto adaptive = MakeTable(env, cfg, /*materialize_after_hits=*/1);

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

  // The same plan at the engine's default threshold, on its own table.
  options.run_baseline = false;
  auto default_r = RunWorkload(
      MakeTable(env, cfg, AdaptiveConfig{}.materialize_after_hits).get(),
      queries, options);
  VMSV_BENCH_CHECK_OK(default_r.status());

  // The zone pass answers on its own table, so the adaptive pool above
  // cannot route any of these queries to a view.
  auto zone_table = MakeTable(env, cfg, /*materialize_after_hits=*/1);
  double zone_pass_ms = 0;
  for (const RangeQuery& q : queries) {
    Stopwatch timer;
    auto batch = zone_table->ExecuteBatch({q});
    zone_pass_ms += timer.ElapsedMillis();
    VMSV_BENCH_CHECK_OK(batch.status());
  }
  return Totals{report_r->fullscan_total_ms / 1000.0,
                report_r->adaptive_total_ms / 1000.0,
                default_r->adaptive_total_ms / 1000.0, zone_pass_ms / 1000.0};
}

int Main() {
  const bench::BenchEnv env =
      bench::LoadBenchEnv("Table 1: accumulated response time, all 5 configs "
                          "plus Fig. 4 on uniform data", 16384);

  const std::vector<Config> configs = {
      {"Fig4a sine/single", DataDistribution::kSine, QueryMode::kSingleView, 100,
       false, 0},
      {"Fig4b linear/single", DataDistribution::kLinear, QueryMode::kSingleView, 100,
       false, 0},
      {"Fig4c sparse/single", DataDistribution::kSparse, QueryMode::kSingleView, 100,
       false, 0},
      {"Fig4 uniform/single", DataDistribution::kUniform, QueryMode::kSingleView,
       100, false, 0},
      {"Fig5a sine/multi 1%", DataDistribution::kSine, QueryMode::kMultiView, 200,
       true, 0.01},
      {"Fig5b sine/multi 10%", DataDistribution::kSine, QueryMode::kMultiView, 20,
       true, 0.10},
  };

  TablePrinter table(bench::WithScanConfigHeaders(
      {"config", "fullscan_only_s", "adaptive_s", "improvement_x",
       "zone_pass_s", "adaptive_default_s"}));
  for (const Config& cfg : configs) {
    const Totals totals = RunConfig(env, cfg);
    table.AddRow(bench::WithScanConfigCells(
        {cfg.label, TablePrinter::Fmt(totals.fullscan_s, 2),
         TablePrinter::Fmt(totals.adaptive_s, 2),
         TablePrinter::Fmt(totals.fullscan_s / totals.adaptive_s, 2),
         TablePrinter::Fmt(totals.zone_pass_s, 3),
         TablePrinter::Fmt(totals.adaptive_default_s, 3)},
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
