// Ablation (extension E7): effect of the discard tolerance d and the
// replacement tolerance r (paper §2.2; the evaluation fixes both to 0) and
// of the routing policy (single / multi / cost-based multi — the latter is
// the paper's stated future work).
//
// Reported per configuration: accumulated runtime, views created/discarded/
// replaced, total pages indexed by the partial views.

#include <string>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;

struct AblationResult {
  double total_ms = 0;
  uint64_t inserted = 0;
  uint64_t discarded = 0;
  uint64_t replaced = 0;
  uint64_t final_views = 0;
  uint64_t total_view_pages = 0;
};

AblationResult RunConfig(const bench::BenchEnv& env, QueryMode mode,
                         bool cost_based, uint64_t d, uint64_t r) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());

  AdaptiveConfig config;
  config.mode = mode;
  config.cost_based_routing = cost_based;
  config.max_views = 100;
  config.discard_tolerance = d;
  config.replace_tolerance = r;
  config.materialize_after_hits = 1;  // the paper maps at the first hit
  auto adaptive_r = Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  auto adaptive = std::move(adaptive_r).ValueOrDie();

  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = 7;
  const auto queries = MakeVaryingWidthWorkload(wspec, 50'000'000, 5'000);

  AblationResult out;
  for (const RangeQuery& q : queries) {
    Stopwatch timer;
    auto result = adaptive->Execute(q);
    VMSV_BENCH_CHECK_OK(result.status());
    out.total_ms += timer.ElapsedMillis();
    switch (result->stats.decision) {
      case CandidateDecision::kInserted:
        ++out.inserted;
        break;
      case CandidateDecision::kDiscardedSubset:
        ++out.discarded;
        break;
      case CandidateDecision::kReplacedExisting:
        ++out.replaced;
        break;
      default:
        break;
    }
  }
  out.final_views = adaptive->shard(0)->view_index().num_partial_views();
  out.total_view_pages = adaptive->shard(0)->view_index().TotalPartialPages();
  return out;
}

int Main() {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "Ablation: discard/replacement tolerances and routing policy", 8192);

  TablePrinter table(bench::WithScanConfigHeaders(
      {"mode", "d", "r", "total_ms", "inserted", "discarded", "replaced",
       "final_views", "view_pages"}));
  struct Row {
    QueryMode mode;
    bool cost_based;
    uint64_t d;
    uint64_t r;
  };
  std::vector<Row> rows;
  for (const uint64_t d : {0ull, 16ull, 256ull}) {
    for (const uint64_t r : {0ull, 16ull, 256ull}) {
      rows.push_back({QueryMode::kSingleView, false, d, r});
    }
  }
  rows.push_back({QueryMode::kMultiView, false, 0, 0});
  rows.push_back({QueryMode::kMultiView, true, 0, 0});

  for (const Row& row : rows) {
    const AblationResult result =
        RunConfig(env, row.mode, row.cost_based, row.d, row.r);
    std::string mode = row.mode == QueryMode::kSingleView ? "single" : "multi";
    if (row.cost_based) mode += "+cost";
    table.AddRow(bench::WithScanConfigCells(
        {mode, TablePrinter::Fmt(row.d), TablePrinter::Fmt(row.r),
         TablePrinter::Fmt(result.total_ms, 1),
         TablePrinter::Fmt(result.inserted),
         TablePrinter::Fmt(result.discarded),
         TablePrinter::Fmt(result.replaced),
         TablePrinter::Fmt(result.final_views),
         TablePrinter::Fmt(result.total_view_pages)},
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
