// micro_tiering — arena release and re-materialization, in memory and
// durable, a member of the BENCH_*.json family (schema guarded by
// tools/check_bench.py, wired into ctest and CI like BENCH_lifecycle.json).
//
// The workload is the Figure-5 phase-shift sequence (sine distribution,
// fixed 10% selectivity, workload seed 11, 4 drifting phases) played TWICE:
// the second epoch revisits the slices the drift abandoned. At the epoch
// boundary ReleaseColdestArenas(max_views) releases every arena the pool
// holds, so the second epoch's hits map their views again from the page
// lists. Each view budget runs once per pool kind:
//   - in_memory: the column lives in anonymous memory;
//   - durable:   the column persists under VMSV_PERSIST_DIR.
// A view is in one of two states, with an arena or without one, whatever
// the pool kind, so tools/check_bench.py requires the two runs to agree
// exactly in hit rate and in every counter.
// Reported per (budget, pool): view hit rate (fraction of queries answered
// from a view), accumulated adaptive time (median over reps), pages
// scanned, and the view and arena counters.
//
// Plain executable — no google-benchmark dependency, so it always builds
// and the smoke tier can emit BENCH_tiering.json on every ctest run.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "core/view_pool.h"
#include "util/env.h"
#include "util/histogram.h"
#include "util/table_printer.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;
constexpr double kSelectivity = 0.10;
constexpr uint64_t kPhases = 4;
constexpr uint64_t kEpochs = 2;  // replay so the drift's slices recur
constexpr uint64_t kWorkloadSeed = 11;
constexpr uint64_t kBudgets[] = {2, 4, 8};  // view budgets, tight first

struct PoolRun {
  const char* pool = "";
  double hit_rate = 0;
  double accumulated_ms = 0;  // median over reps
  std::vector<double> rep_ms;
  uint64_t scanned_pages = 0;
  double pages_saved_ratio = 0;
  uint64_t views_created = 0;
  uint64_t views_evicted = 0;
  uint64_t views_demoted = 0;   // arenas released, view kept
  uint64_t views_promoted = 0;  // arenas mapped at the threshold hit
  uint64_t candidates_dropped = 0;
};

struct BudgetPoint {
  uint64_t max_views = 0;
  std::vector<PoolRun> pools;  // [in_memory, durable]
};

struct TieringReport {
  uint64_t queries = 0;
  std::vector<BudgetPoint> budgets;
};

DistributionSpec SineSpec() {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  return spec;
}

std::unique_ptr<Table> MakeTable(const bench::BenchEnv& env,
                                 const std::string& dir, bool durable,
                                 const AdaptiveConfig& config) {
  const uint64_t rows = env.pages * kValuesPerPage;
  if (!durable) {
    auto column_r = MakeColumn(SineSpec(), rows);
    VMSV_BENCH_CHECK_OK(column_r.status());
    auto table_r =
        Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
    VMSV_BENCH_CHECK_OK(table_r.status());
    return std::move(table_r).ValueOrDie();
  }
  // Fresh directory per rep: no rep may inherit another's pool.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto table_r = Db::CreateDurable(dir, rows, DbOptions{config});
  VMSV_BENCH_CHECK_OK(table_r.status());
  auto table = std::move(table_r).ValueOrDie();
  FillColumn(SineSpec(), table->shard(0)->mutable_column());
  return table;
}

PoolRun RunPool(const bench::BenchEnv& env, const std::string& dir,
                uint64_t budget, bool durable,
                const std::vector<RangeQuery>& epoch) {
  PoolRun run;
  run.pool = durable ? "durable" : "in_memory";
  SampleStats times;
  for (uint64_t rep = 0; rep < env.reps; ++rep) {
    AdaptiveConfig config;
    config.mode = QueryMode::kMultiView;
    config.max_views = budget;
    config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
    // Every hit of a view without an arena maps it, so the second epoch's
    // first hit on a released view re-maps it.
    config.materialize_after_hits = 1;
    auto table = MakeTable(env, dir, durable, config);

    RunnerOptions options;
    options.run_baseline = false;
    options.verify_results = false;
    double total_ms = 0;
    uint64_t hits = 0;
    uint64_t traced = 0;
    for (uint64_t e = 0; e < kEpochs; ++e) {
      if (e > 0) table->shard(0)->ReleaseColdestArenas(budget);
      auto report_r = RunWorkload(table.get(), epoch, options);
      VMSV_BENCH_CHECK_OK(report_r.status());
      total_ms += report_r->adaptive_total_ms;
      for (const QueryTrace& trace : report_r->traces) {
        if (trace.decision == CandidateDecision::kAnsweredFromView) ++hits;
      }
      traced += report_r->traces.size();
    }
    times.Add(total_ms);
    run.rep_ms.push_back(total_ms);
    if (rep == 0) {
      run.hit_rate = traced == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(traced);
      const CumulativeStats m = table->Metrics();
      run.scanned_pages = m.scanned_pages;
      run.pages_saved_ratio = m.PagesSavedRatio();
      run.views_created = m.views_created;
      run.views_evicted = m.views_evicted;
      run.candidates_dropped = m.candidates_dropped;
      const ColumnHealth health = table->Health().total;
      run.views_demoted = health.views_demoted;
      run.views_promoted = health.views_promoted;
    }
  }
  run.accumulated_ms = times.Median();
  return run;
}

TieringReport RunTieringExperiment(const bench::BenchEnv& env,
                                   const std::string& dir) {
  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = kWorkloadSeed;
  const auto epoch = MakePhaseShiftWorkload(wspec, kSelectivity, kPhases);
  TieringReport report;
  report.queries = epoch.size() * kEpochs;
  for (const uint64_t budget : kBudgets) {
    BudgetPoint point;
    point.max_views = budget;
    for (const bool durable : {false, true}) {
      point.pools.push_back(RunPool(env, dir, budget, durable, epoch));
    }
    report.budgets.push_back(std::move(point));
  }
  return report;
}

void PrintReport(const bench::BenchEnv& env, const TieringReport& report) {
  std::fprintf(stdout,
               "\n## tiering: phase-shift x%llu epochs, sel=%.0f%%, arenas "
               "released between epochs\n",
               static_cast<unsigned long long>(kEpochs),
               kSelectivity * 100.0);
  TablePrinter table(bench::WithScanConfigHeaders(
      {"max_views", "pool", "hit_rate", "accumulated_ms", "scanned_pages",
       "views_evicted", "views_demoted", "views_promoted"}));
  for (const BudgetPoint& point : report.budgets) {
    for (const PoolRun& p : point.pools) {
      table.AddRow(bench::WithScanConfigCells(
          {TablePrinter::Fmt(point.max_views), p.pool,
           TablePrinter::Fmt(p.hit_rate, 3),
           TablePrinter::Fmt(p.accumulated_ms, 2),
           TablePrinter::Fmt(p.scanned_pages),
           TablePrinter::Fmt(p.views_evicted),
           TablePrinter::Fmt(p.views_demoted),
           TablePrinter::Fmt(p.views_promoted)},
          env));
    }
  }
  table.PrintCsv();
}

int WriteJson(const std::string& path, const bench::BenchEnv& env,
              const TieringReport& report) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_tiering", env, /*seed=*/42);
    w.Key("tiering");
    w.BeginObject();
    w.Field("selectivity", kSelectivity, 2);
    w.Field("phases", kPhases);
    w.Field("epochs", kEpochs);
    w.Field("distribution", "sine");
    w.Field("workload_seed", kWorkloadSeed);
    w.Field("queries", report.queries);
    w.Key("budgets");
    w.BeginArray();
    for (const BudgetPoint& point : report.budgets) {
      w.BeginObject();
      w.Field("max_views", point.max_views);
      w.Key("pools");
      w.BeginArray();
      for (const PoolRun& p : point.pools) {
        w.BeginObject();
        w.Field("pool", p.pool);
        w.Field("hit_rate", p.hit_rate, 4);
        w.Field("accumulated_ms", p.accumulated_ms);
        w.Field("scanned_pages", p.scanned_pages);
        w.Field("pages_saved_ratio", p.pages_saved_ratio);
        w.Field("views_created", p.views_created);
        w.Field("views_evicted", p.views_evicted);
        w.Field("views_demoted", p.views_demoted);
        w.Field("views_promoted", p.views_promoted);
        w.Field("candidates_dropped", p.candidates_dropped);
        w.FieldArray("rep_ms", p.rep_ms);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.EndObject();
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stdout, "# wrote %s\n", path.c_str());
  return 0;
}

int Main() {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "micro_tiering: arena release and re-mapping, in memory vs durable",
      4096);
  const std::string json_path = bench::BenchJsonPath("BENCH_tiering.json");
  const std::string dir =
      GetEnvString("VMSV_PERSIST_DIR", "vmsv_tiering_bench");
  const TieringReport report = RunTieringExperiment(env, dir);
  PrintReport(env, report);
  const int rc = WriteJson(json_path, env, report);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // scratch; the JSON is the output
  return rc;
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
