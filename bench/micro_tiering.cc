// micro_tiering — hit-rate-vs-memory-budget curves for the cold-view tier
// (ISSUE 8 satellite), the fifth member of the BENCH_*.json family (schema
// guarded by tools/check_bench.py, wired into ctest and CI like
// BENCH_lifecycle.json).
//
// The workload is the Figure-5 phase-shift sequence (sine distribution,
// fixed 10% selectivity, workload seed 11, 4 drifting phases) played TWICE:
// the second epoch revisits the slices the drift abandoned — the recurring
// shape (daily report cycles) where tiering pays. Under a hot-view budget
// tighter than the working set, each budget point runs once per policy:
//   - destroy_evict:   enable_demotion=false — a cold view is destroyed at
//                      eviction; revisiting its slice pays a full scan and
//                      a fresh adaptation (the pre-tiering behavior);
//   - demote_promote:  the lifecycle releases the victim's arena, keeps its
//                      page list and records the tier flip in the manifest;
//                      the revisit routes into the demoted view,
//                      re-materializes it, and promotes it back hot.
// Reported per (budget, policy): view hit rate (fraction of queries
// answered from a view), accumulated adaptive time (median over reps),
// pages scanned, and the demote/promote/evict counters. The headline
// metric, constrained_budget_hit_gain, is the demote-minus-destroy hit-rate
// difference at the tightest budget — the quantity the CI gate keeps from
// regressing to zero.
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
#include "core/view_lifecycle.h"
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
constexpr uint64_t kBudgets[] = {2, 4, 8};  // hot-view budgets, tight first
/// Cold capacity per hot slot: roomy enough that the experiment measures
/// the demote/promote mechanism, not cold-tier thrashing.
constexpr uint64_t kColdMultiplier = 4;

struct PolicyRun {
  const char* policy = "";
  double hit_rate = 0;
  double accumulated_ms = 0;  // median over reps
  std::vector<double> rep_ms;
  uint64_t scanned_pages = 0;
  double pages_saved_ratio = 0;
  uint64_t views_created = 0;
  uint64_t views_evicted = 0;
  uint64_t views_demoted = 0;
  uint64_t views_promoted = 0;
  uint64_t candidates_dropped = 0;
};

struct BudgetPoint {
  uint64_t max_views = 0;
  std::vector<PolicyRun> policies;  // [demote_promote, destroy_evict]
  double hit_gain = 0;              // demote hit_rate - destroy hit_rate
};

struct TieringReport {
  uint64_t queries = 0;
  std::vector<BudgetPoint> budgets;
  /// hit_gain at the tightest budget — the headline curve separation.
  double constrained_budget_hit_gain = 0;
};

std::vector<RangeQuery> MakeRecurringWorkload(const bench::BenchEnv& env) {
  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = kWorkloadSeed;
  const auto epoch = MakePhaseShiftWorkload(wspec, kSelectivity, kPhases);
  std::vector<RangeQuery> queries;
  queries.reserve(epoch.size() * kEpochs);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    queries.insert(queries.end(), epoch.begin(), epoch.end());
  }
  return queries;
}

PolicyRun RunPolicy(const bench::BenchEnv& env, const std::string& dir,
                    uint64_t budget, bool demote,
                    const std::vector<RangeQuery>& queries) {
  PolicyRun run;
  run.policy = demote ? "demote_promote" : "destroy_evict";

  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;

  SampleStats times;
  for (uint64_t rep = 0; rep < env.reps; ++rep) {
    // Fresh column per rep: the durable state (manifest pool slots) is the
    // mechanism under test, so no rep may inherit another's pool.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    AdaptiveConfig config;
    config.mode = QueryMode::kMultiView;
    config.max_views = budget;
    config.max_cold_views = budget * kColdMultiplier;
    config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
    config.lifecycle.enable_demotion = demote;
    // A revisit re-materializes and promotes at its first hit.
    config.materialize_after_hits = 1;
    auto adaptive_r = Db::CreateDurable(
        dir, env.pages * kValuesPerPage, DbOptions{config});
    VMSV_BENCH_CHECK_OK(adaptive_r.status());
    auto adaptive = std::move(adaptive_r).ValueOrDie();
    FillColumn(spec, adaptive->shard(0)->mutable_column());

    RunnerOptions options;
    options.run_baseline = false;
    options.verify_results = false;
    auto report_r = RunWorkload(adaptive.get(), queries, options);
    VMSV_BENCH_CHECK_OK(report_r.status());
    const WorkloadReport& report = *report_r;

    times.Add(report.adaptive_total_ms);
    run.rep_ms.push_back(report.adaptive_total_ms);
    if (rep == 0) {
      uint64_t hits = 0;
      for (const QueryTrace& trace : report.traces) {
        if (trace.decision == CandidateDecision::kAnsweredFromView) ++hits;
      }
      run.hit_rate = report.traces.empty()
                         ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(report.traces.size());
      const CumulativeStats m = adaptive->Metrics();
      run.scanned_pages = m.scanned_pages;
      run.pages_saved_ratio = m.PagesSavedRatio();
      run.views_created = m.views_created;
      run.views_evicted = m.views_evicted;
      run.candidates_dropped = m.candidates_dropped;
      run.views_demoted = report.views_demoted;
      run.views_promoted = report.views_promoted;
    }
  }
  run.accumulated_ms = times.Median();
  return run;
}

TieringReport RunTieringExperiment(const bench::BenchEnv& env,
                                   const std::string& dir) {
  const auto queries = MakeRecurringWorkload(env);
  TieringReport report;
  report.queries = queries.size();
  for (const uint64_t budget : kBudgets) {
    BudgetPoint point;
    point.max_views = budget;
    point.policies.push_back(
        RunPolicy(env, dir, budget, /*demote=*/true, queries));
    point.policies.push_back(
        RunPolicy(env, dir, budget, /*demote=*/false, queries));
    point.hit_gain = point.policies[0].hit_rate - point.policies[1].hit_rate;
    report.budgets.push_back(std::move(point));
  }
  report.constrained_budget_hit_gain = report.budgets.front().hit_gain;
  return report;
}

void PrintReport(const bench::BenchEnv& env, const TieringReport& report) {
  std::fprintf(stdout,
               "\n## tiering: phase-shift x%llu epochs, sel=%.0f%%, "
               "hit rate vs hot-view budget\n",
               static_cast<unsigned long long>(kEpochs),
               kSelectivity * 100.0);
  TablePrinter table(bench::WithScanConfigHeaders(
      {"max_views", "policy", "hit_rate", "accumulated_ms", "scanned_pages",
       "views_evicted", "views_demoted", "views_promoted"}));
  for (const BudgetPoint& point : report.budgets) {
    for (const PolicyRun& p : point.policies) {
      table.AddRow(bench::WithScanConfigCells(
          {TablePrinter::Fmt(point.max_views), p.policy,
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
  for (const BudgetPoint& point : report.budgets) {
    std::fprintf(stdout, "# tiering budget=%llu: hit gain %+.3f\n",
                 static_cast<unsigned long long>(point.max_views),
                 point.hit_gain);
  }
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
    w.Field("constrained_budget_hit_gain",
            report.constrained_budget_hit_gain, 4);
    w.Key("budgets");
    w.BeginArray();
    for (const BudgetPoint& point : report.budgets) {
      w.BeginObject();
      w.Field("max_views", point.max_views);
      w.Field("hit_gain", point.hit_gain, 4);
      w.Key("policies");
      w.BeginArray();
      for (const PolicyRun& p : point.policies) {
        w.BeginObject();
        w.Field("policy", p.policy);
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
      "micro_tiering: cold-view demote/promote vs destroy-evict", 4096);
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
