// micro_lifecycle — the view-lifecycle perf harness, and the second member
// of the BENCH_*.json perf-trajectory family (schema guarded by
// tools/check_bench.py, wired into ctest and CI like BENCH_scan.json).
//
// Part A, churn: a full-column view with an arena loses every other page
// in place — each removal a swap-remove, the tail page rewired into the
// gap, so the arena stays dense — and is scanned. Its arena is then
// released, mapped again from the membership bitmap (one mmap per page run,
// ascending), and scanned again. Reported: the removal and remap costs, the
// first scan after the remap, both scan medians, and the arena's kernel VMA
// count after the churn and after the remap (the vm.max_map_count budget a
// churned arena spends). Each scan series starts after 3 s of untimed
// base-column scans (bench::WarmUpScans).
//
// Part B, eviction ablation: the Figure-5 multi-view workload (sine
// distribution, fixed 10% selectivity, workload seed 11) under a view
// budget tighter than the working set, once per eviction policy
// (drop-newest vs cost-aware) in two scenarios:
//   - fig5_static:       uniform query positions (freezing the pool is
//                        near-optimal here — cost-aware must hold parity,
//                        which the hit-evidence weight + eviction margin
//                        are responsible for);
//   - fig5_phase_shift:  the same generator with a drifting working set
//                        (positions move to a new domain slice mid-sequence;
//                        a frozen pool full-scans the rest of the run while
//                        cost-aware eviction follows the drift).
// Reported per scenario/policy: accumulated adaptive time, pages scanned,
// and the eviction/drop counters.
//
// Plain executable — no google-benchmark dependency, so it always builds
// and the smoke tier can emit BENCH_lifecycle.json on every ctest run.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "core/view_pool.h"
#include "core/virtual_view.h"
#include "exec/scan_kernels.h"
#include "rewiring/maps_parser.h"
#include "util/histogram.h"
#include "util/macros.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;
constexpr size_t kEvictionMaxViews = 6;
constexpr double kEvictionSelectivity = 0.10;

uint64_t ArenaVmaCount(const VirtualView& view) {
  auto entries = ParseSelfMaps();
  if (!entries.ok()) return 0;
  return CountArenaFileMappings(*entries, view.arena());
}

// ---------------------------------------------------------------------------
// Part A: churn

struct ChurnReport {
  /// Member pages after the churn (every other column page).
  uint64_t view_pages = 0;
  double remove_ms = 0;
  double churned_median_ms = 0;
  std::vector<double> churned_rep_ms;
  uint64_t churned_vmas = 0;
  double remap_ms = 0;
  double first_scan_ms = 0;
  double remapped_median_ms = 0;
  std::vector<double> remapped_rep_ms;
  uint64_t remapped_vmas = 0;
};

double MedianScan(const VirtualView& view, const RangeQuery& q, uint64_t reps,
                  std::vector<double>* rep_ms, const PageScanResult& ref) {
  SampleStats times;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    const PageScanResult r = view.Scan(q);
    const double ms = timer.ElapsedMillis();
    if (r.match_count != ref.match_count || r.sum != ref.sum) {
      std::fprintf(stderr, "[bench] RESULT MISMATCH in lifecycle scan\n");
      std::abort();
    }
    times.Add(ms);
    rep_ms->push_back(ms);
  }
  return times.Median();
}

ChurnReport RunChurnExperiment(const bench::BenchEnv& env) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kUniform;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());
  auto column = std::move(column_r).ValueOrDie();
  const RangeQuery q{0, kMaxValue / 2};

  ViewCreationOptions options;
  options.coalesce_runs = true;
  auto view_r = BuildViewByScan(*column, 0, kMaxValue, options);
  VMSV_BENCH_CHECK_OK(view_r.status());
  std::unique_ptr<VirtualView> view = std::move(view_r).ValueOrDie();

  // The single-threaded steps before each scan series (the removals, the
  // maps parse, the remap) idle the other cores long enough for the host's
  // ramp to restart, so each series gets its own warm-up.
  const Value* base =
      reinterpret_cast<const Value*>(column->base_arena().data());
  const auto warm_up = [&] {
    bench::WarmUpScans(base, column->num_pages(), q,
                       static_cast<unsigned>(env.threads));
  };
  ChurnReport report;
  Stopwatch remove_timer;
  for (uint64_t page = 1; page < column->num_pages(); page += 2) {
    VMSV_BENCH_CHECK_OK(view->RemovePage(page));
  }
  report.remove_ms = remove_timer.ElapsedMillis();
  report.view_pages = view->num_pages();

  // The oracle reads the remaining pages over the base mapping.
  PageScanResult ref;
  view->ForEachPage([&](uint64_t page) {
    ref.Merge(ScanPage(column->PageData(page), kValuesPerPage, q));
  });
  // Warm-up: the churned arena's rewired slots fault in here.
  const PageScanResult warm = view->Scan(q);
  VMSV_CHECK(warm.match_count == ref.match_count && warm.sum == ref.sum);
  report.churned_vmas = ArenaVmaCount(*view);
  warm_up();
  report.churned_median_ms =
      MedianScan(*view, q, env.reps, &report.churned_rep_ms, ref);

  // Release (the retired arena unmaps here, outside the timings) and map
  // again from the bitmap.
  view->ReleaseArena();
  Stopwatch remap_timer;
  VMSV_BENCH_CHECK_OK(view->EnsureMaterialized());
  report.remap_ms = remap_timer.ElapsedMillis();
  Stopwatch first_timer;
  const PageScanResult first = view->Scan(q);
  report.first_scan_ms = first_timer.ElapsedMillis();
  VMSV_CHECK(first.match_count == ref.match_count && first.sum == ref.sum);
  report.remapped_vmas = ArenaVmaCount(*view);
  warm_up();
  report.remapped_median_ms =
      MedianScan(*view, q, env.reps, &report.remapped_rep_ms, ref);
  return report;
}

// ---------------------------------------------------------------------------
// Part B: eviction ablation (Figure-5 workload under a tight budget)

struct PolicyResult {
  EvictionPolicy policy;
  double accumulated_ms = 0;
  uint64_t scanned_pages = 0;
  uint64_t views_created = 0;
  uint64_t views_evicted = 0;
  uint64_t candidates_dropped = 0;
  double pages_saved_ratio = 0;
};

struct EvictionScenario {
  const char* name = "";
  uint64_t phases = 1;  // 1 = static fig5, >1 = drifting working set
  uint64_t queries = 0;
  std::vector<PolicyResult> policies;
  double speedup_vs_drop_newest = 0;
};

struct EvictionReport {
  std::vector<EvictionScenario> scenarios;
};

EvictionReport RunEvictionExperiment(const bench::BenchEnv& env) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;

  QueryWorkloadSpec wspec;
  wspec.num_queries = env.queries;
  wspec.domain_hi = kMaxValue;
  wspec.seed = 11;  // the Figure-5 workload seed

  EvictionReport report;
  for (const auto& [name, phases] :
       {std::pair<const char*, uint64_t>{"fig5_static", 1},
        std::pair<const char*, uint64_t>{"fig5_phase_shift", 4}}) {
    EvictionScenario scenario;
    scenario.name = name;
    scenario.phases = phases;
    const auto queries =
        MakePhaseShiftWorkload(wspec, kEvictionSelectivity, scenario.phases);
    scenario.queries = queries.size();
    for (const EvictionPolicy policy :
         {EvictionPolicy::kDropNewest, EvictionPolicy::kCostAware}) {
      auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
      VMSV_BENCH_CHECK_OK(column_r.status());
      AdaptiveConfig config;
      config.mode = QueryMode::kMultiView;
      config.max_views = kEvictionMaxViews;
      config.lifecycle.eviction_policy = policy;
      // Evictions pay munmap and re-materialization, as at the baseline.
      config.materialize_after_hits = 1;
      auto adaptive_r =
          Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
      VMSV_BENCH_CHECK_OK(adaptive_r.status());
      auto adaptive = std::move(adaptive_r).ValueOrDie();

      RunnerOptions options;
      options.run_baseline = false;
      options.verify_results = false;
      auto run_r = RunWorkload(adaptive.get(), queries, options);
      VMSV_BENCH_CHECK_OK(run_r.status());

      PolicyResult result;
      result.policy = policy;
      result.accumulated_ms = run_r->adaptive_total_ms;
      const CumulativeStats m = adaptive->Metrics();
      result.scanned_pages = m.scanned_pages;
      result.views_created = m.views_created;
      result.views_evicted = m.views_evicted;
      result.candidates_dropped = m.candidates_dropped;
      result.pages_saved_ratio = m.PagesSavedRatio();
      scenario.policies.push_back(result);
    }
    scenario.speedup_vs_drop_newest = scenario.policies[0].accumulated_ms /
                                      scenario.policies[1].accumulated_ms;
    report.scenarios.push_back(std::move(scenario));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Reporting

void PrintReports(const bench::BenchEnv& env, const ChurnReport& churn,
                  const EvictionReport& evict) {
  std::fprintf(stdout, "\n## churn: swap-removed vs remapped arena scans\n");
  TablePrinter table(bench::WithScanConfigHeaders(
      {"arena", "view_pages", "vmas", "build_ms", "first_scan_ms",
       "median_scan_ms"}));
  table.AddRow(bench::WithScanConfigCells(
      {"churned", TablePrinter::Fmt(churn.view_pages),
       TablePrinter::Fmt(churn.churned_vmas),
       TablePrinter::Fmt(churn.remove_ms, 3), "-",
       TablePrinter::Fmt(churn.churned_median_ms, 3)},
      env));
  table.AddRow(bench::WithScanConfigCells(
      {"remapped", TablePrinter::Fmt(churn.view_pages),
       TablePrinter::Fmt(churn.remapped_vmas),
       TablePrinter::Fmt(churn.remap_ms, 3),
       TablePrinter::Fmt(churn.first_scan_ms, 3),
       TablePrinter::Fmt(churn.remapped_median_ms, 3)},
      env));
  table.PrintCsv();
  std::fprintf(stdout,
               "# churn: %llu pages, remove %.1f ms, churned scan %.3f ms "
               "(%llu VMAs); remap %.1f ms, remapped scan %.3f ms "
               "(%llu VMAs)\n",
               static_cast<unsigned long long>(churn.view_pages),
               churn.remove_ms, churn.churned_median_ms,
               static_cast<unsigned long long>(churn.churned_vmas),
               churn.remap_ms, churn.remapped_median_ms,
               static_cast<unsigned long long>(churn.remapped_vmas));

  std::fprintf(stdout, "\n## eviction: fig5 workload, max_views=%zu, sel=%.0f%%\n",
               kEvictionMaxViews, kEvictionSelectivity * 100.0);
  TablePrinter etable(bench::WithScanConfigHeaders(
      {"scenario", "policy", "accumulated_ms", "scanned_pages",
       "views_created", "views_evicted", "candidates_dropped", "pages_saved"}));
  for (const EvictionScenario& scenario : evict.scenarios) {
    for (const PolicyResult& p : scenario.policies) {
      etable.AddRow(bench::WithScanConfigCells(
          {scenario.name, EvictionPolicyName(p.policy),
           TablePrinter::Fmt(p.accumulated_ms, 2),
           TablePrinter::Fmt(p.scanned_pages),
           TablePrinter::Fmt(p.views_created),
           TablePrinter::Fmt(p.views_evicted),
           TablePrinter::Fmt(p.candidates_dropped),
           TablePrinter::Fmt(p.pages_saved_ratio, 3)},
          env));
    }
  }
  etable.PrintCsv();
  for (const EvictionScenario& scenario : evict.scenarios) {
    std::fprintf(stdout, "# eviction %s: cost_aware %.2fx vs drop_newest\n",
                 scenario.name, scenario.speedup_vs_drop_newest);
  }
}

int WriteJson(const std::string& path, const bench::BenchEnv& env,
              const ChurnReport& churn, const EvictionReport& evict) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_lifecycle", env, /*seed=*/42);
    w.Key("churn");
    w.BeginObject();
    w.Field("view_pages", churn.view_pages);
    w.Field("remove_ms", churn.remove_ms);
    w.Field("churned_median_ms", churn.churned_median_ms);
    w.FieldArray("churned_rep_ms", churn.churned_rep_ms);
    w.Field("churned_vmas", churn.churned_vmas);
    w.Field("remap_ms", churn.remap_ms);
    w.Field("first_scan_ms", churn.first_scan_ms);
    w.Field("remapped_median_ms", churn.remapped_median_ms);
    w.FieldArray("remapped_rep_ms", churn.remapped_rep_ms);
    w.Field("remapped_vmas", churn.remapped_vmas);
    w.EndObject();
    w.Key("eviction");
    w.BeginObject();
    w.Field("max_views", static_cast<uint64_t>(kEvictionMaxViews));
    w.Field("selectivity", kEvictionSelectivity, 2);
    w.Field("distribution", "sine");
    w.Field("workload_seed", 11);
    w.Key("scenarios");
    w.BeginArray();
    for (const EvictionScenario& scenario : evict.scenarios) {
      w.BeginObject();
      w.Field("scenario", scenario.name);
      w.Field("phases", scenario.phases);
      w.Field("queries", scenario.queries);
      w.Field("speedup_vs_drop_newest", scenario.speedup_vs_drop_newest, 4);
      w.Key("policies");
      w.BeginArray();
      for (const PolicyResult& p : scenario.policies) {
        w.BeginObject();
        w.Field("policy", EvictionPolicyName(p.policy));
        w.Field("accumulated_ms", p.accumulated_ms);
        w.Field("scanned_pages", p.scanned_pages);
        w.Field("views_created", p.views_created);
        w.Field("views_evicted", p.views_evicted);
        w.Field("candidates_dropped", p.candidates_dropped);
        w.Field("pages_saved_ratio", p.pages_saved_ratio);
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
      "micro_lifecycle: view churn + eviction-policy ablation", 16384);
  const std::string json_path = bench::BenchJsonPath("BENCH_lifecycle.json");
  const ChurnReport churn = RunChurnExperiment(env);
  const EvictionReport evict = RunEvictionExperiment(env);
  PrintReports(env, churn, evict);
  return WriteJson(json_path, env, churn, evict);
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
