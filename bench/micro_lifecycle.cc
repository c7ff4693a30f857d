// micro_lifecycle — the view-lifecycle perf harness, and the second member
// of the BENCH_*.json perf-trajectory family (schema guarded by
// tools/check_bench.py, wired into ctest and CI like BENCH_scan.json).
//
// Part A, compaction: a full-column view is fragmented by removing every
// other page (single-page live runs separated by PROT_NONE holes — the
// shape sustained update churn produces), scanned, then compacted with both
// strategies and scanned again:
//   - mremap:          page-table entries move with the runs; no refaults;
//   - remap_fallback:  fresh mmaps per run; the first scan pays refaults.
// Reported: fragmented vs compacted scan medians (scan_speedup), compaction
// cost, first-scan-after cost, and the arena's kernel VMA count before and
// after (the vm.max_map_count budget compaction returns).
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
#include "core/view_lifecycle.h"
#include "core/virtual_view.h"
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
// Part A: compaction

struct StrategyResult {
  const char* name;
  double compact_ms = 0;
  double first_scan_ms = 0;
  double median_ms = 0;
  std::vector<double> rep_ms;
  ViewCompactionStats stats;
  uint64_t vmas_before = 0;
  uint64_t vmas_after = 0;
  /// PMD-backed bytes of the compacted arena, from smaps (0 in the 4 KiB
  /// fallback — compaction-driven promotion found nothing to collapse).
  uint64_t huge_backed_bytes = 0;
};

struct CompactionReport {
  uint64_t view_pages = 0;
  uint64_t runs_before = 0;
  uint64_t holes_before = 0;
  /// Live process-wide VMA count at the fragmentation peak (the quantity
  /// vm.max_map_count bounds; 0 where /proc/self/maps is unavailable).
  uint64_t vma_count = 0;
  /// Huge flavor of the column file (the views inherit it).
  const char* huge_backing = "none";
  double fragmented_median_ms = 0;
  std::vector<double> fragmented_rep_ms;
  std::vector<StrategyResult> strategies;
  double scan_speedup = 0;
};

std::unique_ptr<VirtualView> MakeFragmentedView(const PhysicalColumn& column) {
  ViewCreationOptions options;
  options.coalesce_runs = true;
  auto view_r = BuildViewByScan(column, 0, kMaxValue, options);
  VMSV_BENCH_CHECK_OK(view_r.status());
  auto view = std::move(view_r).ValueOrDie();
  for (uint64_t page = 1; page < column.num_pages(); page += 2) {
    VMSV_BENCH_CHECK_OK(view->RemovePage(page));
  }
  return view;
}

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
    if (rep_ms != nullptr) rep_ms->push_back(ms);
  }
  return times.Median();
}

CompactionReport RunCompactionExperiment(const bench::BenchEnv& env) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kUniform;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());
  auto column = std::move(column_r).ValueOrDie();
  const RangeQuery q{0, kMaxValue / 2};

  CompactionReport report;
  report.huge_backing = HugeBackingName(column->file()->huge_backing());
  auto fragmented = MakeFragmentedView(*column);
  report.view_pages = fragmented->num_pages();
  report.runs_before = fragmented->num_slot_runs();
  report.holes_before = fragmented->hole_slots();

  // Warm-up faults every live page in (and the same physical pages back all
  // later views of this column, so the data itself stays hot throughout).
  const PageScanResult ref = fragmented->Scan(q);
  report.vma_count = CountProcessVmas();
  report.fragmented_median_ms =
      MedianScan(*fragmented, q, env.reps, &report.fragmented_rep_ms, ref);

  struct StrategySpec {
    const char* name;
    bool use_mremap;
  };
  for (const StrategySpec& strategy :
       {StrategySpec{"mremap", true}, StrategySpec{"remap_fallback", false}}) {
    // Each strategy compacts its own freshly-fragmented (and freshly
    // warmed) view, so refault effects are attributable.
    auto view = MakeFragmentedView(*column);
    const PageScanResult warm = view->Scan(q);
    VMSV_CHECK(warm.match_count == ref.match_count && warm.sum == ref.sum);

    StrategyResult result;
    result.name = strategy.name;
    result.vmas_before = ArenaVmaCount(*view);
    ViewCompactionOptions options;
    options.use_mremap = strategy.use_mremap;
    Stopwatch compact_timer;
    VMSV_BENCH_CHECK_OK(view->Compact(options, &result.stats));
    result.compact_ms = compact_timer.ElapsedMillis();
    result.vmas_after = ArenaVmaCount(*view);
    if (auto smaps = ParseSelfSmaps(); smaps.ok()) {
      result.huge_backed_bytes = ArenaHugeBackedBytes(*smaps, view->arena());
    }

    Stopwatch first_timer;
    const PageScanResult first = view->Scan(q);
    result.first_scan_ms = first_timer.ElapsedMillis();
    VMSV_CHECK(first.match_count == ref.match_count && first.sum == ref.sum);
    result.median_ms = MedianScan(*view, q, env.reps, &result.rep_ms, ref);
    report.strategies.push_back(std::move(result));
  }
  report.scan_speedup =
      report.fragmented_median_ms / report.strategies.front().median_ms;
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

void PrintReports(const bench::BenchEnv& env, const CompactionReport& comp,
                  const EvictionReport& evict) {
  std::fprintf(stdout, "\n## compaction: fragmented vs compacted scans\n");
  TablePrinter table(bench::WithScanConfigHeaders(
      {"layout", "strategy", "view_pages", "slot_runs", "holes", "vmas",
       "compact_ms", "first_scan_ms", "median_scan_ms"}));
  table.AddRow(bench::WithScanConfigCells(
      {"fragmented", "-", TablePrinter::Fmt(comp.view_pages),
       TablePrinter::Fmt(comp.runs_before), TablePrinter::Fmt(comp.holes_before),
       TablePrinter::Fmt(comp.strategies.empty()
                             ? uint64_t{0}
                             : comp.strategies.front().vmas_before),
       "-", "-", TablePrinter::Fmt(comp.fragmented_median_ms, 3)},
      env));
  for (const StrategyResult& s : comp.strategies) {
    table.AddRow(bench::WithScanConfigCells(
        {"compacted", s.name, TablePrinter::Fmt(comp.view_pages),
         TablePrinter::Fmt(s.stats.slot_runs_after),
         TablePrinter::Fmt(uint64_t{0}), TablePrinter::Fmt(s.vmas_after),
         TablePrinter::Fmt(s.compact_ms, 3),
         TablePrinter::Fmt(s.first_scan_ms, 3),
         TablePrinter::Fmt(s.median_ms, 3)},
        env));
  }
  table.PrintCsv();
  std::fprintf(stdout,
               "# compaction: %llu runs -> 1, scan speedup %.2fx "
               "(mremap moves=%llu, fallback moves=%llu)\n",
               static_cast<unsigned long long>(comp.runs_before),
               comp.scan_speedup,
               static_cast<unsigned long long>(
                   comp.strategies.front().stats.mremap_moves),
               static_cast<unsigned long long>(
                   comp.strategies.back().stats.remap_moves));

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
              const CompactionReport& comp, const EvictionReport& evict) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_lifecycle", env, /*seed=*/42);
    w.FieldBool("mremap_supported", VirtualArena::MremapSupported());
    w.Key("compaction");
    w.BeginObject();
    w.Field("view_pages", comp.view_pages);
    w.Field("runs_before", comp.runs_before);
    w.Field("holes_before", comp.holes_before);
    w.Field("vma_count", comp.vma_count);
    w.Field("huge_backing", comp.huge_backing);
    w.Field("fragmented_median_ms", comp.fragmented_median_ms);
    w.FieldArray("fragmented_rep_ms", comp.fragmented_rep_ms);
    w.Field("scan_speedup", comp.scan_speedup, 4);
    w.Key("strategies");
    w.BeginArray();
    for (const StrategyResult& s : comp.strategies) {
      w.BeginObject();
      w.Field("strategy", s.name);
      w.Field("compact_ms", s.compact_ms);
      w.Field("first_scan_ms", s.first_scan_ms);
      w.Field("median_ms", s.median_ms);
      w.Field("mremap_moves", s.stats.mremap_moves);
      w.Field("remap_moves", s.stats.remap_moves);
      w.Field("runs_after", s.stats.slot_runs_after);
      w.Field("file_runs_after", s.stats.file_runs_after);
      w.Field("arena_vmas_before", s.vmas_before);
      w.Field("arena_vmas_after", s.vmas_after);
      w.Field("huge_units_promoted", s.stats.huge_units_promoted);
      w.Field("huge_promote_failures", s.stats.huge_promote_failures);
      w.Field("huge_backed_bytes", s.huge_backed_bytes);
      w.FieldArray("rep_ms", s.rep_ms);
      w.EndObject();
    }
    w.EndArray();
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
      "micro_lifecycle: view compaction + eviction-policy ablation", 16384);
  const std::string json_path = bench::BenchJsonPath("BENCH_lifecycle.json");
  const CompactionReport comp = RunCompactionExperiment(env);
  const EvictionReport evict = RunEvictionExperiment(env);
  PrintReports(env, comp, evict);
  return WriteJson(json_path, env, comp, evict);
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
