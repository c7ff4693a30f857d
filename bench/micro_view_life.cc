// micro_view_life — what each part of one view's life costs, and after how
// many hits its own arena pays for itself (BENCH_view_life.json, schema
// guarded by tools/check_bench.py like the rest of the BENCH_*.json family).
//
// Setup: one column per Figure 2 distribution (sine, linear, sparse,
// uniform; 65,536 pages by default), and on each 20 random views of 1% of
// the value domain, built lazily as the engine builds its candidates. The
// query of a view is the middle half of its range. Every view runs its
// life once at 1 and once at 4 scan threads:
//   - warm hit over base: ScanMany over its member page runs in the base
//     mapping, before any arena exists (best of VMSV_REPS, default 7);
//   - map: EnsureMaterialized, the arena and one mmap per file run;
//   - first hit: the first ScanMany through the arena, which faults its
//     page-table entries in;
//   - warm hit from the arena (best of VMSV_REPS);
//   - unmap: ReleaseArena and the arena's munmap.
// A hit is what the engine's AnswerFromViews runs: ScanMany with the
// column's zones. Every answer is checked against a full scan of the base
// column, and a mismatch aborts the run.
//
// payback_hits is the number of hits after which an arena repays its cost:
// (map + unmap + first hit - warm arena hit) / (warm base hit - warm arena
// hit), rounded up. A view whose arena hit is no faster never pays back
// (null). EXPERIMENTS.md "When a view earns its arena" derives
// AdaptiveConfig::materialize_after_hits from these numbers.
//
// Plain executable — no google-benchmark dependency, so it always builds
// and the smoke tier emits BENCH_view_life.json on every ctest run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_layer.h"
#include "core/virtual_view.h"
#include "exec/parallel_scanner.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;
constexpr double kSelectivity = 0.01;
constexpr uint64_t kViews = 20;
constexpr uint64_t kSeed = 1;
constexpr unsigned kThreadCounts[] = {1, 4};
constexpr DataDistribution kDistributions[] = {
    DataDistribution::kSine, DataDistribution::kLinear,
    DataDistribution::kSparse, DataDistribution::kUniform};
constexpr double kNever = std::numeric_limits<double>::infinity();

struct ViewLife {
  uint64_t pages = 0;
  uint64_t file_runs = 0;
  double map_ms = 0;
  double first_hit_ms = 0;
  double warm_arena_ms = 0;
  double warm_base_ms = 0;
  double unmap_ms = 0;
  double payback_hits = kNever;
};

struct Series {
  DataDistribution distribution = DataDistribution::kSine;
  unsigned threads = 1;
  std::vector<ViewLife> views;
};

/// Median of `values` (mean of the middle two for even counts); kNever as
/// soon as a middle value is kNever.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const double hi = values[n / 2];
  if (n % 2 == 1 || std::isinf(hi)) return hi;
  return (values[n / 2 - 1] + hi) / 2;
}

template <typename Field>
double MedianOf(const Series& s, Field field) {
  std::vector<double> values;
  for (const ViewLife& v : s.views) values.push_back(field(v));
  return Median(std::move(values));
}

void CheckSame(const PageScanResult& got, const PageScanResult& want,
               const char* what, const Series& s) {
  if (got.match_count != want.match_count || got.sum != want.sum) {
    std::fprintf(stderr, "[bench] %s answer differs from the full scan (%s, "
                 "%u threads)\n", what, DistributionName(s.distribution),
                 s.threads);
    std::abort();
  }
}

/// One view's life over `column`; see the header comment for the parts.
ViewLife RunView(const PhysicalColumn& column, const RangeQuery& range,
                 uint64_t reps, const Series& series) {
  ParallelScanOptions scan;
  scan.threads = series.threads;
  const RangeQuery q{range.lo + (range.hi - range.lo) / 4,
                     range.hi - (range.hi - range.lo) / 4};
  const std::vector<RangeQuery> hit{q};
  const PageScanResult oracle = ParallelScanner(scan).ScanPages(
      reinterpret_cast<const Value*>(column.base_arena().data()),
      column.num_pages(), q);

  ViewCreationOptions lazy;
  lazy.coalesce_runs = true;
  lazy.lazy_materialize = true;
  auto view_r = BuildViewByScan(column, range.lo, range.hi, lazy, nullptr,
                                scan);
  VMSV_BENCH_CHECK_OK(view_r.status());
  std::unique_ptr<VirtualView> view = std::move(view_r).ValueOrDie();

  ViewLife life;
  life.pages = view->num_pages();
  life.file_runs = view->num_page_runs();
  // Best of `reps` hits; each is checked.
  const auto best_hit = [&](const char* what) {
    double best = kNever;
    for (uint64_t r = 0; r < reps; ++r) {
      Stopwatch timer;
      const PageScanResult got = view->ScanMany(hit, column.zones(), scan)[0];
      best = std::min(best, timer.ElapsedMillis());
      CheckSame(got, oracle, what, series);
    }
    return best;
  };
  life.warm_base_ms = best_hit("hit over base");

  Stopwatch map_timer;
  VMSV_BENCH_CHECK_OK(view->EnsureMaterialized());
  life.map_ms = map_timer.ElapsedMillis();

  Stopwatch first_timer;
  const PageScanResult first = view->ScanMany(hit, column.zones(), scan)[0];
  life.first_hit_ms = first_timer.ElapsedMillis();
  CheckSame(first, oracle, "first arena hit", series);
  life.warm_arena_ms = best_hit("arena hit");

  Stopwatch unmap_timer;
  view->ReleaseArena().reset();
  life.unmap_ms = unmap_timer.ElapsedMillis();

  const double saving = life.warm_base_ms - life.warm_arena_ms;
  if (saving > 0) {
    life.payback_hits = std::ceil(
        (life.map_ms + life.unmap_ms + life.first_hit_ms - life.warm_arena_ms) /
        saving);
  }
  return life;
}

std::vector<Series> RunViewLife(const bench::BenchEnv& env) {
  std::vector<Series> out;
  const Value width = static_cast<Value>(kSelectivity * kMaxValue);
  for (const DataDistribution kind : kDistributions) {
    DistributionSpec spec;
    spec.kind = kind;
    spec.max_value = kMaxValue;
    spec.seed = 42;
    auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
    VMSV_BENCH_CHECK_OK(column_r.status());
    const std::unique_ptr<PhysicalColumn> column =
        std::move(column_r).ValueOrDie();
    Rng rng(kSeed);
    std::vector<RangeQuery> ranges;
    for (uint64_t i = 0; i < kViews; ++i) {
      const Value lo = rng.Below(kMaxValue - width);
      ranges.push_back(RangeQuery{lo, lo + width});
    }
    for (const unsigned threads : kThreadCounts) {
      Series series;
      series.distribution = kind;
      series.threads = threads;
      for (const RangeQuery& range : ranges) {
        series.views.push_back(RunView(*column, range, env.reps, series));
      }
      out.push_back(std::move(series));
    }
  }
  return out;
}

void PrintReport(const std::vector<Series>& all) {
  std::fprintf(stdout, "\n## view life: %llu random %.0f%% views per "
               "distribution, medians per view (ms)\n",
               static_cast<unsigned long long>(kViews), kSelectivity * 100);
  TablePrinter table({"distribution", "threads", "pages", "file_runs",
                      "map_ms", "first_hit_ms", "warm_arena_ms",
                      "warm_base_ms", "unmap_ms", "payback_hits"});
  for (const Series& s : all) {
    const double payback =
        MedianOf(s, [](const ViewLife& v) { return v.payback_hits; });
    table.AddRow(
        {DistributionName(s.distribution),
         TablePrinter::Fmt(uint64_t{s.threads}),
         TablePrinter::Fmt(MedianOf(
             s, [](const ViewLife& v) { return double(v.pages); }), 0),
         TablePrinter::Fmt(MedianOf(
             s, [](const ViewLife& v) { return double(v.file_runs); }), 0),
         TablePrinter::Fmt(
             MedianOf(s, [](const ViewLife& v) { return v.map_ms; }), 3),
         TablePrinter::Fmt(
             MedianOf(s, [](const ViewLife& v) { return v.first_hit_ms; }), 3),
         TablePrinter::Fmt(
             MedianOf(s, [](const ViewLife& v) { return v.warm_arena_ms; }), 3),
         TablePrinter::Fmt(
             MedianOf(s, [](const ViewLife& v) { return v.warm_base_ms; }), 3),
         TablePrinter::Fmt(
             MedianOf(s, [](const ViewLife& v) { return v.unmap_ms; }), 3),
         std::isinf(payback) ? std::string("never")
                             : TablePrinter::Fmt(payback, 0)});
  }
  table.PrintTable();
  std::fprintf(stdout, "\n# csv\n");
  table.PrintCsv();
  std::fprintf(stdout, "# materialize_after_hits default: %llu\n",
               static_cast<unsigned long long>(
                   AdaptiveConfig{}.materialize_after_hits));
}

/// A payback count, or null for a view whose arena never pays.
void WritePayback(bench::JsonWriter* w, const char* key, double hits) {
  w->Key(key);
  if (std::isinf(hits)) {
    w->Null();
  } else {
    w->Double(hits, 0);
  }
}

int WriteJson(const std::string& path, const bench::BenchEnv& env,
              const std::vector<Series>& all) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_view_life", env, kSeed);
    w.Key("view_life");
    w.BeginObject();
    w.Field("selectivity", kSelectivity, 2);
    w.Field("views_per_series", kViews);
    w.Field("materialize_after_hits_default",
            AdaptiveConfig{}.materialize_after_hits);
    w.Key("series");
    w.BeginArray();
    for (const Series& s : all) {
      w.BeginObject();
      w.Field("distribution", DistributionName(s.distribution));
      w.Field("threads", s.threads);
      w.FieldBool("answers_match", true);  // RunView aborts otherwise
      w.Field("median_map_ms",
              MedianOf(s, [](const ViewLife& v) { return v.map_ms; }));
      w.Field("median_first_hit_ms",
              MedianOf(s, [](const ViewLife& v) { return v.first_hit_ms; }));
      w.Field("median_warm_arena_ms",
              MedianOf(s, [](const ViewLife& v) { return v.warm_arena_ms; }));
      w.Field("median_warm_base_ms",
              MedianOf(s, [](const ViewLife& v) { return v.warm_base_ms; }));
      w.Field("median_unmap_ms",
              MedianOf(s, [](const ViewLife& v) { return v.unmap_ms; }));
      WritePayback(&w, "median_payback_hits",
                   MedianOf(s, [](const ViewLife& v) { return v.payback_hits; }));
      w.Key("views");
      w.BeginArray();
      for (const ViewLife& v : s.views) {
        w.BeginObject();
        w.Field("pages", v.pages);
        w.Field("file_runs", v.file_runs);
        w.Field("map_ms", v.map_ms);
        w.Field("first_hit_ms", v.first_hit_ms);
        w.Field("warm_arena_ms", v.warm_arena_ms);
        w.Field("warm_base_ms", v.warm_base_ms);
        w.Field("unmap_ms", v.unmap_ms);
        WritePayback(&w, "payback_hits", v.payback_hits);
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
  bench::BenchEnv env = bench::LoadBenchEnv(
      "micro_view_life: map, hit and unmap cost per view, arena vs base",
      65536);
  env.reps = GetEnvUint64("VMSV_REPS", 7);
  if (env.pages == 0 || env.reps == 0) {
    std::fprintf(stderr, "[bench] VMSV_PAGES and VMSV_REPS must be >= 1\n");
    std::abort();
  }
  const std::vector<Series> all = RunViewLife(env);
  PrintReport(all);
  return WriteJson(bench::BenchJsonPath("BENCH_view_life.json"), env, all);
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
