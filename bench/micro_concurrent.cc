// micro_concurrent — the concurrent-engine perf harness, third member of
// the BENCH_*.json perf-trajectory family (schema guarded by
// tools/check_bench.py, wired into ctest and CI like BENCH_scan.json and
// BENCH_lifecycle.json).
//
// Part A, client scaling: a warmed adaptive column (views built and
// materialized by one serial pass over a fixed set of distinct ranges,
// deliberately smaller than the view budget so the measured phase is pure
// reader path — no adaptation churn) is driven by a closed-loop
// multi-client runner at 1/2/4 clients, twice per client count:
//   - readers_only:    all clients issue queries; the engine's reader path
//                      (shared routing lock + epoch-pinned lock-free scans)
//                      is the only thing exercised;
//   - readers+writer:  same, plus one writer thread applying update bursts
//                      and flushes concurrently (exclusive-lock + epoch
//                      quiescence on every write — the honest cost of
//                      torn-read freedom).
// Per-query scans are pinned serial (the sharded scan pool would otherwise
// serialize the clients against each other), so client count is the only
// parallelism axis. The series starts after 3 s of untimed scans at the
// highest client count (bench::WarmUpScans), so its first point does not
// meet an idle host's core ramp alone. On a single-vCPU container the curve
// is flat by construction; run on a multi-core box to see it climb.
//
// Part B, batch vs individual: the same overlapping-query workload is
// answered once by individual Execute calls (which adapt along the way) and
// once by ExecuteBatch (ONE shared pass over the base column for all
// uncovered queries; per page, the column's min/max zone picks the queries
// that run the scan kernel). Reported: total pages scanned by each mode, the
// reduction factor, wall times, and a bit-identity verdict over every
// per-query (count, sum).
//
// Plain executable — no google-benchmark dependency, so it always builds
// and the smoke tier can emit BENCH_concurrent.json on every ctest run.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "util/histogram.h"
#include "util/macros.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;
constexpr double kSelectivity = 0.10;
constexpr uint64_t kWorkloadSeed = 11;
/// Distinct query ranges in the scaling workload. Below max_views so the
/// warmed pool covers every measured query: the scaling series measures the
/// concurrent READER path, not adaptation churn (Part B and the rw series
/// cover the mutating paths).
constexpr uint64_t kScalingRanges = 32;

std::unique_ptr<Table> MakeAdaptive(const bench::BenchEnv& env) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());
  AdaptiveConfig config;
  config.max_views = 64;
  auto adaptive_r =
      Db::Create(std::move(column_r).ValueOrDie(), DbOptions{config});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  return std::move(adaptive_r).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Part A: closed-loop client scaling

struct ScalingPoint {
  uint64_t clients = 0;
  double readers_qps = 0;
  double readers_wall_ms = 0;
  std::vector<double> readers_rep_qps;
  double rw_qps = 0;
  double rw_wall_ms = 0;
  uint64_t writer_updates = 0;
  uint64_t writer_flushes = 0;
};

struct ScalingReport {
  uint64_t queries = 0;
  std::vector<ScalingPoint> points;
};

/// One background writer applying update bursts until stopped. The new
/// values jitter around the row's current value (±0.1% of the domain), so
/// content changes — and the torn-write exclusion plus per-flush alignment
/// are fully exercised — while the data DISTRIBUTION stays stationary: the
/// warmed view pool keeps covering the query workload and the series stays
/// comparable across client counts.
class WriterLoop {
 public:
  explicit WriterLoop(Table* adaptive)
      : adaptive_(adaptive), worker_([this] { Run(); }) {}

  ~WriterLoop() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (worker_.joinable()) worker_.join();
  }

  uint64_t updates() const { return updates_; }
  uint64_t flushes() const { return flushes_; }

 private:
  void Run() {
    Rng rng(99);
    const uint64_t rows = adaptive_->num_rows();
    constexpr Value kJitter = kMaxValue / 1000;
    while (!stop_.load()) {
      for (int burst = 0; burst < 32 && !stop_.load(); ++burst) {
        const uint64_t row = rng.Below(rows);
        const Value old_value = adaptive_->shard(0)->column().Get(row);
        const Value lo = old_value > kJitter ? old_value - kJitter : 0;
        const Value hi =
            old_value < kMaxValue - kJitter ? old_value + kJitter : kMaxValue;
        VMSV_BENCH_CHECK_OK(adaptive_->Update(row, lo + rng.Below(hi - lo + 1)));
        ++updates_;
      }
      VMSV_BENCH_CHECK_OK(adaptive_->FlushUpdates().status());
      ++flushes_;
    }
  }

  Table* adaptive_;
  std::atomic<bool> stop_{false};
  uint64_t updates_ = 0;
  uint64_t flushes_ = 0;
  std::thread worker_;
};

ScalingReport RunScalingExperiment(const bench::BenchEnv& env,
                                   const std::vector<RangeQuery>& queries) {
  ScalingReport report;
  report.queries = queries.size();
  auto adaptive = MakeAdaptive(env);

  // Warm serially: build + materialize the view pool once so every client
  // count measures the same steady covered-reader state.
  RunnerOptions warm;
  warm.run_baseline = false;
  auto warmed = RunWorkload(adaptive.get(), queries, warm);
  VMSV_BENCH_CHECK_OK(warmed.status());

  const std::vector<uint64_t> client_counts = {1, 2, 4};
  // Untimed scans at the highest client count: the 1-client point runs
  // first and would otherwise meet the host's idle-core ramp alone.
  const PhysicalColumn& column = adaptive->shard(0)->column();
  bench::WarmUpScans(reinterpret_cast<const Value*>(column.base_arena().data()),
                     column.num_pages(), queries.front(),
                     static_cast<unsigned>(client_counts.back()));
  RunnerOptions options;
  options.run_baseline = false;
  options.warmup = false;

  // All readers-only series FIRST, against the identical warmed pool; the
  // writer series run after, each behind a fresh re-warm, so writer churn
  // never leaks into a readers-only measurement.
  for (const uint64_t clients : client_counts) {
    ScalingPoint point;
    point.clients = clients;
    options.num_clients = clients;
    SampleStats qps;
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      auto run = RunWorkload(adaptive.get(), queries, options);
      VMSV_BENCH_CHECK_OK(run.status());
      qps.Add(run->queries_per_sec);
      point.readers_rep_qps.push_back(run->queries_per_sec);
    }
    point.readers_qps = qps.Median();
    point.readers_wall_ms =
        static_cast<double>(queries.size()) / point.readers_qps * 1000.0;
    report.points.push_back(std::move(point));
  }

  for (size_t i = 0; i < client_counts.size(); ++i) {
    ScalingPoint& point = report.points[i];
    options.num_clients = client_counts[i];
    // Restore coverage: any membership drift the previous writer series
    // caused re-adapts in one serial pass.
    RunnerOptions serial = options;
    serial.num_clients = 1;
    auto rewarm = RunWorkload(adaptive.get(), queries, serial);
    VMSV_BENCH_CHECK_OK(rewarm.status());
    WriterLoop writer(adaptive.get());
    SampleStats rw_qps;
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      auto run = RunWorkload(adaptive.get(), queries, options);
      VMSV_BENCH_CHECK_OK(run.status());
      rw_qps.Add(run->queries_per_sec);
    }
    writer.Stop();
    point.rw_qps = rw_qps.Median();
    point.rw_wall_ms =
        static_cast<double>(queries.size()) / point.rw_qps * 1000.0;
    point.writer_updates = writer.updates();
    point.writer_flushes = writer.flushes();
  }
  return report;
}

// ---------------------------------------------------------------------------
// Part B: batch vs individual execution

struct BatchReport {
  uint64_t queries = 0;
  uint64_t overlap_groups = 0;
  uint64_t individual_scanned_pages = 0;
  uint64_t batch_scanned_pages = 0;
  double page_reduction = 0;
  bool identical_results = true;
  double individual_ms = 0;
  double batch_ms = 0;
  uint64_t view_answered = 0;
  uint64_t base_answered = 0;
};

BatchReport RunBatchExperiment(const bench::BenchEnv& env,
                               const std::vector<RangeQuery>& queries) {
  BatchReport report;
  report.queries = queries.size();

  auto individual = MakeAdaptive(env);
  std::vector<QueryExecution> individual_results;
  individual_results.reserve(queries.size());
  Stopwatch individual_timer;
  for (const RangeQuery& q : queries) {
    auto exec = individual->Execute(q);
    VMSV_BENCH_CHECK_OK(exec.status());
    individual_results.push_back(*exec);
  }
  report.individual_ms = individual_timer.ElapsedMillis();
  report.individual_scanned_pages = individual->Metrics().scanned_pages;

  auto batched = MakeAdaptive(env);
  Stopwatch batch_timer;
  auto batch = batched->ExecuteBatch(queries);
  VMSV_BENCH_CHECK_OK(batch.status());
  report.batch_ms = batch_timer.ElapsedMillis();
  report.batch_scanned_pages = batch->shared_scanned_pages;
  report.overlap_groups = batch->overlap_groups;
  report.view_answered = batch->view_answered;
  report.base_answered = batch->base_answered;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (batch->queries[i].match_count != individual_results[i].match_count ||
        batch->queries[i].sum != individual_results[i].sum) {
      report.identical_results = false;
      std::fprintf(stderr, "[bench] RESULT MISMATCH at batch query %zu\n", i);
    }
  }
  if (report.batch_scanned_pages > 0) {
    report.page_reduction =
        static_cast<double>(report.individual_scanned_pages) /
        static_cast<double>(report.batch_scanned_pages);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Reporting

void PrintReports(const bench::BenchEnv& env, const ScalingReport& scaling,
                  const BatchReport& batch) {
  std::fprintf(stdout,
               "\n## client scaling: closed loop, %llu queries/run, "
               "sel=%.0f%%\n",
               static_cast<unsigned long long>(scaling.queries),
               kSelectivity * 100.0);
  TablePrinter table(bench::WithScanConfigHeaders(
      {"clients", "readers_qps", "readers_wall_ms", "rw_qps", "rw_wall_ms",
       "writer_updates", "writer_flushes"}));
  for (const ScalingPoint& point : scaling.points) {
    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(point.clients),
         TablePrinter::Fmt(point.readers_qps, 1),
         TablePrinter::Fmt(point.readers_wall_ms, 2),
         TablePrinter::Fmt(point.rw_qps, 1),
         TablePrinter::Fmt(point.rw_wall_ms, 2),
         TablePrinter::Fmt(point.writer_updates),
         TablePrinter::Fmt(point.writer_flushes)},
        env));
  }
  table.PrintCsv();
  if (!scaling.points.empty()) {
    std::fprintf(stdout, "# scaling: readers-only %llu-client qps %.1f vs "
                         "1-client %.1f (%.2fx)\n",
                 static_cast<unsigned long long>(scaling.points.back().clients),
                 scaling.points.back().readers_qps,
                 scaling.points.front().readers_qps,
                 scaling.points.front().readers_qps > 0
                     ? scaling.points.back().readers_qps /
                           scaling.points.front().readers_qps
                     : 0.0);
  }

  std::fprintf(stdout, "\n## batch vs individual: %llu overlapping queries\n",
               static_cast<unsigned long long>(batch.queries));
  TablePrinter btable(bench::WithScanConfigHeaders(
      {"mode", "scanned_pages", "wall_ms", "overlap_groups", "view_answered",
       "base_answered", "identical"}));
  btable.AddRow(bench::WithScanConfigCells(
      {"individual", TablePrinter::Fmt(batch.individual_scanned_pages),
       TablePrinter::Fmt(batch.individual_ms, 2), "-", "-", "-", "-"},
      env));
  btable.AddRow(bench::WithScanConfigCells(
      {"batch", TablePrinter::Fmt(batch.batch_scanned_pages),
       TablePrinter::Fmt(batch.batch_ms, 2),
       TablePrinter::Fmt(batch.overlap_groups),
       TablePrinter::Fmt(batch.view_answered),
       TablePrinter::Fmt(batch.base_answered),
       batch.identical_results ? "yes" : "NO"},
      env));
  btable.PrintCsv();
  std::fprintf(stdout, "# batch scans %.2fx fewer pages than individual\n",
               batch.page_reduction);
}

int WriteJson(const std::string& path, const bench::BenchEnv& env,
              const ScalingReport& scaling, const BatchReport& batch) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_concurrent", env, /*seed=*/42);
    w.Field("queries", scaling.queries);
    w.Field("workload_seed", kWorkloadSeed);
    w.Field("selectivity", kSelectivity, 2);
    w.Field("distribution", "sine");
    w.Key("scaling");
    w.BeginObject();
    w.Key("client_counts");
    w.BeginArray();
    for (const ScalingPoint& p : scaling.points) {
      w.BeginObject();
      w.Field("clients", p.clients);
      w.Field("readers_only_qps", p.readers_qps, 3);
      w.Field("readers_only_wall_ms", p.readers_wall_ms);
      w.FieldArray("readers_rep_qps", p.readers_rep_qps, 3);
      w.Field("readers_writer_qps", p.rw_qps, 3);
      w.Field("readers_writer_wall_ms", p.rw_wall_ms);
      w.Field("writer_updates", p.writer_updates);
      w.Field("writer_flushes", p.writer_flushes);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("batch");
    w.BeginObject();
    w.Field("queries", batch.queries);
    w.Field("overlap_groups", batch.overlap_groups);
    w.Field("individual_scanned_pages", batch.individual_scanned_pages);
    w.Field("batch_scanned_pages", batch.batch_scanned_pages);
    w.Field("page_reduction", batch.page_reduction, 4);
    w.FieldBool("identical_results", batch.identical_results);
    w.Field("individual_ms", batch.individual_ms);
    w.Field("batch_ms", batch.batch_ms);
    w.Field("view_answered", batch.view_answered);
    w.Field("base_answered", batch.base_answered);
    w.EndObject();
    w.EndObject();
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stdout, "# wrote %s\n", path.c_str());
  return batch.identical_results ? 0 : 1;
}

int Main() {
  // Client count is the parallelism axis here: keep each individual scan
  // serial (unless the caller explicitly configured the cutoff), so clients
  // rather than intra-query scan tasks occupy the cores, and the points stay
  // comparable with the committed baseline.
  ::setenv("VMSV_SERIAL_CUTOFF", "1000000000", /*overwrite=*/0);
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "micro_concurrent: client scaling + shared-scan batch execution", 4096);
  const std::string json_path = bench::BenchJsonPath("BENCH_concurrent.json");

  QueryWorkloadSpec wspec;
  wspec.domain_hi = kMaxValue;
  wspec.seed = kWorkloadSeed;

  // Scaling: kScalingRanges distinct ranges tiled to the sequence length.
  wspec.num_queries = kScalingRanges;
  const auto distinct = MakeFixedSelectivityWorkload(wspec, kSelectivity);
  std::vector<RangeQuery> scaling_queries;
  scaling_queries.reserve(env.queries);
  for (uint64_t i = 0; i < env.queries; ++i) {
    scaling_queries.push_back(distinct[i % distinct.size()]);
  }

  // Batch: every query distinct (the overlap comes from 10% selectivity at
  // random positions), the shape individual adaptation pays full price for.
  wspec.num_queries = env.queries;
  const auto batch_queries = MakeFixedSelectivityWorkload(wspec, kSelectivity);

  const ScalingReport scaling = RunScalingExperiment(env, scaling_queries);
  const BatchReport batch = RunBatchExperiment(env, batch_queries);
  PrintReports(env, scaling, batch);
  return WriteJson(json_path, env, scaling, batch);
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
