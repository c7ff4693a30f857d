// micro_shard — shard-per-core scale-out throughput, sixth member of the
// BENCH_*.json perf-trajectory family (schema guarded by
// tools/check_bench.py, wired into ctest and CI like BENCH_concurrent.json).
//
// One logical sine-distributed column is served at 1/2/4/8 shards through
// vmsv::Db (kRange page partitioning), twice per shard count:
//   - readers_only:    a closed-loop multi-client runner (fixed client
//                      count, so SHARDS are the only axis) drives a warmed
//                      view pool; fan-out runs each shard's slice as one
//                      task on the shared ThreadPool, merged
//                      bit-identically;
//   - readers+writer:  same, plus one writer thread applying a fixed
//                      budget of update bursts and flushes concurrently
//                      (kWriterBursts per rep, the same at every shard
//                      count); a rep lasts until the readers and the
//                      writer both finished. Updates route to exactly one
//                      shard, so writer stalls stay per-shard instead of
//                      table-wide.
// Per-query scans are kept serial (the scan pool would otherwise hand every
// shard all the cores and blur the axis). Every shard count answers a fixed
// probe set and the harness cross-checks the answers against the 1-shard
// oracle — `identical_results` in the JSON is the bit-identity verdict the
// schema gate refuses to pass without.
//
// On a single-vCPU container the scaling curve is flat by construction;
// tools/check_bench.py only enforces the scale-out floor on multi-core
// hosts (parity is allowed at 1 vCPU).
//
// Plain executable — no google-benchmark dependency, so it always builds
// and the smoke tier can emit BENCH_shard.json on every ctest run.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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
/// Distinct ranges, below max_views, so the warmed pool covers every
/// measured query: the series measures shard fan-out, not adaptation.
constexpr uint64_t kScalingRanges = 32;
/// Closed-loop clients — FIXED across shard counts so the shard count is
/// the only parallelism axis.
constexpr uint64_t kClients = 4;
constexpr uint32_t kShardCounts[] = {1, 2, 4, 8};
/// The writer's budget per readers+writer rep: bursts of kBurstUpdates
/// updates, each followed by a flush. Fixed, so every shard count times the
/// same write work.
constexpr uint64_t kWriterBursts = 8;
constexpr uint64_t kBurstUpdates = 32;
constexpr size_t kProbeQueries = 8;

struct ShardPoint {
  uint32_t shards = 0;
  double readers_qps = 0;
  double readers_wall_ms = 0;
  std::vector<double> readers_rep_qps;
  double rw_qps = 0;
  double rw_wall_ms = 0;
  std::vector<double> rw_rep_qps;
  uint64_t writer_updates = 0;
  uint64_t writer_flushes = 0;
};

struct ShardReport {
  uint64_t queries = 0;
  bool identical_results = true;
  double best_multi_shard_speedup = 1.0;
  std::vector<ShardPoint> points;
};

/// The logical column's contents, materialized once so every shard count
/// (and the in-table fill path) serves IDENTICAL data.
std::vector<Value> MakeValues(const bench::BenchEnv& env) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, env.pages * kValuesPerPage);
  VMSV_BENCH_CHECK_OK(column_r.status());
  auto column = std::move(column_r).ValueOrDie();
  std::vector<Value> values(column->num_rows());
  for (uint64_t row = 0; row < values.size(); ++row) {
    values[row] = column->Get(row);
  }
  return values;
}

std::unique_ptr<Table> MakeSharded(const std::vector<Value>& values,
                                   uint32_t shards) {
  DbOptions options;
  options.column.max_views = 64;
  options.shards = shards;
  options.partition = PartitionKind::kRange;
  auto table_r = Db::Create(
      values.size(), [&values](uint64_t row) { return values[row]; }, options);
  VMSV_BENCH_CHECK_OK(table_r.status());
  return std::move(table_r).ValueOrDie();
}

/// Applies kWriterBursts update bursts, each followed by a flush, counting
/// them into `point`. New values are drawn from the column's own value
/// population, so the data DISTRIBUTION stays stationary and the warmed
/// pool keeps covering the query workload at every shard count.
void WriteBursts(Table* table, const std::vector<Value>& values, Rng* rng,
                 ShardPoint* point) {
  const uint64_t rows = table->num_rows();
  for (uint64_t burst = 0; burst < kWriterBursts; ++burst) {
    for (uint64_t i = 0; i < kBurstUpdates; ++i) {
      const uint64_t row = rng->Below(rows);
      VMSV_BENCH_CHECK_OK(table->Update(row, values[rng->Below(rows)]));
      ++point->writer_updates;
    }
    VMSV_BENCH_CHECK_OK(table->FlushUpdates().status());
    ++point->writer_flushes;
  }
}

ShardReport RunShardExperiment(const bench::BenchEnv& env,
                               const std::vector<Value>& values,
                               const std::vector<RangeQuery>& queries,
                               const std::vector<RangeQuery>& probes) {
  ShardReport report;
  report.queries = queries.size();

  // The 1-shard point doubles as the bit-identity oracle for the probes.
  std::vector<std::pair<uint64_t, Value>> reference;

  for (const uint32_t shards : kShardCounts) {
    auto table = MakeSharded(values, shards);
    ShardPoint point;
    point.shards = table->num_shards();

    // Warm serially: build + materialize the pool once so every shard
    // count measures the same steady covered-reader state.
    RunnerOptions warm;
    warm.run_baseline = false;
    VMSV_BENCH_CHECK_OK(RunWorkload(table.get(), queries, warm).status());

    RunnerOptions options;
    options.run_baseline = false;
    options.warmup = false;
    options.num_clients = kClients;

    SampleStats readers_qps;
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      auto run = RunWorkload(table.get(), queries, options);
      VMSV_BENCH_CHECK_OK(run.status());
      readers_qps.Add(run->queries_per_sec);
      point.readers_rep_qps.push_back(run->queries_per_sec);
    }
    point.readers_qps = readers_qps.Median();
    point.readers_wall_ms =
        static_cast<double>(queries.size()) / point.readers_qps * 1000.0;

    // Bit-identity probes against the 1-shard oracle (full scans: no view
    // state involved, pure merged-fan-out answers).
    for (size_t i = 0; i < probes.size(); ++i) {
      auto exec = table->ExecuteFullScan(probes[i]);
      VMSV_BENCH_CHECK_OK(exec.status());
      if (reference.size() <= i) {
        reference.emplace_back(exec->match_count, exec->sum);
      } else if (reference[i].first != exec->match_count ||
                 reference[i].second != exec->sum) {
        report.identical_results = false;
        std::fprintf(stderr,
                     "[bench] RESULT MISMATCH: %u shards, probe %zu\n",
                     point.shards, i);
      }
    }

    // Re-warm, then measure with one concurrent writer applying its fixed
    // budget: a rep's time runs until the readers and the writer are done.
    VMSV_BENCH_CHECK_OK(RunWorkload(table.get(), queries, warm).status());
    Rng writer_rng(99);
    SampleStats rw_qps;
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      const Stopwatch wall;
      std::thread writer(WriteBursts, table.get(), std::cref(values),
                         &writer_rng, &point);
      auto run = RunWorkload(table.get(), queries, options);
      writer.join();
      VMSV_BENCH_CHECK_OK(run.status());
      const double qps =
          static_cast<double>(queries.size()) / wall.ElapsedSeconds();
      rw_qps.Add(qps);
      point.rw_rep_qps.push_back(qps);
    }
    point.rw_qps = rw_qps.Median();
    point.rw_wall_ms =
        static_cast<double>(queries.size()) / point.rw_qps * 1000.0;
    report.points.push_back(std::move(point));
  }

  for (const ShardPoint& point : report.points) {
    if (point.shards > 1 && report.points.front().readers_qps > 0) {
      report.best_multi_shard_speedup =
          std::max(report.best_multi_shard_speedup,
                   point.readers_qps / report.points.front().readers_qps);
    }
  }
  return report;
}

void PrintReport(const bench::BenchEnv& env, const ShardReport& report) {
  std::fprintf(stdout,
               "\n## shard scale-out: closed loop, %llu queries/run, "
               "%llu clients, sel=%.0f%%\n",
               static_cast<unsigned long long>(report.queries),
               static_cast<unsigned long long>(kClients),
               kSelectivity * 100.0);
  TablePrinter table(bench::WithScanConfigHeaders(
      {"shards", "readers_qps", "readers_wall_ms", "rw_qps", "rw_wall_ms",
       "writer_updates", "writer_flushes"}));
  for (const ShardPoint& point : report.points) {
    table.AddRow(bench::WithScanConfigCells(
        {TablePrinter::Fmt(static_cast<uint64_t>(point.shards)),
         TablePrinter::Fmt(point.readers_qps, 1),
         TablePrinter::Fmt(point.readers_wall_ms, 2),
         TablePrinter::Fmt(point.rw_qps, 1),
         TablePrinter::Fmt(point.rw_wall_ms, 2),
         TablePrinter::Fmt(point.writer_updates),
         TablePrinter::Fmt(point.writer_flushes)},
        env));
  }
  table.PrintCsv();
  std::fprintf(stdout,
               "# shard scaling: best multi-shard readers qps %.2fx the "
               "1-shard point; results %s\n",
               report.best_multi_shard_speedup,
               report.identical_results ? "bit-identical" : "DIVERGED");
}

int WriteJson(const std::string& path, const bench::BenchEnv& env,
              const ShardReport& report) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_shard", env, /*seed=*/42);
    w.Field("queries", report.queries);
    w.Field("workload_seed", kWorkloadSeed);
    w.Field("selectivity", kSelectivity, 2);
    w.Field("distribution", "sine");
    w.Key("shard");
    w.BeginObject();
    w.Field("clients", kClients);
    w.Field("partition", "range");
    w.FieldBool("identical_results", report.identical_results);
    w.Field("best_multi_shard_speedup", report.best_multi_shard_speedup, 4);
    w.Key("shard_counts");
    w.BeginArray();
    for (const ShardPoint& p : report.points) {
      w.BeginObject();
      w.Field("shards", p.shards);
      w.Field("readers_only_qps", p.readers_qps, 3);
      w.Field("readers_only_wall_ms", p.readers_wall_ms);
      w.FieldArray("readers_rep_qps", p.readers_rep_qps, 3);
      w.Field("readers_writer_qps", p.rw_qps, 3);
      w.Field("readers_writer_wall_ms", p.rw_wall_ms);
      w.FieldArray("rw_rep_qps", p.rw_rep_qps, 3);
      w.Field("writer_updates", p.writer_updates);
      w.Field("writer_flushes", p.writer_flushes);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.EndObject();
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stdout, "# wrote %s\n", path.c_str());
  return report.identical_results ? 0 : 1;
}

int Main() {
  // Shard count is the parallelism axis: keep each per-shard scan serial
  // (unless the caller explicitly configured the cutoff) so N shards never
  // means N x threads cores, and the points stay comparable with the
  // committed baseline.
  ::setenv("VMSV_SERIAL_CUTOFF", "1000000000", /*overwrite=*/0);
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "micro_shard: shard-per-core scale-out via vmsv::Db", 4096);
  const std::string json_path = bench::BenchJsonPath("BENCH_shard.json");

  const std::vector<Value> values = MakeValues(env);

  QueryWorkloadSpec wspec;
  wspec.domain_hi = kMaxValue;
  wspec.seed = kWorkloadSeed;
  wspec.num_queries = kScalingRanges;
  const auto distinct = MakeFixedSelectivityWorkload(wspec, kSelectivity);
  std::vector<RangeQuery> queries;
  queries.reserve(env.queries);
  for (uint64_t i = 0; i < env.queries; ++i) {
    queries.push_back(distinct[i % distinct.size()]);
  }
  const std::vector<RangeQuery> probes(
      distinct.begin(),
      distinct.begin() + std::min(kProbeQueries, distinct.size()));

  // Untimed scans at the clients' thread count first: the 1-shard point
  // runs first and would otherwise meet the host's idle-core ramp alone.
  bench::WarmUpScans(values.data(), env.pages, probes.front(),
                     static_cast<unsigned>(kClients));
  const ShardReport report = RunShardExperiment(env, values, queries, probes);
  PrintReport(env, report);
  return WriteJson(json_path, env, report);
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
