// micro_persistence — the durable-backend perf harness, fourth member of
// the BENCH_*.json perf-trajectory family (schema guarded by
// tools/check_bench.py, wired into ctest and CI like its siblings).
//
// Setup: a durable column (file-backed, journaled, manifested) is created
// under VMSV_PERSIST_DIR, populated with the sine distribution, adapted to a
// covered query workload, updated, and checkpointed — the state a storage
// engine would restart into.
//
// Part A, restart modes (the tentpole measurement): the same query sequence
// is answered three ways, reps times each —
//   - rebuild:    attach to the data file with NO manifest knowledge; every
//                 view is rebuilt by adaptation full scans (what restart
//                 cost before durability existed);
//   - cold_open:  Db::Open (manifest read + journal replay) plus
//                 the first pass, which lazily re-materializes each restored
//                 view on first use;
//   - warm:       steady-state pass on an already-open, materialized column.
// Every mode's results are verified bit-identical to the pre-restart
// reference before any timing is reported.
//
// Part B, fsync-policy sweep: update bursts + FlushUpdates under each
// FlushPolicy (none / async / sync), timing the full durable flush path
// (journal fsync -> alignment -> data writeback -> manifest -> journal
// reset) so the cost of each durability level is a committed number.
//
// Part C, group-commit sweep: power-loss-durable update streams under
// per-update fsync vs group commit (batch 8 / 32), reporting wall time AND
// the exact fsync count per rep, measured through FaultInjectingIo used as
// a pure syscall counter. The fsync counts are deterministic (the LSN-
// boundary trigger guarantees ceil(N/batch)), so check_bench.py gates on
// them instead of machine-dependent wall time.
//
// Part D, pool edits: a fresh durable column under kSync adapts to random
// 1% ranges, and each miss whose candidate is inserted is one durable pool
// edit. Only the edit's manifest I/O is timed (every StorageIo call whose
// description names the manifest), edit by edit; the median and IQR are
// reported.
//
// Disk writes are what Parts B-D time, so the JSON names the filesystem
// under VMSV_PERSIST_DIR (`persist_fs`, from its statfs magic), and the
// baseline gate only compares runs on the same one.
//
// Plain executable — no google-benchmark dependency, so it always builds
// and the smoke tier can emit BENCH_persistence.json on every ctest run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <sys/vfs.h>

#include "bench_common.h"
#include "vmsv.h"
#include "storage/storage_io.h"
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
constexpr double kSelectivity = 0.10;
constexpr uint64_t kWorkloadSeed = 11;
/// Distinct ranges, tiled to the sequence length; kept below max_views so
/// the warmed pool covers every query and restart cost — not adaptation
/// churn — is what each mode measures.
constexpr uint64_t kMaxDistinctRanges = 32;
constexpr uint64_t kUpdatesPerFlush = 128;
constexpr uint64_t kGroupCommitUpdates = 256;
/// Pool edits Part D times, and the random 1% ranges it may try for them.
constexpr uint64_t kPoolEdits = 64;
constexpr uint64_t kPoolEditQueries = 8 * kPoolEdits;
constexpr double kPoolEditSelectivity = 0.01;

struct RestartReport {
  uint64_t views_persisted = 0;
  bool identical_results = true;
  std::vector<double> rebuild_rep_ms;
  std::vector<double> cold_open_rep_ms;
  std::vector<double> open_recover_rep_ms;
  std::vector<double> warm_rep_ms;
  double rebuild_median_ms = 0;
  double cold_open_median_ms = 0;
  double open_recover_median_ms = 0;
  double warm_median_ms = 0;
  double cold_vs_rebuild_speedup = 0;
};

struct PolicyResult {
  FlushPolicy policy;
  std::vector<double> rep_ms;
  double flush_median_ms = 0;
};

struct FsyncReport {
  uint64_t updates_per_flush = kUpdatesPerFlush;
  std::vector<PolicyResult> policies;
};

struct GroupCommitResult {
  const char* mode;
  uint64_t batch = 0;  // 0 = fdatasync on every update
  uint64_t fsyncs_per_rep = 0;
  std::vector<double> rep_ms;
  double wall_median_ms = 0;
  double per_update_us = 0;
};

struct GroupCommitReport {
  uint64_t updates_per_rep = kGroupCommitUpdates;
  std::vector<GroupCommitResult> modes;
};

struct PoolEditReport {
  uint64_t edits = 0;
  std::vector<double> edit_us;
  double median_us = 0;
  double iqr_us = 0;
};

/// The filesystem under `dir`, named from its statfs magic.
std::string FilesystemName(const std::string& dir) {
  struct statfs st;
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794C7630: return "overlayfs";
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
  return hex;
}

/// Real I/O that times the manifest's share: every call whose description
/// names the manifest adds its wall time to a running total.
class ManifestTimingIo : public StorageIo {
 public:
  /// The manifest time since the last call, in microseconds.
  double TakeMicros() {
    const double us = ns_ / 1e3;
    ns_ = 0;
    return us;
  }

  Status Write(int fd, const void* data, size_t len,
               const char* what) override {
    return Timed(what, [&] { return real_->Write(fd, data, len, what); });
  }
  Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                const char* what) override {
    return Timed(what,
                 [&] { return real_->Pwrite(fd, data, len, offset, what); });
  }
  Status Fsync(int fd, const char* what) override {
    return Timed(what, [&] { return real_->Fsync(fd, what); });
  }
  Status FsyncDir(const std::string& dir) override {
    return real_->FsyncDir(dir);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return real_->Rename(from, to);
  }
  Status Truncate(int fd, uint64_t len, const char* what) override {
    return Timed(what, [&] { return real_->Truncate(fd, len, what); });
  }
  Status SyncFileRange(int fd, const char* what) override {
    return real_->SyncFileRange(fd, what);
  }

 private:
  template <typename Op>
  Status Timed(const char* what, Op op) {
    if (std::strstr(what, "manifest") == nullptr) return op();
    Stopwatch timer;
    Status st = op();
    ns_ += timer.ElapsedNanos();
    return st;
  }

  StorageIo* const real_ = RealStorageIo();
  double ns_ = 0;
};

struct QueryResult {
  uint64_t match_count;
  Value sum;
  bool operator==(const QueryResult& o) const {
    return match_count == o.match_count && sum == o.sum;
  }
  bool operator!=(const QueryResult& o) const { return !(*this == o); }
};

std::vector<RangeQuery> MakeQueries(const bench::BenchEnv& env) {
  QueryWorkloadSpec wspec;
  wspec.domain_hi = kMaxValue;
  wspec.seed = kWorkloadSeed;
  wspec.num_queries = std::min(env.queries, kMaxDistinctRanges);
  const auto distinct = MakeFixedSelectivityWorkload(wspec, kSelectivity);
  std::vector<RangeQuery> queries;
  queries.reserve(env.queries);
  for (uint64_t i = 0; i < env.queries; ++i) {
    queries.push_back(distinct[i % distinct.size()]);
  }
  return queries;
}

/// Runs the sequence, returning per-query (count, sum); aborts on error.
std::vector<QueryResult> ExecuteAll(Table* adaptive,
                                    const std::vector<RangeQuery>& queries) {
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    auto exec = adaptive->Execute(q);
    VMSV_BENCH_CHECK_OK(exec.status());
    out.push_back(QueryResult{exec->match_count, exec->sum});
  }
  return out;
}

AdaptiveConfig BenchConfig() {
  AdaptiveConfig config;
  config.max_views = 64;
  return config;
}

/// Creates + populates + adapts + updates + checkpoints the durable column,
/// returning the reference results every restart mode must reproduce.
std::vector<QueryResult> SetUpDurableColumn(
    const bench::BenchEnv& env, const std::string& dir,
    const std::vector<RangeQuery>& queries) {
  std::filesystem::remove_all(dir);
  auto adaptive_r = Db::CreateDurable(
      dir, env.pages * kValuesPerPage, DbOptions{BenchConfig()});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  auto adaptive = std::move(adaptive_r).ValueOrDie();

  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  FillColumn(spec, adaptive->shard(0)->mutable_column());

  ExecuteAll(adaptive.get(), queries);  // adapt: build + materialize views
  // A batch of updates so the journal/alignment path is part of the
  // persisted state (checkpoint flushes + realigns + snapshots).
  for (uint64_t i = 0; i < kUpdatesPerFlush; ++i) {
    const uint64_t row = (i * 7919) % adaptive->num_rows();
    VMSV_BENCH_CHECK_OK(
        adaptive->Update(row, (row * 104729 + i) % kMaxValue));
  }
  const auto reference = ExecuteAll(adaptive.get(), queries);
  VMSV_BENCH_CHECK_OK(adaptive->Checkpoint());
  return reference;
}

RestartReport RunRestartExperiment(const bench::BenchEnv& env,
                                   const std::string& dir,
                                   const std::vector<RangeQuery>& queries,
                                   const std::vector<QueryResult>& reference) {
  RestartReport report;
  auto check = [&](const std::vector<QueryResult>& got, const char* mode) {
    if (got != reference) {
      report.identical_results = false;
      std::fprintf(stderr, "[bench] RESULT MISMATCH after %s restart\n", mode);
    }
  };

  SampleStats rebuild, cold, recover, warm;
  for (uint64_t rep = 0; rep < env.reps; ++rep) {
    // Rebuild-from-scratch: the data file without its manifest knowledge.
    {
      auto file_r = PhysicalMemoryFile::OpenAt(dir + "/column.dat", env.pages);
      VMSV_BENCH_CHECK_OK(file_r.status());
      auto file =
          std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
      auto column_r =
          PhysicalColumn::Attach(file, env.pages * kValuesPerPage);
      VMSV_BENCH_CHECK_OK(column_r.status());
      auto adaptive_r = Db::Create(
          std::move(column_r).ValueOrDie(), DbOptions{BenchConfig()});
      VMSV_BENCH_CHECK_OK(adaptive_r.status());
      Stopwatch timer;
      const auto got = ExecuteAll(adaptive_r->get(), queries);
      const double ms = timer.ElapsedMillis();
      rebuild.Add(ms);
      report.rebuild_rep_ms.push_back(ms);
      check(got, "rebuild");
    }
    // Cold open: manifest + journal recovery, then the first (lazily
    // re-materializing) pass.
    {
      Stopwatch timer;
      auto adaptive_r = Db::Open(dir, DbOptions{BenchConfig()});
      VMSV_BENCH_CHECK_OK(adaptive_r.status());
      const auto got = ExecuteAll(adaptive_r->get(), queries);
      const double ms = timer.ElapsedMillis();
      cold.Add(ms);
      report.cold_open_rep_ms.push_back(ms);
      const DurabilityStats stats = (*adaptive_r)->Durability();
      recover.Add(stats.open_recover_ms);
      report.open_recover_rep_ms.push_back(stats.open_recover_ms);
      report.views_persisted = stats.views_restored;
      check(got, "cold_open");
    }
  }
  // Warm: one open, one untimed materializing pass, then the steady state.
  {
    auto adaptive_r = Db::Open(dir, DbOptions{BenchConfig()});
    VMSV_BENCH_CHECK_OK(adaptive_r.status());
    check(ExecuteAll(adaptive_r->get(), queries), "warm(materialize)");
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      Stopwatch timer;
      const auto got = ExecuteAll(adaptive_r->get(), queries);
      const double ms = timer.ElapsedMillis();
      warm.Add(ms);
      report.warm_rep_ms.push_back(ms);
      check(got, "warm");
    }
  }
  report.rebuild_median_ms = rebuild.Median();
  report.cold_open_median_ms = cold.Median();
  report.open_recover_median_ms = recover.Median();
  report.warm_median_ms = warm.Median();
  report.cold_vs_rebuild_speedup =
      report.rebuild_median_ms / report.cold_open_median_ms;
  return report;
}

FsyncReport RunFsyncExperiment(const bench::BenchEnv& env,
                               const std::string& dir) {
  FsyncReport report;
  for (const FlushPolicy policy :
       {FlushPolicy::kNone, FlushPolicy::kAsync, FlushPolicy::kSync}) {
    AdaptiveConfig config = BenchConfig();
    config.storage.data_flush = policy;
    auto adaptive_r = Db::Open(dir, DbOptions{config});
    VMSV_BENCH_CHECK_OK(adaptive_r.status());
    auto adaptive = std::move(adaptive_r).ValueOrDie();
    const uint64_t rows = adaptive->num_rows();

    PolicyResult result;
    result.policy = policy;
    SampleStats times;
    // One untimed warm-up flush: the FIRST flush after an Open pays one-off
    // costs (realigning freshly restored views, faulting update pages) that
    // would otherwise pollute whichever policy runs first.
    VMSV_BENCH_CHECK_OK(
        adaptive->Update(0, adaptive->shard(0)->column().Get(0) ^ 1));
    VMSV_BENCH_CHECK_OK(adaptive->FlushUpdates().status());
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      // Jittered in-place rewrites: values change (journal + alignment do
      // real work) while the distribution stays stationary.
      for (uint64_t i = 0; i < kUpdatesPerFlush; ++i) {
        const uint64_t row = (rep * kUpdatesPerFlush + i * 31) % rows;
        const Value old_value = adaptive->shard(0)->column().Get(row);
        VMSV_BENCH_CHECK_OK(adaptive->Update(
            row, old_value ^ (1u << (rep % 10))));
      }
      Stopwatch timer;
      VMSV_BENCH_CHECK_OK(adaptive->FlushUpdates().status());
      const double ms = timer.ElapsedMillis();
      times.Add(ms);
      result.rep_ms.push_back(ms);
    }
    result.flush_median_ms = times.Median();
    report.policies.push_back(std::move(result));
  }
  return report;
}

GroupCommitReport RunGroupCommitExperiment(const bench::BenchEnv& env,
                                           const std::string& dir) {
  GroupCommitReport report;
  struct Mode {
    const char* name;
    uint64_t batch;  // as reported: 0 = fdatasync on every update
  };
  // Same power-loss durability story (every acked update is journal-fsynced),
  // different amortization: one fsync per update vs one per batch boundary.
  const Mode modes[] = {
      {"sync_every_update", 0},
      {"group_commit_8", 8},
      {"group_commit_32", 32},
  };
  for (const Mode& mode : modes) {
    FaultInjectingIo io;  // unarmed: a deterministic fsync accountant
    AdaptiveConfig config = BenchConfig();
    config.storage.data_flush = FlushPolicy::kSync;
    // Syncing every update is group commit at batch 1.
    config.storage.group_commit_batch = std::max<uint64_t>(mode.batch, 1);
    config.storage.io = &io;
    auto adaptive_r = Db::Open(dir, DbOptions{config});
    VMSV_BENCH_CHECK_OK(adaptive_r.status());
    auto adaptive = std::move(adaptive_r).ValueOrDie();
    const uint64_t rows = adaptive->num_rows();

    GroupCommitResult result;
    result.mode = mode.name;
    result.batch = mode.batch;
    SampleStats times;
    for (uint64_t rep = 0; rep < env.reps; ++rep) {
      // Drain pending updates OUTSIDE the timed region so every rep times
      // the same thing: the journal-append + commit path alone.
      VMSV_BENCH_CHECK_OK(adaptive->FlushUpdates().status());
      const uint64_t fsyncs_before = io.stats().fsyncs;
      Stopwatch timer;
      for (uint64_t i = 0; i < kGroupCommitUpdates; ++i) {
        const uint64_t row = (rep * kGroupCommitUpdates + i * 31) % rows;
        const Value old_value = adaptive->shard(0)->column().Get(row);
        VMSV_BENCH_CHECK_OK(
            adaptive->Update(row, old_value ^ (1u << (rep % 10))));
      }
      const double ms = timer.ElapsedMillis();
      times.Add(ms);
      result.rep_ms.push_back(ms);
      // Deterministic: per-update mode fsyncs every append, group commit
      // fsyncs exactly once per batch boundary — identical every rep.
      result.fsyncs_per_rep = io.stats().fsyncs - fsyncs_before;
    }
    result.wall_median_ms = times.Median();
    result.per_update_us =
        result.wall_median_ms * 1000.0 / kGroupCommitUpdates;
    report.modes.push_back(std::move(result));
  }
  return report;
}

PoolEditReport RunPoolEditExperiment(const bench::BenchEnv& env,
                                     const std::string& dir) {
  std::filesystem::remove_all(dir);
  ManifestTimingIo io;
  AdaptiveConfig config = BenchConfig();
  config.max_views = kPoolEdits;
  config.storage.data_flush = FlushPolicy::kSync;
  config.storage.io = &io;
  auto adaptive_r = Db::CreateDurable(dir, env.pages * kValuesPerPage,
                                      DbOptions{config});
  VMSV_BENCH_CHECK_OK(adaptive_r.status());
  auto adaptive = std::move(adaptive_r).ValueOrDie();
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  FillColumn(spec, adaptive->shard(0)->mutable_column());

  QueryWorkloadSpec wspec;
  wspec.domain_hi = kMaxValue;
  wspec.seed = kWorkloadSeed;
  wspec.num_queries = kPoolEditQueries;
  PoolEditReport report;
  SampleStats edits;
  for (const RangeQuery& q :
       MakeFixedSelectivityWorkload(wspec, kPoolEditSelectivity)) {
    if (report.edit_us.size() == kPoolEdits) break;
    io.TakeMicros();
    auto exec = adaptive->Execute(q);
    VMSV_BENCH_CHECK_OK(exec.status());
    const double us = io.TakeMicros();
    if (exec->stats.decision != CandidateDecision::kInserted) continue;
    edits.Add(us);
    report.edit_us.push_back(us);
  }
  report.edits = report.edit_us.size();
  report.median_us = edits.Median();
  report.iqr_us = edits.Percentile(75) - edits.Percentile(25);
  adaptive.reset();
  std::filesystem::remove_all(dir);
  return report;
}

void PrintReports(const bench::BenchEnv& env, const std::string& persist_fs,
                  const RestartReport& restart, const FsyncReport& fsync,
                  const GroupCommitReport& gc, const PoolEditReport& pool) {
  std::fprintf(stdout, "# durable directory on %s\n", persist_fs.c_str());
  std::fprintf(stdout, "\n## restart modes (%llu-query sequence, %llu views)\n",
               static_cast<unsigned long long>(env.queries),
               static_cast<unsigned long long>(restart.views_persisted));
  TablePrinter table(bench::WithScanConfigHeaders(
      {"mode", "median_ms", "identical"}));
  const char* ok = restart.identical_results ? "yes" : "NO";
  table.AddRow(bench::WithScanConfigCells(
      {"rebuild", TablePrinter::Fmt(restart.rebuild_median_ms, 3), ok}, env));
  table.AddRow(bench::WithScanConfigCells(
      {"cold_open", TablePrinter::Fmt(restart.cold_open_median_ms, 3), ok},
      env));
  table.AddRow(bench::WithScanConfigCells(
      {"open_recover", TablePrinter::Fmt(restart.open_recover_median_ms, 3),
       "-"},
      env));
  table.AddRow(bench::WithScanConfigCells(
      {"warm", TablePrinter::Fmt(restart.warm_median_ms, 3), ok}, env));
  table.PrintCsv();
  std::fprintf(stdout,
               "# cold open answers the sequence %.2fx faster than "
               "rebuild-from-scratch\n",
               restart.cold_vs_rebuild_speedup);

  std::fprintf(stdout, "\n## fsync policies (%llu updates per flush)\n",
               static_cast<unsigned long long>(fsync.updates_per_flush));
  TablePrinter ftable(
      bench::WithScanConfigHeaders({"policy", "flush_median_ms"}));
  for (const PolicyResult& p : fsync.policies) {
    ftable.AddRow(bench::WithScanConfigCells(
        {FlushPolicyName(p.policy), TablePrinter::Fmt(p.flush_median_ms, 3)},
        env));
  }
  ftable.PrintCsv();

  std::fprintf(stdout, "\n## group commit (%llu durable updates per rep)\n",
               static_cast<unsigned long long>(gc.updates_per_rep));
  TablePrinter gtable(bench::WithScanConfigHeaders(
      {"mode", "batch", "fsyncs_per_rep", "wall_median_ms", "per_update_us"}));
  for (const GroupCommitResult& m : gc.modes) {
    gtable.AddRow(bench::WithScanConfigCells(
        {m.mode, std::to_string(m.batch), std::to_string(m.fsyncs_per_rep),
         TablePrinter::Fmt(m.wall_median_ms, 3),
         TablePrinter::Fmt(m.per_update_us, 3)},
        env));
  }
  gtable.PrintCsv();

  std::fprintf(stdout,
               "\n## pool edits (1%% view inserts under sync, %llu edits)\n"
               "# manifest I/O per edit: median %.3f us, IQR %.3f us\n",
               static_cast<unsigned long long>(pool.edits), pool.median_us,
               pool.iqr_us);
}

int WriteJson(const std::string& path, const bench::BenchEnv& env,
              const std::string& persist_fs, const RestartReport& restart,
              const FsyncReport& fsync, const GroupCommitReport& gc,
              const PoolEditReport& pool) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_persistence", env, /*seed=*/42);
    w.Field("queries", env.queries);
    w.Field("workload_seed", kWorkloadSeed);
    w.Field("selectivity", kSelectivity, 2);
    w.Field("distribution", "sine");
    w.Field("persist_fs", persist_fs.c_str());
    w.Key("restart");
    w.BeginObject();
    w.Field("views_persisted", restart.views_persisted);
    w.FieldBool("identical_results", restart.identical_results);
    w.Field("rebuild_median_ms", restart.rebuild_median_ms);
    w.FieldArray("rebuild_rep_ms", restart.rebuild_rep_ms);
    w.Field("cold_open_median_ms", restart.cold_open_median_ms);
    w.FieldArray("cold_open_rep_ms", restart.cold_open_rep_ms);
    w.Field("open_recover_median_ms", restart.open_recover_median_ms);
    w.FieldArray("open_recover_rep_ms", restart.open_recover_rep_ms);
    w.Field("warm_median_ms", restart.warm_median_ms);
    w.FieldArray("warm_rep_ms", restart.warm_rep_ms);
    w.Field("cold_vs_rebuild_speedup", restart.cold_vs_rebuild_speedup, 4);
    w.EndObject();
    w.Key("fsync");
    w.BeginObject();
    w.Field("updates_per_flush", fsync.updates_per_flush);
    w.Key("policies");
    w.BeginArray();
    for (const PolicyResult& p : fsync.policies) {
      w.BeginObject();
      w.Field("policy", FlushPolicyName(p.policy));
      w.Field("flush_median_ms", p.flush_median_ms);
      w.FieldArray("rep_ms", p.rep_ms);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("group_commit");
    w.BeginObject();
    w.Field("updates_per_rep", gc.updates_per_rep);
    w.Key("modes");
    w.BeginArray();
    for (const GroupCommitResult& m : gc.modes) {
      w.BeginObject();
      w.Field("mode", m.mode);
      w.Field("batch", m.batch);
      w.Field("fsyncs_per_rep", m.fsyncs_per_rep);
      w.Field("wall_median_ms", m.wall_median_ms);
      w.FieldArray("rep_ms", m.rep_ms);
      w.Field("per_update_us", m.per_update_us);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("pool_edit");
    w.BeginObject();
    w.Field("selectivity", kPoolEditSelectivity, 2);
    w.Field("edits", pool.edits);
    w.Field("median_us", pool.median_us);
    w.Field("iqr_us", pool.iqr_us);
    w.FieldArray("edit_us", pool.edit_us);
    w.EndObject();
    w.EndObject();
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stdout, "# wrote %s\n", path.c_str());
  return restart.identical_results ? 0 : 1;
}

int Main() {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "micro_persistence: restart recovery + fsync-policy sweep", 4096);
  const std::string json_path = bench::BenchJsonPath("BENCH_persistence.json");
  const std::string dir =
      GetEnvString("VMSV_PERSIST_DIR", "vmsv_persist_bench");

  const auto queries = MakeQueries(env);
  const auto reference = SetUpDurableColumn(env, dir, queries);
  const std::string persist_fs = FilesystemName(dir);
  const RestartReport restart =
      RunRestartExperiment(env, dir, queries, reference);
  const FsyncReport fsync = RunFsyncExperiment(env, dir);
  const GroupCommitReport gc = RunGroupCommitExperiment(env, dir);
  const PoolEditReport pool = RunPoolEditExperiment(env, dir + "_pool_edit");
  PrintReports(env, persist_fs, restart, fsync, gc, pool);
  const int rc =
      WriteJson(json_path, env, persist_fs, restart, fsync, gc, pool);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // scratch state; the JSON is the output
  return rc;
}

}  // namespace
}  // namespace vmsv

int main() { return vmsv::Main(); }
