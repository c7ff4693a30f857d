// Crash-injection matrix (ISSUE 6 tentpole): enumerate every
// (operation-index, fault-kind) point of a scripted durable workload under
// FaultInjectingIo, "kill" the column at the fault, reopen with real I/O,
// and check the three recovery invariants:
//
//   1. prefix consistency — the recovered column equals the genesis data
//      plus updates 1..K for some K, with K >= every acknowledged update
//      (no acknowledged-then-lost update, no gap, no reordering);
//   2. scan bit-identity — adaptive Execute on the recovered column returns
//      exactly what a full scan returns (restored views agree with data);
//   3. idempotent replay — a second reopen reproduces the same state.
//
// Scenario axes: every FlushPolicy under process-kill semantics (the page
// cache survives, so the on-disk files are taken as-is), plus power-loss
// semantics for kSync (column.dat rolls back to its last successful fsync,
// captured through FaultInjectingIo's sync listener).
//
// Matrix size: the smoke run (plain ctest) strides the op indices to stay
// in the sub-second range; VMSV_CRASH_FULL=1 sweeps every index and seeds
// extra rounds until each scenario covers >= 200 fault points
// (tools/fault_matrix.py crash drives that mode in CI).

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <fcntl.h>
#include <filesystem>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "scoped_temp_dir.h"
#include "storage/storage_io.h"
#include "util/env.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"

namespace vmsv {
namespace {

namespace fs = std::filesystem;

constexpr Value kMaxValue = 100'000'000;
constexpr uint64_t kTotalUpdates = 32;
constexpr uint64_t kMinFullPointsPerScenario = 200;  // ISSUE 6 satellite (a)

uint64_t TestPages() { return GetEnvUint64("VMSV_CRASH_PAGES", 16); }
uint64_t NumRows() { return TestPages() * kValuesPerPage; }
bool FullSweep() { return GetEnvUint64("VMSV_CRASH_FULL", 0) != 0; }

/// Update #j (1-based) always hits the same row with the same value, spread
/// across pages and above every genesis value so "did update j land?" is a
/// single Get.
uint64_t UpdateRow(uint64_t j) { return (j * 37) % NumRows(); }
Value UpdateValue(uint64_t j) { return kMaxValue + j; }

struct Scenario {
  const char* name;
  FlushPolicy flush;
  /// 1 syncs the journal on every update.
  uint64_t group_commit_batch;
  /// false: process kill — files survive as written (page cache lives).
  /// true: power loss — column.dat rolls back to its last successful fsync.
  bool power_loss;
  /// Interleave DemoteColdestViews into the script so cold-file spill ops
  /// (tmp write/fsync/rename/dir-fsync) enter the fault surface. Recovery
  /// must come back hot-or-demoted — never torn — at every fault point.
  bool demote = false;
  /// errno carried by kFailOp points (0 = legacy untyped IoError); lets the
  /// spill scenarios model disk-full vs media-error on the cold-file write.
  int fail_errno = 0;
};

AdaptiveConfig MakeConfig(const Scenario& s, StorageIo* io) {
  AdaptiveConfig config;
  config.max_views = 16;
  config.storage.data_flush = s.flush;
  config.storage.group_commit_batch = s.group_commit_batch;
  config.storage.io = io;
  return config;
}

std::vector<RangeQuery> ScriptQueries() {
  QueryWorkloadSpec wspec;
  wspec.num_queries = 8;
  wspec.domain_hi = kMaxValue;
  wspec.seed = 97;
  return MakeFixedSelectivityWorkload(wspec, 0.10);
}

/// What the scripted run managed to do before the injected fault stopped it.
struct ScriptOutcome {
  /// Updates issued (1..issued); the script stops at the first failure, so
  /// they are always a prefix of the full script.
  uint64_t issued = 0;
  /// Highest update index the column ACKNOWLEDGED as recoverable under the
  /// scenario's semantics. Process kill: every OK update (journal append
  /// reached the page cache before the cell write). Power loss: only
  /// updates whose journal LSN the durable watermark reached, or that a
  /// successful kSync flush/checkpoint covered.
  uint64_t acked = 0;
};

/// Owns the facade table while exposing the engine for white-box use.
struct OwnedColumn {
  std::unique_ptr<Table> table;
  AdaptiveColumn* operator->() const { return table->shard(0); }
};

StatusOr<OwnedColumn> OpenColumn(const std::string& dir,
                                 const AdaptiveConfig& config) {
  auto table_r = Db::Open(dir, DbOptions{config});
  if (!table_r.ok()) return table_r.status();
  return OwnedColumn{std::move(table_r).ValueOrDie()};
}

ScriptOutcome RunScript(const std::string& dir, const Scenario& s,
                        FaultInjectingIo* io) {
  ScriptOutcome out;
  auto open_r = OpenColumn(dir, MakeConfig(s, io));
  if (!open_r.ok()) return out;  // crashed before the column came up
  auto col = std::move(open_r).ValueOrDie();
  const std::vector<RangeQuery> queries = ScriptQueries();

  auto issue = [&](uint64_t j) -> bool {
    out.issued = j;
    if (!col->Update(UpdateRow(j), UpdateValue(j)).ok()) return false;
    if (!s.power_loss) {
      out.acked = j;
    } else {
      const DurabilityStats ds = col->durability_stats();
      if (ds.journal_appended_lsn > 0 &&
          ds.journal_durable_lsn >= ds.journal_appended_lsn) {
        out.acked = j;
      }
    }
    return true;
  };
  auto all_durable = [&] {
    // A successful kSync flush/checkpoint fsynced journal + data: every
    // update issued so far is recoverable even through power loss.
    if (s.power_loss) out.acked = out.issued;
  };

  for (uint64_t j = 1; j <= 12; ++j) {
    if (!issue(j)) return out;
  }
  for (int q = 0; q < 4; ++q) (void)col->Execute(queries[q]);  // adapt
  if (!col->FlushUpdates().ok()) return out;
  all_durable();
  // Spill scenarios: demote here so the later queries promote some views
  // back (promote + demote + checkpoint re-spill all inside the surface).
  if (s.demote) (void)col->DemoteColdestViews(2);
  for (uint64_t j = 13; j <= 24; ++j) {
    if (!issue(j)) return out;
  }
  for (int q = 4; q < 8; ++q) (void)col->Execute(queries[q]);
  if (s.demote) (void)col->DemoteColdestViews(2);
  if (!col->Checkpoint().ok()) return out;
  all_durable();
  for (uint64_t j = 25; j <= kTotalUpdates; ++j) {
    if (!issue(j)) return out;
  }
  // Tail demote: only the set-tier delta and the cold file land before the
  // kill — recovery must honor the delta or fall back hot, never tear.
  if (s.demote) (void)col->DemoteColdestViews(1);
  return out;  // destructor = SIGKILL: no flush, just closed fds
}

std::string FdPath(int fd) {
  char buf[PATH_MAX];
  const std::string link = "/proc/self/fd/" + std::to_string(fd);
  const ssize_t n = ::readlink(link.c_str(), buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  ASSERT_FALSE(ec) << "copying " << from << " -> " << to << ": "
                   << ec.message();
}

struct RecoveredState {
  std::vector<Value> values;
  std::vector<std::pair<uint64_t, Value>> scans;  // (match_count, sum)
  uint64_t journal_replayed = 0;
};

/// Reopens `dir` with real I/O and captures everything the invariants
/// compare. `adapt` additionally routes every query through Execute and
/// checks it against the full scan (invariant 2).
bool CaptureState(const std::string& dir, const Scenario& s, bool adapt,
                  RecoveredState* state, std::string* error) {
  auto open_r = OpenColumn(dir, MakeConfig(s, nullptr));
  if (!open_r.ok()) {
    *error = "reopen failed: " + open_r.status().ToString();
    return false;
  }
  auto col = std::move(open_r).ValueOrDie();
  state->journal_replayed = col->durability_stats().journal_replayed;
  state->values.resize(NumRows());
  for (uint64_t row = 0; row < NumRows(); ++row) {
    state->values[row] = col->column().Get(row);
  }
  for (const RangeQuery& q : ScriptQueries()) {
    auto full = col->ExecuteFullScan(q);
    if (!full.ok()) {
      *error = "full scan failed: " + full.status().ToString();
      return false;
    }
    state->scans.emplace_back(full->match_count, full->sum);
    if (adapt) {
      auto exec = col->Execute(q);
      if (!exec.ok()) {
        *error = "adaptive execute failed: " + exec.status().ToString();
        return false;
      }
      if (exec->match_count != full->match_count || exec->sum != full->sum) {
        *error = "adaptive scan diverged from full scan on [" +
                 std::to_string(q.lo) + "," + std::to_string(q.hi) + "]";
        return false;
      }
    }
  }
  return true;
}

/// Invariant 1: `values` == genesis + updates 1..K for some K >= acked.
bool CheckPrefix(const std::vector<Value>& base,
                 const std::vector<Value>& values, uint64_t issued,
                 uint64_t acked, std::string* error) {
  uint64_t k = 0;
  while (k < kTotalUpdates && values[UpdateRow(k + 1)] == UpdateValue(k + 1)) {
    ++k;
  }
  if (k < acked) {
    *error = "acknowledged update lost: recovered prefix K=" +
             std::to_string(k) + " < acked=" + std::to_string(acked);
    return false;
  }
  for (uint64_t j = k + 1; j <= issued; ++j) {
    if (values[UpdateRow(j)] != base[UpdateRow(j)]) {
      *error = "gap/reorder: update " + std::to_string(j) +
               " visible past prefix K=" + std::to_string(k);
      return false;
    }
  }
  for (uint64_t row = 0; row < NumRows(); ++row) {
    Value expected = base[row];
    for (uint64_t j = 1; j <= k; ++j) {
      if (UpdateRow(j) == row) expected = UpdateValue(j);
    }
    if (values[row] != expected) {
      *error = "row " + std::to_string(row) + " = " +
               std::to_string(values[row]) + ", expected " +
               std::to_string(expected) + " under prefix K=" +
               std::to_string(k);
      return false;
    }
  }
  return true;
}

class CrashMatrix {
 public:
  explicit CrashMatrix(const Scenario& s) : scenario_(s), scratch_(s.name) {
    genesis_ = scratch_.path() + "/genesis";
    work_ = scratch_.path() + "/work";
    MakeGenesis();
  }

  void Run() {
    const uint64_t total_ops = CountOps();
    ASSERT_GT(total_ops, 0u);
    static constexpr FaultKind kKinds[] = {
        FaultKind::kFailOp, FaultKind::kTornWrite, FaultKind::kReorderCrash,
        FaultKind::kCrashStop};
    const bool full = FullSweep();
    const uint64_t stride = full ? 1 : std::max<uint64_t>(1, total_ops / 8);
    const uint64_t per_round = 4 * ((total_ops + stride - 1) / stride);
    const uint64_t rounds =
        full ? std::max<uint64_t>(
                   1, (kMinFullPointsPerScenario + per_round - 1) / per_round)
             : 1;
    uint64_t points = 0;
    uint64_t failures = 0;
    for (uint64_t round = 0; round < rounds && failures < 10; ++round) {
      for (const FaultKind kind : kKinds) {
        for (uint64_t op = 1; op <= total_ops && failures < 10;
             op += stride) {
          const uint64_t seed =
              (op * 1315423911u) ^ (static_cast<uint64_t>(kind) << 17) ^
              (round * 2654435761u);
          ++points;
          if (!RunPoint(kind, op, seed)) ++failures;
        }
      }
    }
    if (full) {
      EXPECT_GE(points, kMinFullPointsPerScenario)
          << scenario_.name << ": full sweep must cover >= "
          << kMinFullPointsPerScenario << " fault points";
    }
    ::testing::Test::RecordProperty(std::string(scenario_.name) + "_points",
                                    static_cast<int>(points));
  }

 private:
  void MakeGenesis() {
    auto col_r = Db::CreateDurable(genesis_, NumRows(),
                                   DbOptions{MakeConfig(scenario_, nullptr)});
    ASSERT_TRUE(col_r.ok()) << col_r.status().ToString();
    OwnedColumn col{std::move(col_r).ValueOrDie()};
    DistributionSpec spec;
    spec.kind = DataDistribution::kSine;
    spec.max_value = kMaxValue;
    spec.seed = 42;
    FillColumn(spec, col->mutable_column());
    ASSERT_TRUE(col->Checkpoint().ok());
    base_.resize(NumRows());
    for (uint64_t row = 0; row < NumRows(); ++row) {
      base_[row] = col->column().Get(row);
    }
  }

  /// The fault-free scripted run, counted: T ops define the fault surface.
  uint64_t CountOps() {
    CopyDir(genesis_, work_);
    FaultInjectingIo io;
    const ScriptOutcome out = RunScript(work_, scenario_, &io);
    EXPECT_EQ(out.issued, kTotalUpdates)
        << scenario_.name << ": fault-free script must complete";
    EXPECT_EQ(out.acked, kTotalUpdates);
    return io.op_count();
  }

  bool RunPoint(FaultKind kind, uint64_t op, uint64_t seed) {
    CopyDir(genesis_, work_);
    const std::string data_file = work_ + "/column.dat";
    const std::string snapshot = scratch_.path() + "/column.snapshot";
    std::error_code ec;
    fs::remove(snapshot, ec);

    FaultInjectingIo io(FaultPlan{kind, op, seed, scenario_.fail_errno});
    if (scenario_.power_loss) {
      io.set_sync_listener([&](int fd) {
        // Snapshot column.dat at each successful data fsync: exactly the
        // bytes a power cut at any later moment leaves behind.
        if (fs::path(FdPath(fd)).filename() == "column.dat") {
          std::error_code copy_ec;
          fs::copy_file(data_file, snapshot,
                        fs::copy_options::overwrite_existing, copy_ec);
        }
      });
    }
    const ScriptOutcome out = RunScript(work_, scenario_, &io);
    if (scenario_.power_loss) {
      // Power cut: the page cache is gone. Journal/manifest writes went
      // through `io` (torn/reordered exactly as armed); the mmap'ed data
      // file did not, so roll it back to its last fsync — the genesis
      // checkpoint if the scripted run never completed one.
      fs::copy_file(fs::exists(snapshot) ? snapshot : genesis_ + "/column.dat",
                    data_file, fs::copy_options::overwrite_existing, ec);
      if (ec) {
        Fail(kind, op, seed, "restoring data snapshot: " + ec.message());
        return false;
      }
      fs::remove(snapshot, ec);
    }

    std::string error;
    RecoveredState first;
    if (!CaptureState(work_, scenario_, /*adapt=*/true, &first, &error) ||
        !CheckPrefix(base_, first.values, out.issued, out.acked, &error)) {
      Fail(kind, op, seed, error);
      return false;
    }
    RecoveredState second;
    if (!CaptureState(work_, scenario_, /*adapt=*/false, &second, &error)) {
      Fail(kind, op, seed, "second reopen: " + error);
      return false;
    }
    if (second.values != first.values || second.scans != first.scans) {
      Fail(kind, op, seed, "replay not idempotent: second reopen diverged");
      return false;
    }
    return true;
  }

  void Fail(FaultKind kind, uint64_t op, uint64_t seed,
            const std::string& detail) {
    // One greppable line per failing point: tools/fault_matrix.py collects
    // these into the CI artifact.
    ADD_FAILURE() << "FAULT-POINT-FAILED scenario=" << scenario_.name
                  << " kind=" << FaultKindName(kind) << " op=" << op
                  << " seed=" << seed << " :: " << detail;
  }

  Scenario scenario_;
  ScopedTempDir scratch_;
  std::string genesis_;
  std::string work_;
  std::vector<Value> base_;
};

TEST(CrashMatrixTest, KillNone) {
  CrashMatrix({"kill_none", FlushPolicy::kNone, 0, false}).Run();
}

TEST(CrashMatrixTest, KillAsync) {
  CrashMatrix({"kill_async", FlushPolicy::kAsync, 0, false}).Run();
}

TEST(CrashMatrixTest, KillSync) {
  CrashMatrix({"kill_sync", FlushPolicy::kSync, 0, false}).Run();
}

TEST(CrashMatrixTest, KillSyncGroupCommit) {
  CrashMatrix({"kill_sync_group8", FlushPolicy::kSync, 8, false}).Run();
}

TEST(CrashMatrixTest, PowerSyncEveryUpdate) {
  CrashMatrix({"power_sync", FlushPolicy::kSync, 1, true}).Run();
}

TEST(CrashMatrixTest, PowerSyncGroupCommit) {
  CrashMatrix({"power_sync_group8", FlushPolicy::kSync, 8, true}).Run();
}

// Spill-path scenarios (ISSUE 8 satellite): the script demotes views at
// three points, so every cold-file op — tmp write, fsync, rename, directory
// fsync — is a fault point. Kill mid-demotion must reopen hot-or-demoted,
// never torn, and the adaptive scans must stay bit-identical.

TEST(CrashMatrixTest, SpillKillSync) {
  CrashMatrix({"spill_kill_sync", FlushPolicy::kSync, 0, false,
               /*demote=*/true})
      .Run();
}

TEST(CrashMatrixTest, SpillDiskFull) {
  CrashMatrix({"spill_disk_full", FlushPolicy::kSync, 0, false,
               /*demote=*/true, /*fail_errno=*/ENOSPC})
      .Run();
}

TEST(CrashMatrixTest, SpillMediaError) {
  CrashMatrix({"spill_media_error", FlushPolicy::kSync, 0, false,
               /*demote=*/true, /*fail_errno=*/EIO})
      .Run();
}

// ---------------------------------------------------------------------------
// Errno-typed kFailOp faults: callers route on sys_errno() (disk-full vs
// media error vs legacy untyped), and an injected EINTR is absorbed by the
// wrapper-level retry exactly like the real syscall loop — the caller must
// never observe it.

TEST(FaultInjectingIoTest, ErrnoTypedFailuresAndEintrAbsorption) {
  ScopedTempDir tmp("storage_errno");
  const std::string path = tmp.path() + "/scratch";
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  const char payload[] = "0123456789abcdef";

  // ENOSPC: typed, performs nothing, and the NEXT operation proceeds — a
  // transient full disk, not a crash-stop.
  FaultInjectingIo io(FaultPlan{FaultKind::kFailOp, 1, 0, ENOSPC});
  Status st = io.Write(fd, payload, sizeof payload, "scratch");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.sys_errno(), ENOSPC);
  EXPECT_EQ(io.stats().faults_injected, 1u);
  EXPECT_FALSE(io.crashed());
  EXPECT_TRUE(io.Write(fd, payload, sizeof payload, "scratch").ok());

  // EIO on the fsync: a media error, distinguishable from disk-full.
  io.Arm(FaultPlan{FaultKind::kFailOp, 2, 0, EIO});
  ASSERT_TRUE(io.Pwrite(fd, payload, sizeof payload, 0, "scratch").ok());
  st = io.Fsync(fd, "scratch");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.sys_errno(), EIO);

  // fail_errno == 0 keeps the legacy untyped IoError.
  io.Arm(FaultPlan{FaultKind::kFailOp, 1, 0, 0});
  st = io.Rename(path, path + ".renamed");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.sys_errno(), 0);

  // EINTR: the operation executes, the caller sees success, and only the
  // eintr_retries stat records that the fault fired.
  io.Arm(FaultPlan{FaultKind::kFailOp, 1, 0, EINTR});
  const uint64_t before = io.stats().eintr_retries;
  ASSERT_TRUE(io.Truncate(fd, 0, "scratch").ok());
  EXPECT_EQ(io.stats().eintr_retries, before + 1);
  struct stat sb;
  ASSERT_EQ(::fstat(fd, &sb), 0);
  EXPECT_EQ(sb.st_size, 0);  // the truncate really executed

  ::close(fd);
}

}  // namespace
}  // namespace vmsv
