// Crash-injection matrix: enumerate every (operation-index, fault-kind)
// point of a scripted durable workload under FaultInjectingIo, "kill" the
// column at the fault, reopen with real I/O, and check the three recovery
// invariants:
//
//   1. prefix consistency — the recovered column equals the genesis data
//      plus updates 1..K for some K, with K >= every acknowledged update
//      (no acknowledged-then-lost update, no gap, no reordering);
//   2. recovered pool and scan bit-identity — right after the reopen the
//      pool equals one of the last two pools the run wrote to a manifest
//      slot, every restored view holds exactly the pages with a value in
//      its range, and adaptive Execute returns exactly what a full scan
//      returns;
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
#include <optional>
#include <string>
#include <tuple>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "vmsv.h"
#include "scoped_temp_dir.h"
#include "exec/scan_kernels.h"
#include "storage/manifest.h"
#include "storage/storage_io.h"
#include "util/env.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"

namespace vmsv {
namespace {

namespace fs = std::filesystem;

constexpr Value kMaxValue = 100'000'000;
constexpr uint64_t kTotalUpdates = 40;
constexpr uint64_t kMinFullPointsPerScenario = 200;  // ISSUE 6 satellite (a)

uint64_t TestPages() { return GetEnvUint64("VMSV_CRASH_PAGES", 16); }
uint64_t NumRows() { return TestPages() * kValuesPerPage; }
bool FullSweep() { return GetEnvUint64("VMSV_CRASH_FULL", 0) != 0; }

/// Update #j (1-based) of the script's default plan: spread across pages,
/// above every genesis value and outside every view's range. The script
/// replaces a few of them with updates aimed at the pool (see RunScript).
uint64_t UpdateRow(uint64_t j) { return (j * 37) % NumRows(); }
Value UpdateValue(uint64_t j) { return kMaxValue + j; }

/// One scripted update.
struct PlannedUpdate {
  uint64_t row = 0;
  Value value = 0;
};

struct Scenario {
  const char* name;
  FlushPolicy flush;
  /// 1 syncs the journal on every update.
  uint64_t group_commit_batch;
  /// false: process kill — files survive as written (page cache lives).
  /// true: power loss — column.dat rolls back to its last successful fsync.
  bool power_loss;
  /// Map views at their first hit, interleave ReleaseColdestArenas into
  /// the script and move a page into a view while its arena is released.
  /// A release writes no slot, so recovery must come back with a pool the
  /// run wrote and the moved page derived — never torn — at every fault
  /// point.
  bool release = false;
  /// errno carried by kFailOp points (0 = legacy untyped IoError); lets the
  /// release scenarios model disk-full vs media-error on the journal and
  /// manifest writes of their script.
  int fail_errno = 0;
};

AdaptiveConfig MakeConfig(const Scenario& s, StorageIo* io) {
  AdaptiveConfig config;
  config.max_views = 16;
  config.storage.data_flush = s.flush;
  config.storage.group_commit_batch = s.group_commit_batch;
  config.storage.io = io;
  if (s.release) config.materialize_after_hits = 1;
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
  /// The rows and values of updates 1..issued, in issue order.
  std::vector<PlannedUpdate> plan;
  /// Highest update index the column ACKNOWLEDGED as recoverable under the
  /// scenario's semantics. Process kill: every OK update (journal append
  /// reached the page cache before the cell write). Power loss: only
  /// updates whose journal LSN the durable watermark reached, or that a
  /// successful kSync flush/checkpoint covered.
  uint64_t acked = 0;
  /// Release scenarios: update 13 moved a page into a view whose arena was
  /// released.
  bool released_addition = false;
  /// The query whose discard widened a view's range, if the script found
  /// one.
  std::optional<RangeQuery> widened;
};

/// Owns the facade table while exposing the engine for white-box use.
struct OwnedColumn {
  std::unique_ptr<Table> table;
  AdaptiveColumn* operator->() const { return table->shard(0); }
  AdaptiveColumn& operator*() const { return *table->shard(0); }
};

StatusOr<OwnedColumn> OpenColumn(const std::string& dir,
                                 const AdaptiveConfig& config) {
  auto table_r = Db::Open(dir, DbOptions{config});
  if (!table_r.ok()) return table_r.status();
  return OwnedColumn{std::move(table_r).ValueOrDie()};
}

/// Pages of the column holding any value in q.
std::vector<uint64_t> PagesHolding(const PhysicalColumn& column,
                                   const RangeQuery& q) {
  std::vector<uint64_t> pages;
  for (uint64_t page = 0; page < column.num_pages(); ++page) {
    if (PageContainsAny(column.PageData(page), kValuesPerPage, q)) {
      pages.push_back(page);
    }
  }
  return pages;
}

/// An update that moves a page into a view — one of `among`, when given: a
/// value inside the view's range, written to the last row of a page the
/// view does not hold.
std::optional<PlannedUpdate> PageAddition(
    const AdaptiveColumn& col, uint64_t skip_page,
    const std::vector<const VirtualView*>* among = nullptr) {
  for (const auto& view : col.view_index().views()) {
    if (among != nullptr &&
        std::find(among->begin(), among->end(), view.get()) == among->end()) {
      continue;
    }
    for (uint64_t page = 0; page < col.column().num_pages(); ++page) {
      if (page == skip_page || view->ContainsPage(page)) continue;
      return PlannedUpdate{page * kValuesPerPage + kValuesPerPage - 1,
                           view->lo() + (view->hi() - view->lo()) / 2};
    }
  }
  return std::nullopt;
}

/// The rows whose update moves a page out of a view: every row of the page
/// with a value in the view's range, for the page with fewest such rows —
/// if it has at most `max_rows`. `*page` receives the page.
std::vector<uint64_t> PageRemoval(const AdaptiveColumn& col, size_t max_rows,
                                  uint64_t* page) {
  std::vector<uint64_t> best;
  bool found = false;
  for (const auto& view : col.view_index().views()) {
    view->ForEachPage([&](uint64_t member) {
      std::vector<uint64_t> rows;
      const Value* data = col.column().PageData(member);
      for (uint64_t i = 0; i < kValuesPerPage; ++i) {
        if (data[i] >= view->lo() && data[i] <= view->hi()) {
          rows.push_back(member * kValuesPerPage + i);
        }
      }
      if (!found || rows.size() < best.size()) {
        found = true;
        best = std::move(rows);
        *page = member;
      }
    });
  }
  if (!found || best.size() > max_rows) return {};
  return best;
}

/// A query [lo, hi + 1] of a view whose candidate is exactly that view's
/// pages: admission discards it against the view and widens its range.
std::optional<RangeQuery> WideningQuery(const AdaptiveColumn& col) {
  const auto& views = col.view_index().views();
  for (const auto& view : views) {
    if (view->num_pages() == 0 || view->hi() >= kMaxValue) continue;
    const RangeQuery wider{view->lo(), view->hi() + 1};
    if (col.view_index().FindSmallestCovering(wider) != nullptr) continue;
    const std::vector<uint64_t> pages = PagesHolding(col.column(), wider);
    if (pages.size() != view->num_pages()) continue;
    // Admission discards against the first view holding every page.
    for (const auto& first : views) {
      bool holds = true;
      for (const uint64_t page : pages) holds = holds && first->ContainsPage(page);
      if (!holds) continue;
      if (first.get() == view.get()) return wider;
      break;
    }
  }
  return std::nullopt;
}

ScriptOutcome RunScript(const std::string& dir, const Scenario& s,
                        FaultInjectingIo* io) {
  ScriptOutcome out;
  auto open_r = OpenColumn(dir, MakeConfig(s, io));
  if (!open_r.ok()) return out;  // crashed before the column came up
  auto col = std::move(open_r).ValueOrDie();
  const std::vector<RangeQuery> queries = ScriptQueries();

  auto issue = [&](const PlannedUpdate& update) -> bool {
    out.plan.push_back(update);
    out.issued = out.plan.size();
    if (!col->Update(update.row, update.value).ok()) return false;
    if (!s.power_loss) {
      out.acked = out.issued;
    } else {
      const DurabilityStats ds = col->durability_stats();
      if (ds.journal_appended_lsn > 0 &&
          ds.journal_durable_lsn >= ds.journal_appended_lsn) {
        out.acked = out.issued;
      }
    }
    return true;
  };
  auto issue_default = [&](uint64_t j) {
    return issue(PlannedUpdate{UpdateRow(j), UpdateValue(j)});
  };
  auto all_durable = [&] {
    // A successful kSync flush/checkpoint fsynced journal + data: every
    // update issued so far is recoverable even through power loss.
    if (s.power_loss) out.acked = out.issued;
  };

  for (uint64_t j = 1; j <= 12; ++j) {
    if (!issue_default(j)) return out;
  }
  for (int q = 0; q < 4; ++q) (void)col->Execute(queries[q]);  // adapt
  if (!col->FlushUpdates().ok()) return out;
  all_durable();
  // Release scenarios: a second pass of the queries maps their views,
  // two of them release their arenas here so the later queries map them
  // again, and update 13 aims at a released view: query 4's flush-first
  // moves the page into it before any routing, and recovery must derive
  // that page.
  std::optional<PlannedUpdate> released_add;
  if (s.release) {
    for (int q = 0; q < 4; ++q) (void)col->Execute(queries[q]);  // map
    std::vector<const VirtualView*> released;
    for (const auto& view : col->view_index().views()) {
      if (view->is_materialized()) released.push_back(view.get());
    }
    (void)col->ReleaseColdestArenas(2);
    released.erase(std::remove_if(released.begin(), released.end(),
                                  [](const VirtualView* view) {
                                    return view->is_materialized();
                                  }),
                   released.end());
    released_add = PageAddition(*col, /*skip_page=*/~uint64_t{0}, &released);
    out.released_addition = released_add.has_value();
  }
  for (uint64_t j = 13; j <= 23; ++j) {
    if (!issue(j == 13 && released_add
                   ? *released_add
                   : PlannedUpdate{UpdateRow(j), UpdateValue(j)})) {
      return out;
    }
  }
  // Update 24 moves another page into a view; query 4's flush-first aligns
  // it, and recovery must derive it.
  const std::optional<PlannedUpdate> add = PageAddition(
      *col, released_add ? released_add->row / kValuesPerPage : ~uint64_t{0});
  if (!issue(add.value_or(PlannedUpdate{UpdateRow(24), UpdateValue(24)}))) {
    return out;
  }
  for (int q = 4; q < 8; ++q) (void)col->Execute(queries[q]);
  // A discard that widens a view's range: a pool edit that adds no view.
  out.widened = WideningQuery(*col);
  if (out.widened.has_value()) (void)col->Execute(*out.widened);
  // Updates 25-30: up to five move a page out of a view, update 30
  // moves another page into one, and one flush aligns both: recovery must
  // derive the removal and the addition.
  uint64_t emptied = ~uint64_t{0};
  const std::vector<uint64_t> removal = PageRemoval(*col, 5, &emptied);
  for (uint64_t j = 25; j <= 29; ++j) {
    const size_t i = j - 25;
    if (!issue(i < removal.size() ? PlannedUpdate{removal[i], UpdateValue(j)}
                                  : PlannedUpdate{UpdateRow(j), UpdateValue(j)})) {
      return out;
    }
  }
  const std::optional<PlannedUpdate> second_add = PageAddition(*col, emptied);
  if (!issue(second_add.value_or(PlannedUpdate{UpdateRow(30), UpdateValue(30)}))) {
    return out;
  }
  if (!col->FlushUpdates().ok()) return out;
  all_durable();
  if (s.release) (void)col->ReleaseColdestArenas(2);
  if (!col->Checkpoint().ok()) return out;
  all_durable();
  for (uint64_t j = 31; j <= kTotalUpdates; ++j) {
    if (!issue_default(j)) return out;
  }
  // Tail release: it writes no slot, so the kill reopens the pool the
  // checkpoint left.
  if (s.release) (void)col->ReleaseColdestArenas(1);
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

/// A pool as compared across a crash: each view's (lo, hi, creation
/// cost), sorted.
using PoolKey = std::vector<std::tuple<Value, Value, uint64_t>>;

PoolKey KeyOf(const std::vector<ManifestView>& views) {
  PoolKey key;
  for (const ManifestView& view : views) {
    key.emplace_back(view.lo, view.hi, view.creation_scanned_pages);
  }
  std::sort(key.begin(), key.end());
  return key;
}

PoolKey KeyOf(const AdaptiveColumn& col) {
  PoolKey key;
  for (const auto& view : col.view_index().views()) {
    key.emplace_back(
        view->lo(), view->hi(),
        view->usage().creation_scanned_pages.load(std::memory_order_relaxed));
  }
  std::sort(key.begin(), key.end());
  return key;
}

struct RecoveredState {
  std::vector<Value> values;
  std::vector<std::pair<uint64_t, Value>> scans;  // (match_count, sum)
  uint64_t journal_replayed = 0;
};

/// Reopens `dir` with real I/O and captures everything the invariants
/// compare; before any query runs, the pool must equal one of `written`
/// (when given) and every restored view must hold exactly the pages with a
/// value in its range (invariant 2). `adapt` additionally routes every
/// query through Execute and checks it against the full scan.
bool CaptureState(const std::string& dir, const Scenario& s, bool adapt,
                  const std::vector<PoolKey>* written, RecoveredState* state,
                  std::string* error) {
  auto open_r = OpenColumn(dir, MakeConfig(s, nullptr));
  if (!open_r.ok()) {
    *error = "reopen failed: " + open_r.status().ToString();
    return false;
  }
  auto col = std::move(open_r).ValueOrDie();
  if (written != nullptr &&
      std::find(written->begin(), written->end(), KeyOf(*col)) ==
          written->end()) {
    *error = "recovered pool of " +
             std::to_string(col->view_index().num_partial_views()) +
             " views is neither of the last two pools written";
    return false;
  }
  for (const auto& view : col->view_index().views()) {
    std::vector<uint64_t> pages = view->physical_pages();
    std::sort(pages.begin(), pages.end());
    if (pages != PagesHolding(col->column(), view->value_range())) {
      *error = "restored view [" + std::to_string(view->lo()) + "," +
               std::to_string(view->hi()) +
               "] does not hold exactly the pages with a value in its range";
      return false;
    }
  }
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

/// Invariant 1: `values` == genesis + plan[0..K) for some K >= acked. The
/// plan may write a row twice, so every prefix state is compared whole.
bool CheckPrefix(const std::vector<Value>& base,
                 const std::vector<Value>& values,
                 const std::vector<PlannedUpdate>& plan, uint64_t acked,
                 std::string* error) {
  std::vector<Value> expected = base;
  uint64_t matched = 0;
  bool any = false;
  for (uint64_t k = 0; k <= plan.size(); ++k) {
    if (k > 0) expected[plan[k - 1].row] = plan[k - 1].value;
    if (expected != values) continue;
    if (k >= acked) return true;
    any = true;
    matched = k;
  }
  if (any) {
    *error = "acknowledged update lost: recovered prefix K=" +
             std::to_string(matched) + " < acked=" + std::to_string(acked);
    return false;
  }
  for (uint64_t row = 0; row < values.size(); ++row) {
    if (values[row] != expected[row] && values[row] != base[row]) {
      *error = "gap/reorder: row " + std::to_string(row) + " = " +
               std::to_string(values[row]) +
               " matches no prefix of the " + std::to_string(plan.size()) +
               " issued updates";
      return false;
    }
  }
  *error = "recovered column matches no prefix of the " +
           std::to_string(plan.size()) + " issued updates";
  return false;
}

/// Records, on top of FaultInjectingIo, every pool a run writes to a
/// manifest slot while the I/O stream is alive: the armed write itself
/// counts (it may land in part), the writes after a crash-stop do not.
class SlotRecordingIo : public FaultInjectingIo {
 public:
  using FaultInjectingIo::FaultInjectingIo;

  Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                const char* what) override {
    if (std::string(what) == "pwrite(manifest slot)" && !crashed()) {
      const std::optional<ManifestPool> pool = DecodeManifestPool(
          std::string(static_cast<const char*>(data), len));
      EXPECT_TRUE(pool.has_value()) << "a slot write that does not decode";
      if (pool.has_value()) pools_.push_back(pool->views);
    }
    return FaultInjectingIo::Pwrite(fd, data, len, offset, what);
  }

  const std::vector<std::vector<ManifestView>>& pools() const {
    return pools_;
  }

 private:
  std::vector<std::vector<ManifestView>> pools_;
};

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
    genesis_pool_ = KeyOf(*col);
  }

  /// The fault-free scripted run, counted: T ops define the fault surface.
  /// It must write a slot holding the range a discard widened, so the
  /// surface covers that edit.
  uint64_t CountOps() {
    CopyDir(genesis_, work_);
    SlotRecordingIo io;
    const ScriptOutcome out = RunScript(work_, scenario_, &io);
    EXPECT_EQ(out.issued, kTotalUpdates)
        << scenario_.name << ": fault-free script must complete";
    EXPECT_EQ(out.acked, kTotalUpdates);
    if (scenario_.release) {
      EXPECT_TRUE(out.released_addition)
          << scenario_.name << ": no released view to move a page into";
    }
    bool wrote_widened = false;
    for (const std::vector<ManifestView>& pool : io.pools()) {
      for (const ManifestView& view : pool) {
        wrote_widened = wrote_widened ||
                        (out.widened.has_value() && view.lo == out.widened->lo &&
                         view.hi == out.widened->hi);
      }
    }
    EXPECT_TRUE(wrote_widened)
        << scenario_.name << ": no slot write holds a widened range";
    return io.op_count();
  }

  bool RunPoint(FaultKind kind, uint64_t op, uint64_t seed) {
    CopyDir(genesis_, work_);
    const std::string data_file = work_ + "/column.dat";
    const std::string snapshot = scratch_.path() + "/column.snapshot";
    std::error_code ec;
    fs::remove(snapshot, ec);

    SlotRecordingIo io(FaultPlan{kind, op, seed, scenario_.fail_errno});
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

    // The genesis pool counts as written before the run's own writes.
    std::vector<PoolKey> written{genesis_pool_};
    for (const std::vector<ManifestView>& pool : io.pools()) {
      written.push_back(KeyOf(pool));
    }
    written.erase(written.begin(), written.end() - std::min<size_t>(2, written.size()));
    std::string error;
    RecoveredState first;
    if (!CaptureState(work_, scenario_, /*adapt=*/true, &written, &first,
                      &error) ||
        !CheckPrefix(base_, first.values, out.plan, out.acked, &error)) {
      Fail(kind, op, seed, error);
      return false;
    }
    RecoveredState second;
    if (!CaptureState(work_, scenario_, /*adapt=*/false, nullptr, &second,
                      &error)) {
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
  PoolKey genesis_pool_;
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

// Release scenarios (named spill_* since their views once spilled to
// per-view files; tools/fault_matrix.py and the CI artifacts keep the
// names): the script maps views, releases arenas at three points and moves
// a page into a view whose arena is released. A kill at any point must
// reopen a pool the run wrote, with the moved page derived, and the
// adaptive scans must stay bit-identical.

TEST(CrashMatrixTest, SpillKillSync) {
  CrashMatrix({"spill_kill_sync", FlushPolicy::kSync, 0, false,
               /*release=*/true})
      .Run();
}

TEST(CrashMatrixTest, SpillDiskFull) {
  CrashMatrix({"spill_disk_full", FlushPolicy::kSync, 0, false,
               /*release=*/true, /*fail_errno=*/ENOSPC})
      .Run();
}

TEST(CrashMatrixTest, SpillMediaError) {
  CrashMatrix({"spill_media_error", FlushPolicy::kSync, 0, false,
               /*release=*/true, /*fail_errno=*/EIO})
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
