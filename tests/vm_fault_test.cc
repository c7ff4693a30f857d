// VM-fault matrix (ISSUE 7 tentpole): enumerate (operation-index, errno)
// points of a scripted in-memory workload under FaultInjectingVmIo — the
// seam every mmap/munmap/mremap/mprotect/madvise/memfd_create/ftruncate of
// the rewiring layer routes through — and check the degradation invariants:
//
//   1. exactness — every Execute/ExecuteBatch answer is bit-identical to
//      ExecuteFullScan on the same column (the base arena predates the
//      armed plan and scans make no syscalls, so the oracle is fault-free
//      by construction);
//   2. no aborts — resource exhaustion surfaces as degraded service
//      (views answering over the base mapping, released arenas, dropped
//      views), never as a crash or an error from a read;
//   3. recovery — once the plan is cleared, queries keep answering
//      exactly, and the next maintenance pass re-probes the mapping layer
//      and clears Health().mapping_pressure (no residual degraded flags).
//
// The matrix crosses errno kinds (ENOMEM / EAGAIN / ENOSPC, once and
// sticky) with operation-class targets (any / mmap / mprotect / munmap /
// mremap), sized by a fault-free accounting run. The smoke run (plain
// ctest) strides the any-target indices and probes one midpoint per
// specific class; VMSV_VM_FAULT_FULL=1 sweeps every index of every class
// (tools/fault_matrix.py vm drives that mode in CI).
//
// Alongside the matrix: the PartialViewIndex foreign-view error contract
// (the historical VMSV_CHECK aborts), creation-time memfd/ftruncate
// faults, the vm.max_map_count-style mapping budget with pressure-driven
// arena release, the durable-ENOSPC read-only round trip, and the workload
// runner's health surface.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include "vmsv.h"
#include "core/virtual_view.h"
#include "rewiring/physical_memory_file.h"
#include "rewiring/vm_io.h"
#include "scoped_temp_dir.h"
#include "storage/column.h"
#include "storage/storage_io.h"
#include "util/env.h"
#include "util/macros.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;
constexpr uint64_t kMinFullPointsPerScenario = 200;

uint64_t TestPages() { return GetEnvUint64("VMSV_VM_FAULT_PAGES", 16); }
uint64_t NumRows() { return TestPages() * kValuesPerPage; }
bool FullSweep() { return GetEnvUint64("VMSV_VM_FAULT_FULL", 0) != 0; }

/// Update #j (1-based) hits a page-spread row with an above-domain value,
/// same convention as the crash matrix.
uint64_t UpdateRow(uint64_t j) { return (j * 37) % NumRows(); }
Value UpdateValue(uint64_t j) { return kMaxValue + j; }

struct Scenario {
  QueryMode mode;
  size_t max_views;
  bool cost_based;
  /// Durable column with arena-release steps in the script: the routed
  /// pass then maps the released views again, so those mmaps are inside
  /// the fault surface — a failed map must answer over the view's page
  /// runs bit-identically and leave the view without an arena, never
  /// half-mapped.
  bool tiering = false;
  /// 1: every routed hit of a view without an arena maps it, so each
  /// round's materializations are inside the fault surface.
  uint64_t materialize_after_hits = 1;
};

AdaptiveConfig MakeConfig(const Scenario& s, VmIo* io) {
  AdaptiveConfig config;
  config.materialize_after_hits = s.materialize_after_hits;
  config.mode = s.mode;
  config.max_views = s.max_views;
  config.cost_based_routing = s.cost_based;
  config.vm_io = io;
  // An eager eviction margin keeps the pool churning on the script's
  // fresh-per-round queries: every round materializes new views AND
  // retires old arenas, so the op surface covers munmap as densely as
  // mmap.
  config.lifecycle.eviction_margin = 0.05;
  return config;
}

/// A fresh in-memory column whose ENTIRE address-space traffic — backing
/// file creation, base arena, every view arena — routes through `io`. The
/// caller arms the fault plan AFTER this returns, so genesis ops are
/// counted but never faulted (mirroring the crash matrix, whose genesis
/// runs on real I/O).
/// Owns the facade table while exposing the engine for white-box use.
struct OwnedColumn {
  std::unique_ptr<Table> table;
  AdaptiveColumn* operator->() const { return table->shard(0); }
  AdaptiveColumn* get() const { return table->shard(0); }
};

StatusOr<OwnedColumn> MakeFaultableColumn(
    const Scenario& s, FaultInjectingVmIo* io, const std::string& dir = "") {
  if (s.tiering) {
    // Durable variant; storage I/O is real, only the mapping layer is
    // faultable. The dir is recycled per point.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto table_r =
        Db::CreateDurable(dir, NumRows(), DbOptions{MakeConfig(s, io)});
    if (!table_r.ok()) return table_r.status();
    OwnedColumn owned{std::move(table_r).ValueOrDie()};
    DistributionSpec spec;
    spec.kind = DataDistribution::kSine;
    spec.max_value = kMaxValue;
    spec.seed = 42;
    FillColumn(spec, owned->mutable_column());
    return owned;
  }
  auto file = PhysicalMemoryFile::Create(TestPages(), io);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<PhysicalMemoryFile>(std::move(*file));
  auto column = PhysicalColumn::Attach(std::move(shared), NumRows());
  if (!column.ok()) return column.status();
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  FillColumn(spec, column->get());
  auto table_r = Db::Create(std::move(column).ValueOrDie(),
                            DbOptions{MakeConfig(s, io)});
  if (!table_r.ok()) return table_r.status();
  return OwnedColumn{std::move(table_r).ValueOrDie()};
}

/// Round r of the script queries: same shape, fresh positions — so later
/// rounds build NEW candidates, churning the pool at its budget (eviction
/// + arena retirement = the munmap traffic of the op surface).
std::vector<RangeQuery> ScriptQueries(uint64_t round) {
  QueryWorkloadSpec spec;
  spec.num_queries = 8;
  spec.domain_hi = kMaxValue;
  spec.seed = 97 + 13 * round;
  return MakeFixedSelectivityWorkload(spec, 0.10);
}

/// One query under fire: the full-scan oracle must succeed (it makes no
/// mapping syscalls), Execute must succeed (degrading to reads over the
/// base mapping at worst), and the two must agree bit-identically.
bool CheckAgainstOracle(AdaptiveColumn* column, const RangeQuery& q,
                        const std::string& step, std::string* detail) {
  auto oracle = column->ExecuteFullScan(q);
  if (!oracle.ok()) {
    *detail = step + ": oracle full scan failed: " + oracle.status().ToString();
    return false;
  }
  auto exec = column->Execute(q);
  if (!exec.ok()) {
    *detail = step + ": Execute failed: " + exec.status().ToString();
    return false;
  }
  if (exec->match_count != oracle->match_count || exec->sum != oracle->sum) {
    *detail = step + ": adaptive/oracle mismatch: adaptive count=" +
              std::to_string(exec->match_count) +
              " sum=" + std::to_string(exec->sum) +
              " vs oracle count=" + std::to_string(oracle->match_count) +
              " sum=" + std::to_string(oracle->sum);
    return false;
  }
  return true;
}

/// The scripted workload, `rounds` times over: each query runs twice
/// back-to-back — the first builds the candidate (lazily: page lists, no
/// mmap), the immediate repeat routes into it and MATERIALIZES it before
/// the next candidate can evict it (crucial at tight view budgets) — then
/// an update wave that also moves one whole page between views, a full
/// routed pass, and a flush. Later rounds use
/// fresh query positions, so pool churn at the budget retires
/// materialized arenas (munmap traffic). The shared-scan batch path
/// closes the script. EVERY read must answer exactly; in-memory updates
/// and flushes must never error (VM faults degrade — they do not surface
/// on these paths).
bool RunScript(AdaptiveColumn* column, uint64_t rounds,
               std::string* detail, bool release = false) {
  std::vector<RangeQuery> queries;
  for (uint64_t r = 0; r < rounds; ++r) {
    queries = ScriptQueries(r);
    const std::string round = "round " + std::to_string(r) + " ";
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!CheckAgainstOracle(column, queries[i],
                              round + "adapt query " + std::to_string(i),
                              detail)) {
        return false;
      }
      if (!CheckAgainstOracle(column, queries[i],
                              round + "materialize query " + std::to_string(i),
                              detail)) {
        return false;
      }
    }
    // Tiering scenarios: release the freshly materialized views' arenas,
    // so the routed pass below has to map them again — mmaps under fire,
    // with the base-scan fallback as the exactness backstop.
    if (release) (void)column->ReleaseColdestArenas(2);
    for (uint64_t j = 1; j <= 12; ++j) {
      const uint64_t u = r * 12 + j;
      const Status updated = column->Update(UpdateRow(u), UpdateValue(u));
      if (!updated.ok()) {
        *detail = round + "update " + std::to_string(j) +
                  " failed: " + updated.ToString();
        return false;
      }
    }
    // One whole page moves to a mid-domain value: at the flush it leaves
    // every mapped view whose range misses the value (a swap-remove) and
    // joins every one that holds it (a tail map), under fire.
    const uint64_t moved = (r * 5) % TestPages();
    for (uint64_t row = moved * kValuesPerPage;
         row < (moved + 1) * kValuesPerPage; ++row) {
      const Status updated = column->Update(row, kMaxValue / 2 + r);
      if (!updated.ok()) {
        *detail = round + "page move failed: " + updated.ToString();
        return false;
      }
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!CheckAgainstOracle(column, queries[i],
                              round + "routed query " + std::to_string(i),
                              detail)) {
        return false;
      }
    }
    auto flushed = column->FlushUpdates();
    if (!flushed.ok()) {
      *detail = round + "FlushUpdates failed: " + flushed.status().ToString();
      return false;
    }
  }
  auto batch = column->ExecuteBatch(queries);
  if (!batch.ok()) {
    *detail = "ExecuteBatch failed: " + batch.status().ToString();
    return false;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto oracle = column->ExecuteFullScan(queries[i]);
    if (!oracle.ok()) {
      *detail = "batch oracle " + std::to_string(i) +
                " failed: " + oracle.status().ToString();
      return false;
    }
    const QueryExecution& got = batch->queries[i];
    if (got.match_count != oracle->match_count || got.sum != oracle->sum) {
      *detail = "batch query " + std::to_string(i) +
                " mismatch: batch count=" + std::to_string(got.match_count) +
                " sum=" + std::to_string(got.sum) +
                " vs oracle count=" + std::to_string(oracle->match_count) +
                " sum=" + std::to_string(oracle->sum);
      return false;
    }
  }
  return true;
}

/// The faults clear: queries stay exact, and the next maintenance pass
/// (forced by an update) re-probes the mapping layer and drops the
/// pressure flag. No degraded flag may linger.
bool CheckRecovery(AdaptiveColumn* column, FaultInjectingVmIo* io,
                   std::string* detail) {
  io->Arm(VmFaultPlan{});  // resource pressure over; accountant lives on
  const Status updated = column->Update(UpdateRow(25), UpdateValue(25));
  if (!updated.ok()) {
    *detail = "recovery update failed: " + updated.ToString();
    return false;
  }
  const std::vector<RangeQuery> queries = ScriptQueries(0);
  for (size_t i = 0; i < 3; ++i) {
    if (!CheckAgainstOracle(column, queries[i],
                            "recovery query " + std::to_string(i), detail)) {
      return false;
    }
  }
  const ColumnHealth health = column->Health();
  if (health.mapping_pressure) {
    *detail = "mapping_pressure still set after faults cleared";
    return false;
  }
  if (health.degraded_read_only) {
    *detail = "degraded_read_only set on an in-memory column";
    return false;
  }
  return true;
}

struct FaultKindSpec {
  const char* name;
  int fail_errno;
  bool sticky;
};

constexpr FaultKindSpec kKinds[] = {
    {"enomem_once", ENOMEM, false},
    {"eagain_once", EAGAIN, false},
    {"enospc_once", ENOSPC, false},
    {"enomem_sticky", ENOMEM, true},
};

struct TargetSpec {
  const char* name;
  VmOp op;
};

constexpr TargetSpec kTargets[] = {
    {"any", VmOp::kAny},           {"mmap", VmOp::kMmap},
    {"mprotect", VmOp::kMprotect}, {"munmap", VmOp::kMunmap},
    {"mremap", VmOp::kMremap},     {"madvise", VmOp::kMadvise},
};

uint64_t ClassOps(VmOp op, const FaultInjectingVmIo::Stats& s) {
  switch (op) {
    case VmOp::kAny: return s.ops();
    case VmOp::kMmap: return s.mmaps;
    case VmOp::kMunmap: return s.munmaps;
    case VmOp::kMremap: return s.mremaps;
    case VmOp::kMprotect: return s.mprotects;
    case VmOp::kMadvise: return s.madvises;
    case VmOp::kMemfdCreate: return s.memfd_creates;
    case VmOp::kFtruncate: return s.ftruncates;
  }
  return 0;
}

uint64_t PointSeed(uint64_t target_idx, int fail_errno, uint64_t op) {
  return (op * 1315423911ull) ^ (static_cast<uint64_t>(fail_errno) << 17) ^
         (target_idx * 2654435761ull);
}

/// Script-only op counts: Arm resets the fault-plan counter but stats
/// accumulate from construction, so the genesis contribution is subtracted
/// (armed runs count op indices from Arm, i.e. genesis ops never fire).
FaultInjectingVmIo::Stats SubtractStats(const FaultInjectingVmIo::Stats& a,
                                        const FaultInjectingVmIo::Stats& b) {
  FaultInjectingVmIo::Stats d;
  d.mmaps = a.mmaps - b.mmaps;
  d.munmaps = a.munmaps - b.munmaps;
  d.mremaps = a.mremaps - b.mremaps;
  d.mprotects = a.mprotects - b.mprotects;
  d.madvises = a.madvises - b.madvises;
  d.memfd_creates = a.memfd_creates - b.memfd_creates;
  d.ftruncates = a.ftruncates - b.ftruncates;
  return d;
}

class VmFaultMatrix {
 public:
  VmFaultMatrix(std::string name, const Scenario& scenario,
                std::string dir = "")
      : name_(std::move(name)), scenario_(scenario), dir_(std::move(dir)) {}

  void Run() {
    // Fault-free accounting run sizes the matrix: per-class op totals of
    // the scripted workload (genesis excluded — the counter is reset after
    // construction, exactly like the armed runs). The full sweep grows the
    // round count until the measured op surface clears the point floor —
    // every armed point then replays the SAME round count, so op indices
    // land where the accounting run measured them.
    uint64_t rounds = 1;
    FaultInjectingVmIo::Stats surface;
    for (;;) {
      FaultInjectingVmIo counter;
      auto column = MakeFaultableColumn(scenario_, &counter, dir_);
      ASSERT_TRUE(column.ok()) << column.status().ToString();
      const FaultInjectingVmIo::Stats genesis = counter.stats();
      counter.Arm(VmFaultPlan{});
      std::string detail;
      ASSERT_TRUE(RunScript(column->get(), rounds, &detail, scenario_.tiering))
          << name_ << " fault-free script: " << detail;
      surface = SubtractStats(counter.stats(), genesis);
      ASSERT_GT(surface.ops(), 0u) << name_ << ": script produced no VM ops";
      if (!FullSweep() || rounds >= kMaxRounds ||
          EstimatedPoints(surface) >= kMinFullPointsPerScenario) {
        break;
      }
      ++rounds;
    }

    std::cout << "[ matrix   ] " << name_ << ": rounds=" << rounds
              << " surface mmap=" << surface.mmaps
              << " munmap=" << surface.munmaps
              << " mremap=" << surface.mremaps
              << " mprotect=" << surface.mprotects << std::endl;

    uint64_t points = 0;
    uint64_t failures = 0;
    for (uint64_t t = 0; t < std::size(kTargets); ++t) {
      const TargetSpec& target = kTargets[t];
      const uint64_t class_total = ClassOps(target.op, surface);
      if (class_total == 0) continue;
      // Smoke: stride the any-target sweep and probe one midpoint per
      // specific class. Full: every index of every class, every kind.
      uint64_t stride = 1;
      uint64_t first = 1;
      const FaultKindSpec* kind_begin = std::begin(kKinds);
      const FaultKindSpec* kind_end = std::end(kKinds);
      if (!FullSweep()) {
        if (target.op == VmOp::kAny) {
          stride = std::max<uint64_t>(1, class_total / 8);
        } else {
          first = std::max<uint64_t>(1, class_total / 2);
          stride = class_total + 1;  // single midpoint
          kind_end = kind_begin + 1;
        }
      }
      for (const FaultKindSpec* kind = kind_begin; kind != kind_end; ++kind) {
        for (uint64_t op = first; op <= class_total; op += stride) {
          const uint64_t seed = PointSeed(t, kind->fail_errno, op);
          ++points;
          std::string point_detail;
          if (!RunPoint(target, *kind, op, seed, rounds, &point_detail)) {
            ++failures;
            ADD_FAILURE() << "VM-FAULT-POINT-FAILED scenario=" << name_
                          << " target=" << target.name
                          << " kind=" << kind->name << " op=" << op
                          << " seed=" << seed << " :: " << point_detail;
            if (failures >= 10) {
              ADD_FAILURE() << name_ << ": too many fault-point failures, "
                            << "aborting the sweep";
              return;
            }
          }
        }
      }
    }
    if (FullSweep()) {
      EXPECT_GE(points, kMinFullPointsPerScenario)
          << name_ << ": full sweep too small to be meaningful";
    }
    ::testing::Test::RecordProperty(name_ + "_points",
                                    static_cast<int>(points));
  }

 private:
  /// Accounting-run rounds are capped: if this much pool churn still
  /// leaves the surface under the floor, the sweep reports what it has
  /// (the EXPECT_GE below flags the shortfall instead of spinning).
  static constexpr uint64_t kMaxRounds = 16;

  /// Full-sweep size for a given op surface: every kind at every index of
  /// every non-empty class.
  static uint64_t EstimatedPoints(const FaultInjectingVmIo::Stats& s) {
    uint64_t estimate = 0;
    for (const TargetSpec& target : kTargets) {
      estimate += std::size(kKinds) * ClassOps(target.op, s);
    }
    return estimate;
  }

  bool RunPoint(const TargetSpec& target, const FaultKindSpec& kind,
                uint64_t op, uint64_t seed, uint64_t rounds,
                std::string* detail) {
    FaultInjectingVmIo io;
    auto column = MakeFaultableColumn(scenario_, &io, dir_);
    if (!column.ok()) {
      *detail = "genesis failed: " + column.status().ToString();
      return false;
    }
    VmFaultPlan plan;
    plan.op_index = op;
    plan.fail_errno = kind.fail_errno;
    plan.sticky = kind.sticky;
    plan.target = target.op;
    plan.seed = seed;
    io.Arm(plan);
    if (!RunScript(column->get(), rounds, detail, scenario_.tiering)) {
      return false;
    }
    return CheckRecovery(column->get(), &io, detail);
  }

  std::string name_;
  Scenario scenario_;
  std::string dir_;  // persist dir for tiering scenarios (recycled per point)
};

TEST(VmFaultMatrixTest, single_view) {
  VmFaultMatrix("single_view", {QueryMode::kSingleView, 8, false}).Run();
}

TEST(VmFaultMatrixTest, multi_view_cost) {
  VmFaultMatrix("multi_view_cost", {QueryMode::kMultiView, 8, true}).Run();
}

TEST(VmFaultMatrixTest, tight_budget) {
  VmFaultMatrix("tight_budget", {QueryMode::kSingleView, 2, false}).Run();
}

TEST(VmFaultMatrixTest, tiering) {
  // Durable scenario: the script releases arenas, the routed pass maps the
  // views again — every such mmap is a fault point, and the exactness
  // invariant proves the base-scan fallback covers each one.
  ScopedTempDir scratch("vm_fault_tiering");
  VmFaultMatrix("tiering",
                {QueryMode::kSingleView, 4, false, /*tiering=*/true},
                scratch.path() + "/col")
      .Run();
}

// ---------------------------------------------------------------------------
// Satellite: PartialViewIndex error contract (the historical abort paths).

TEST(PartialViewIndexTest, ReplaceRejectsForeignViewsAndTakeAllEmpties) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  auto column = MakeColumn(spec, NumRows());
  ASSERT_TRUE(column.ok()) << column.status().ToString();

  auto pooled = BuildViewByScan(**column, 0, kMaxValue / 2);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  auto foreign = BuildViewByScan(**column, 0, kMaxValue / 4);
  ASSERT_TRUE(foreign.ok()) << foreign.status().ToString();
  auto candidate = BuildViewByScan(**column, 0, kMaxValue / 3);
  ASSERT_TRUE(candidate.ok()) << candidate.status().ToString();

  PartialViewIndex index;
  VirtualView* pooled_ptr = pooled->get();
  index.Insert(std::move(pooled).ValueOrDie());

  // A victim that is not a pool member must fail cleanly (this used to be
  // a VMSV_CHECK abort), leave the pool untouched, and destroy the
  // candidate per the contract.
  auto replaced =
      index.Replace(foreign->get(), std::move(candidate).ValueOrDie());
  ASSERT_FALSE(replaced.ok());
  EXPECT_EQ(replaced.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_EQ(index.num_partial_views(), 1u);
  EXPECT_EQ(index.views()[0].get(), pooled_ptr);

  // The failed-alignment drop hands back every member and empties the pool.
  auto detached = index.TakeAll();
  ASSERT_EQ(detached.size(), 1u);
  EXPECT_EQ(detached.front().get(), pooled_ptr);
  EXPECT_EQ(index.num_partial_views(), 0u);
}

// ---------------------------------------------------------------------------
// Creation-time faults: the backing file's own syscalls.

TEST(VmFaultSeamTest, MemfdCreateFailureSurfacesErrno) {
  VmFaultPlan plan;
  plan.op_index = 1;
  plan.fail_errno = EMFILE;
  plan.target = VmOp::kMemfdCreate;
  FaultInjectingVmIo io(plan);
  auto file = PhysicalMemoryFile::Create(4, &io);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().sys_errno(), EMFILE);

  io.Arm(VmFaultPlan{});
  auto retry = PhysicalMemoryFile::Create(4, &io);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(VmFaultSeamTest, FtruncateEnospcFailsCreationCleanly) {
  VmFaultPlan plan;
  plan.op_index = 1;
  plan.fail_errno = ENOSPC;
  plan.target = VmOp::kFtruncate;
  FaultInjectingVmIo io(plan);
  auto file = PhysicalMemoryFile::Create(4, &io);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().sys_errno(), ENOSPC);
}

// ---------------------------------------------------------------------------
// The VMA accountant: one reservation driven through a fixed sequence of
// MAP_FIXED file and anonymous maps and unmaps. Each step's count is
// derived by hand from the kernel's merge rules (anonymous segments merge
// with anonymous neighbors; file segments only at contiguous offsets of
// the same fd), and each map's budget probe must predict it exactly: a
// budget one below the count refuses the map, a budget at it admits it.

TEST(VmFaultSeamTest, VmaAccountantFollowsSplitsAndMerges) {
  FaultInjectingVmIo io;
  auto fd = io.MemfdCreate("vma_accountant", 0);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(io.Ftruncate(*fd, 8 * kPageSize, "ftruncate").ok());
  auto reserved = io.Mmap(nullptr, 16 * kPageSize, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0,
                          "reserve");
  ASSERT_TRUE(reserved.ok()) << reserved.status().ToString();
  uint8_t* const base = static_cast<uint8_t*>(*reserved);
  EXPECT_EQ(io.vma_count(), 1u);
  EXPECT_EQ(io.peak_vma_count(), 1u);

  struct Step {
    const char* what;
    bool unmap;
    uint64_t slot;
    uint64_t pages;
    int64_t file_page;  // -1: anonymous
    uint64_t vmas;
    uint64_t peak;
  };
  // Segments after each step, in slots: a = anonymous, f@k = file page k.
  const std::vector<Step> steps = {
      // a[0,4) f@0[4,5) a[5,16)
      {"file page splits the reservation", false, 4, 1, 0, 3, 3},
      // a[0,4) f@0[4,6) a[6,16)
      {"contiguous offset merges left", false, 5, 1, 1, 3, 3},
      // a[0,4) f@0[4,6) f@5[6,7) a[7,16)
      {"non-contiguous offset stays apart", false, 6, 1, 5, 4, 4},
      // a[0,4) f@0[4,5) f@4[5,7) a[7,16)
      {"split, then merge right", false, 5, 1, 4, 4, 4},
      // a[0,4) f@0[4,5) a[7,16)
      {"unmap a whole segment", true, 5, 2, -1, 3, 4},
      // a[0,4) f@0[4,5) a[5,16)
      {"anonymous merges right", false, 5, 2, -1, 3, 4},
      // a[0,16)
      {"anonymous merges both sides", false, 4, 1, -1, 1, 4},
      // a[0,8) f@2[8,9) a[9,16)
      {"file page in the middle", false, 8, 1, 2, 3, 4},
      // a[0,8) f@2[8,9) a[9,10) f@3[10,11) a[11,16)
      {"next file page one slot apart", false, 10, 1, 3, 5, 5},
      // a[0,8) f@2[8,10) f@3[10,11) a[11,16)
      {"fill the gap: merges left only", false, 9, 1, 3, 4, 5},
      // a[0,8) f@2[8,10) f@3[10,11) a[11,12) a[13,16)
      {"unmap splits a segment", true, 12, 1, -1, 5, 5},
      {"unmap everything", true, 0, 16, -1, 0, 5},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(step.what);
    uint8_t* const addr = base + step.slot * kPageSize;
    const size_t len = step.pages * kPageSize;
    if (step.unmap) {
      ASSERT_TRUE(io.Munmap(addr, len, "unmap").ok());
    } else {
      const bool file = step.file_page >= 0;
      const int flags = MAP_FIXED | (file ? MAP_SHARED
                                          : MAP_PRIVATE | MAP_ANONYMOUS |
                                                MAP_NORESERVE);
      const off_t offset =
          file ? static_cast<off_t>(step.file_page * kPageSize) : 0;
      const auto map = [&] {
        return io.Mmap(addr, len, file ? PROT_READ : PROT_NONE, flags,
                       file ? *fd : -1, offset, "map");
      };
      // max_vmas 0 means unlimited, so a count of 1 has no refusing budget.
      if (step.vmas > 1) {
        VmFaultPlan tight;
        tight.max_vmas = step.vmas - 1;
        io.Arm(tight);
        const uint64_t before = io.vma_count();
        const auto refused = map();
        ASSERT_FALSE(refused.ok());
        EXPECT_EQ(refused.status().sys_errno(), ENOMEM);
        EXPECT_EQ(io.vma_count(), before);
      }
      VmFaultPlan exact;
      exact.max_vmas = step.vmas;
      io.Arm(exact);
      const auto mapped = map();
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ASSERT_EQ(*mapped, static_cast<void*>(addr));
    }
    EXPECT_EQ(io.vma_count(), step.vmas);
    EXPECT_EQ(io.peak_vma_count(), step.peak);
  }
  EXPECT_EQ(io.stats().budget_rejections, 8u);
  ::close(*fd);
}

// ---------------------------------------------------------------------------
// The vm.max_map_count-style budget: rejections degrade service (exact
// answers over the base mapping) and pressure relief sheds mappings.

TEST(VmFaultDegradationTest, MappingBudgetDegradesExactly) {
  FaultInjectingVmIo io;
  const Scenario scenario{QueryMode::kSingleView, 4, false};
  auto column = MakeFaultableColumn(scenario, &io);
  ASSERT_TRUE(column.ok()) << column.status().ToString();

  // Clamp the budget to exactly the live (post-genesis) mapping count: any
  // materialization whose rewire splits the anonymous reservation adds
  // segments and must be refused, exactly like vm.max_map_count.
  std::string detail;
  VmFaultPlan plan;
  plan.max_vmas = io.vma_count();
  io.Arm(plan);

  ASSERT_TRUE(RunScript(column->get(), 1, &detail)) << detail;
  EXPECT_GT(io.stats().budget_rejections, 0u);
  const ColumnHealth health = (*column)->Health();
  EXPECT_GT(health.map_failures, 0u);
  EXPECT_GT(health.base_fallbacks + health.views_demoted, 0u);

  // Lifting the budget recovers fully.
  ASSERT_TRUE(CheckRecovery(column->get(), &io, &detail)) << detail;
}

// Pressure relief releases arenas and keeps the views: an in-memory pool
// keeps every member through the episode, and a released view maps again
// at its threshold hit once the budget lifts.
TEST(VmFaultDegradationTest, PressureReliefKeepsInMemoryViews) {
  FaultInjectingVmIo io;
  const Scenario scenario{QueryMode::kSingleView, 16, false};
  auto column = MakeFaultableColumn(scenario, &io);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  // Four views over the sine column's 50M-92M span; the first three are
  // mapped by their first hit (threshold 1), the fourth holds no arena.
  const std::vector<RangeQuery> queries = {{50'000'000, 54'000'000},
                                           {62'000'000, 66'000'000},
                                           {74'000'000, 78'000'000},
                                           {86'000'000, 90'000'000}};
  std::string detail;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (int run = 0; run < (i < 3 ? 2 : 1); ++run) {
      ASSERT_TRUE(CheckAgainstOracle(column->get(), queries[i], "build",
                                     &detail))
          << detail;
    }
  }
  ASSERT_EQ((*column)->view_index().num_partial_views(), 4u);
  std::vector<const VirtualView*> mapped;
  for (const auto& view : (*column)->view_index().views()) {
    if (view->is_materialized()) mapped.push_back(view.get());
  }
  ASSERT_EQ(mapped.size(), 3u);

  // A sticky budget at today's mapping count: the fourth view's hits
  // cannot map, and the next query's relief must release arenas to map
  // its probe.
  VmFaultPlan plan;
  plan.max_vmas = io.vma_count();
  io.Arm(plan);
  for (int hit = 0; hit < 3; ++hit) {
    ASSERT_TRUE(CheckAgainstOracle(column->get(), queries[3], "pressure",
                                   &detail))
        << detail;
  }
  const ColumnHealth health = (*column)->Health();
  EXPECT_GT(io.stats().budget_rejections, 0u);
  EXPECT_GT(health.views_demoted, 0u);
  // Checked before `mapped` is read: a destroyed view would dangle.
  ASSERT_EQ((*column)->view_index().num_partial_views(), 4u);
  std::vector<RangeQuery> released;
  for (const VirtualView* view : mapped) {
    if (!view->is_materialized()) released.push_back(view->value_range());
  }
  ASSERT_FALSE(released.empty());

  ASSERT_TRUE(CheckRecovery(column->get(), &io, &detail)) << detail;
  for (const RangeQuery& range : released) {
    ASSERT_TRUE(CheckAgainstOracle(column->get(), range, "remap", &detail))
        << detail;
    const VirtualView* view =
        (*column)->view_index().FindSmallestCovering(range);
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->is_materialized());
  }
}

// A client that only ever batches still gets the maintenance pass that
// clears mapping pressure: batches share Execute's maintenance-first step.
TEST(VmFaultDegradationTest, BatchOnlyClientRelievesMappingPressure) {
  FaultInjectingVmIo io;
  const Scenario scenario{QueryMode::kSingleView, 4, false};
  auto column = MakeFaultableColumn(scenario, &io);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  const RangeQuery q{20'000'000, 30'000'000};
  // Batches never adapt: one Execute builds the (lazy, unmapped) view.
  ASSERT_TRUE((*column)->Execute(q).ok());

  VmFaultPlan plan;
  plan.op_index = 1;
  plan.target = VmOp::kMmap;
  plan.fail_errno = ENOMEM;
  io.Arm(plan);
  auto degraded = (*column)->ExecuteBatch({q});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->queries.front().stats.decision,
            CandidateDecision::kBaseFallback);
  EXPECT_TRUE((*column)->Health().mapping_pressure);

  io.Arm(VmFaultPlan{});  // the fault lifts
  auto healed = (*column)->ExecuteBatch({q});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE((*column)->Health().mapping_pressure);
  EXPECT_EQ(healed->view_answered, 1u);
  EXPECT_EQ(healed->queries.front().stats.decision,
            CandidateDecision::kAnsweredFromView);
  auto oracle = (*column)->ExecuteFullScan(q);
  ASSERT_TRUE(oracle.ok());
  for (const auto* batch : {&*degraded, &*healed}) {
    EXPECT_EQ(batch->queries.front().match_count, oracle->match_count);
    EXPECT_EQ(batch->queries.front().sum, oracle->sum);
  }
}

// ---------------------------------------------------------------------------
// The materialization threshold: below it a view reads over the base
// mapping and makes no mapping call at all; the hit that reaches it maps,
// and a failure there degrades exactly like any other.

TEST(VmFaultThresholdTest, BelowThresholdNoMappingCallIsMade) {
  FaultInjectingVmIo io;
  Scenario scenario{QueryMode::kMultiView, 8, true};
  scenario.materialize_after_hits = AdaptiveConfig{}.materialize_after_hits;
  auto column = MakeFaultableColumn(scenario, &io);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  VmFaultPlan plan;
  plan.op_index = 1;
  plan.sticky = true;
  io.Arm(plan);
  // Misses build lazy candidates; each repeat and the wide queries are hits
  // over base, single views and multi-view covers alike.
  std::string detail;
  for (int pass = 0; pass < 3; ++pass) {
    for (const RangeQuery& q : ScriptQueries(0)) {
      ASSERT_TRUE(CheckAgainstOracle(column->get(), q, "pass", &detail))
          << detail;
    }
  }
  auto batch = (*column)->ExecuteBatch(ScriptQueries(0));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(batch->view_answered, 0u);
  EXPECT_EQ(io.op_count(), 0u);
  const ColumnHealth health = (*column)->Health();
  EXPECT_EQ(health.map_failures, 0u);
  EXPECT_EQ(health.base_fallbacks, 0u);
  EXPECT_FALSE(health.mapping_pressure);
}

TEST(VmFaultThresholdTest, MapFailureAtThresholdFallsBackExactly) {
  FaultInjectingVmIo io;
  Scenario scenario{QueryMode::kSingleView, 4, false};
  scenario.materialize_after_hits = 3;
  auto column = MakeFaultableColumn(scenario, &io);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  const RangeQuery q{20'000'000, 30'000'000};
  auto oracle = (*column)->ExecuteFullScan(q);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE((*column)->Execute(q).ok());  // the miss: a lazy candidate

  VmFaultPlan plan;
  plan.op_index = 1;
  plan.sticky = true;
  plan.target = VmOp::kMmap;
  plan.fail_errno = ENOMEM;
  io.Arm(plan);
  for (int hit = 1; hit <= 3; ++hit) {
    SCOPED_TRACE("hit " + std::to_string(hit));
    auto exec = (*column)->Execute(q);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->match_count, oracle->match_count);
    EXPECT_EQ(exec->sum, oracle->sum);
    // Hits 1 and 2 read over base; the third tries to map and falls back.
    EXPECT_EQ(exec->stats.decision, hit < 3
                                        ? CandidateDecision::kAnsweredFromView
                                        : CandidateDecision::kBaseFallback);
    EXPECT_EQ(io.op_count() > 0, hit == 3);
  }
  const ColumnHealth health = (*column)->Health();
  EXPECT_TRUE(health.mapping_pressure);
  EXPECT_EQ(health.map_failures, 1u);
  EXPECT_EQ(health.base_fallbacks, 1u);
  EXPECT_FALSE((*column)->view_index().views().front()->is_materialized());

  io.Arm(VmFaultPlan{});  // the fault lifts: the next hit maps
  auto healed = (*column)->Execute(q);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(healed->match_count, oracle->match_count);
  EXPECT_EQ(healed->sum, oracle->sum);
  EXPECT_TRUE((*column)->view_index().views().front()->is_materialized());
  EXPECT_FALSE((*column)->Health().mapping_pressure);
}

// ---------------------------------------------------------------------------
// Durable ENOSPC: the journal append fails, the column flips to explicit
// read-only degradation, reads stay exact, and the first successful append
// clears the flag.

TEST(VmFaultDegradationTest, DurableEnospcFlipsReadOnlyAndRecovers) {
  ScopedTempDir tmp("vm_fault_enospc");
  FaultInjectingIo storage_io;
  AdaptiveConfig config;
  config.storage.io = &storage_io;
  auto table_r = Db::CreateDurable(tmp.path(), NumRows(), DbOptions{config});
  ASSERT_TRUE(table_r.ok()) << table_r.status().ToString();
  OwnedColumn column{std::move(table_r).ValueOrDie()};

  FaultPlan disk_full;
  disk_full.kind = FaultKind::kFailOp;
  disk_full.op_index = 1;
  disk_full.fail_errno = ENOSPC;
  storage_io.Arm(disk_full);

  const Status stalled = column->Update(5, 123);
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.sys_errno(), ENOSPC);
  ColumnHealth health = column->Health();
  EXPECT_TRUE(health.degraded_read_only);
  EXPECT_EQ(health.read_only_entries, 1u);
  EXPECT_EQ(health.journal_stalls, 1u);
  // The rejected update applied nothing.
  EXPECT_EQ(column->column().Get(5), 0u);

  // Reads keep answering exactly while write-degraded.
  const RangeQuery q{0, kMaxValue};
  auto oracle = column->ExecuteFullScan(q);
  ASSERT_TRUE(oracle.ok());
  auto exec = column->Execute(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->match_count, oracle->match_count);
  EXPECT_EQ(exec->sum, oracle->sum);

  // A second rejected append does not double-count the transition.
  storage_io.Arm(disk_full);
  ASSERT_FALSE(column->Update(6, 456).ok());
  health = column->Health();
  EXPECT_EQ(health.read_only_entries, 1u);
  EXPECT_EQ(health.journal_stalls, 2u);

  // Space returns: the next append succeeds and the flag self-clears.
  storage_io.Arm(FaultPlan{});
  ASSERT_TRUE(column->Update(5, 123).ok());
  health = column->Health();
  EXPECT_FALSE(health.degraded_read_only);
  EXPECT_EQ(health.read_only_exits, 1u);
  EXPECT_EQ(column->column().Get(5), 123u);
}

// ---------------------------------------------------------------------------
// The runner's health surface: a workload under sticky exhaustion still
// verifies bit-exactly against its own baseline, and the report says HOW
// degraded the run was.

TEST(VmFaultDegradationTest, RunnerVerifiesUnderStickyExhaustion) {
  FaultInjectingVmIo io;
  const Scenario scenario{QueryMode::kSingleView, 8, false};
  auto column = MakeFaultableColumn(scenario, &io);
  ASSERT_TRUE(column.ok()) << column.status().ToString();

  VmFaultPlan plan;
  plan.op_index = 1;
  plan.fail_errno = ENOMEM;
  plan.sticky = true;
  io.Arm(plan);

  RunnerOptions options;
  options.verify_results = true;
  options.warmup = false;
  // Two passes: the first adapts (lazy candidates, no mapping work), the
  // second routes into those views and hits the exhausted mapping layer.
  std::vector<RangeQuery> queries = ScriptQueries(0);
  const std::vector<RangeQuery> again = queries;
  queries.insert(queries.end(), again.begin(), again.end());
  auto report = RunWorkload(column->table.get(), queries, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->health.base_fallbacks, 0u);
  EXPECT_GT(report->health.map_failures, 0u);
  EXPECT_TRUE(report->health.mapping_pressure);
}

}  // namespace
}  // namespace vmsv
