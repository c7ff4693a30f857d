// Helpers of the end-to-end benchmark that carry its rules: which tail
// percentile a sample count supports, each op's best latency over
// sessions, the open-loop schedule, how a traced op's time splits into
// layers, how failed ops are counted, and the /proc probes behind mem_mb,
// page tables, VMAs and steal. None of it depends on
// the engine, so harness_test pins the rules directly.

#ifndef VMSV_PERFBENCH_HARNESS_H_
#define VMSV_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/types.h"

namespace vmsv {
namespace perfbench {

/// steady_clock in nanoseconds.
int64_t NowNs();

// ---------------------------------------------------------------------------
// Percentiles

/// 1-based rank (ascending) of the tail sample among n: the nearest-rank
/// p99 when n >= 1000; otherwise the highest rank that leaves 10 samples
/// beyond it, but never below the median.
size_t TailRank(size_t n);

/// The percentile TailRank stands for, 100 * rank / n (0 for n == 0).
double TailPercentile(size_t n);

/// The sample at TailRank; 0 for no samples.
double Tail(std::vector<double> samples);

/// Nearest-rank percentile (p in (0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// Best latency of each op over sessions that replay one op sequence:
/// entry i is the minimum of sessions[s][i] over the sessions that ran op i
/// (a failed op holds +inf there). Ops that failed in every session are
/// left out; they count as failed ops instead. Host noise only ever adds
/// time to an op, so its minimum over sessions spread across a run moves
/// least from run to run.
std::vector<double> BestPerOp(
    const std::vector<const std::vector<double>*>& sessions);

// ---------------------------------------------------------------------------
// Failure accounting

/// Ops of one workload. The failure kinds are disjoint per op: an op that
/// returned an error has no answer to check, and an unfinished one has
/// neither.
struct OpTally {
  uint64_t attempted = 0;
  /// Returned an error status.
  uint64_t errors = 0;
  /// Answer differed from the oracle.
  uint64_t wrong = 0;
  /// Open loop: never ran, or finished more than a grace period after the
  /// window closed.
  uint64_t unfinished = 0;

  uint64_t failed() const { return errors + wrong + unfinished; }
  /// A single wrong answer fails the run.
  bool correct() const { return wrong == 0; }

  /// Counts one open-loop op. An op that ran and returned an error is an
  /// error; one that never ran, or finished after the deadline (`late`), is
  /// unfinished. Returns true when the op completed in time without error.
  bool CountOpenLoop(bool ran, bool ok, bool late);
};

// ---------------------------------------------------------------------------
// Open-loop schedule

enum class OpKind : uint8_t { kRead, kUpdate };

struct ScheduledOp {
  /// Due time, relative to the window start.
  int64_t due_ns = 0;
  OpKind kind = OpKind::kRead;
  /// Reads: index into the fixed range set.
  uint32_t range = 0;
  /// Updates: target row and new value.
  uint64_t row = 0;
  Value value = 0;
};

struct ScheduleSpec {
  uint64_t seed = 0;
  double seconds = 0;
  double reads_per_s = 0;
  double updates_per_s = 0;
  uint32_t num_ranges = 0;
  uint64_t num_rows = 0;
};

/// `n` ranges, each `width` wide, range i centred in the i-th of n equal
/// slices of [0, domain_hi]. Requires width <= domain_hi / n.
std::vector<RangeQuery> FixedRanges(uint32_t n, Value domain_hi, Value width);

/// Reads and updates at fixed, evenly spaced rates, merged in due order.
/// The seed picks each read's range, each update's row (distinct within the
/// schedule, so the oracle can model the final state from the original
/// values) and each new value, drawn from `population` so the value
/// distribution stays the generated one.
std::vector<ScheduledOp> MakeOpenLoopSchedule(
    const ScheduleSpec& spec, const std::vector<Value>& population);

// ---------------------------------------------------------------------------
// Spans

/// The seam calls the tracing decorators time. The first block belongs to
/// the `rewiring` layer (VmIo), the second to `storage` (StorageIo).
enum class SeamCall : uint8_t {
  kMmap,
  kMunmap,
  kMremap,
  kMprotect,
  kMadvise,
  kMemfdCreate,
  kFtruncate,
  kWrite,
  kPwrite,
  kFsync,
  kFsyncDir,
  kRename,
  kTruncate,
  kSyncFileRange,
  kCount,
};

inline constexpr size_t kNumSeamCalls = static_cast<size_t>(SeamCall::kCount);

const char* SeamCallName(SeamCall call);
inline bool IsStorageCall(SeamCall call) { return call >= SeamCall::kWrite; }

/// One Table call of the client.
struct OpSpan {
  uint64_t id = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One seam call made while op `op` was in flight (0: no op was).
struct ChildSpan {
  uint64_t op = 0;
  SeamCall call = SeamCall::kMmap;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
};

/// Where one op's wall time went. Child spans are clipped to the op and
/// overlapping children (engine threads) count once: each layer's time is
/// the union of its children, and self time — core + exec — is the op's
/// duration minus the union of all children.
struct LayerTimes {
  int64_t self_ns = 0;
  int64_t rewiring_ns = 0;
  int64_t storage_ns = 0;
};

LayerTimes AttributeOp(const OpSpan& op, const std::vector<ChildSpan>& children);

// ---------------------------------------------------------------------------
// Host probes (Linux /proc; 0 where unavailable)

/// Proportional set size plus page tables, in MB (Pss from
/// /proc/self/smaps_rollup, VmPTE from /proc/self/status). RSS would count a
/// page once per view mapping it.
double ProcessMemMb();

/// VmPTE in MB.
double PageTableMb();

/// Mappings in /proc/self/maps.
uint64_t CountVmas();

/// CPU time of the whole machine (/proc/stat jiffies) and of this process.
struct CpuTimes {
  uint64_t steal = 0;
  /// user + nice + system + irq + softirq.
  uint64_t busy = 0;
  uint64_t total = 0;
  /// This process's user + system CPU seconds.
  double self_s = 0;
};
CpuTimes ReadCpuTimes();
/// Share of the machine's CPU time the hypervisor gave to other guests.
double StealPct(const CpuTimes& before, const CpuTimes& after);
/// Share of the machine's CPU time other processes of this guest used.
double OthersBusyPct(const CpuTimes& before, const CpuTimes& after);

}  // namespace perfbench
}  // namespace vmsv

#endif  // VMSV_PERFBENCH_HARNESS_H_
