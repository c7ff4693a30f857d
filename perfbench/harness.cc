#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "util/random.h"

namespace vmsv {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// 1-based nearest rank of the p-th percentile of n samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

size_t TailRank(size_t n) {
  if (n == 0) return 0;
  if (n >= 1000) return NearestRank(n, 99);
  return std::max(n > 10 ? n - 10 : 0, NearestRank(n, 50));
}

double TailPercentile(size_t n) {
  return n == 0 ? 0 : 100.0 * static_cast<double>(TailRank(n)) /
                          static_cast<double>(n);
}

double Tail(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t k = TailRank(samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> BestPerOp(
    const std::vector<const std::vector<double>*>& sessions) {
  std::vector<double> best;
  for (const std::vector<double>* s : sessions) {
    if (s->size() > best.size()) {
      best.resize(s->size(), std::numeric_limits<double>::infinity());
    }
    for (size_t i = 0; i < s->size(); ++i) best[i] = std::min(best[i], (*s)[i]);
  }
  best.erase(std::remove_if(best.begin(), best.end(),
                            [](double v) { return !std::isfinite(v); }),
             best.end());
  return best;
}

bool OpTally::CountOpenLoop(bool ran, bool ok, bool late) {
  ++attempted;
  if (ran && !ok) {
    ++errors;
    return false;
  }
  if (!ran || late) {
    ++unfinished;
    return false;
  }
  return true;
}

std::vector<RangeQuery> FixedRanges(uint32_t n, Value domain_hi, Value width) {
  const Value slice = domain_hi / n;
  std::vector<RangeQuery> ranges;
  for (uint32_t i = 0; i < n; ++i) {
    const Value lo = i * slice + (slice - width) / 2;
    ranges.push_back(RangeQuery{lo, lo + width});
  }
  return ranges;
}

std::vector<ScheduledOp> MakeOpenLoopSchedule(
    const ScheduleSpec& spec, const std::vector<Value>& population) {
  Rng rng(spec.seed);
  std::vector<ScheduledOp> ops;
  const auto count = [&](double rate) {
    return static_cast<uint64_t>(std::floor(rate * spec.seconds));
  };
  // Half-period phase offsets keep the two evenly spaced streams from
  // landing on the same instant.
  for (uint64_t i = 0; i < count(spec.reads_per_s); ++i) {
    ScheduledOp op;
    op.due_ns = static_cast<int64_t>((static_cast<double>(i) + 0.25) * 1e9 /
                                     spec.reads_per_s);
    op.kind = OpKind::kRead;
    op.range = static_cast<uint32_t>(rng.Below(spec.num_ranges));
    ops.push_back(op);
  }
  std::unordered_set<uint64_t> rows;
  for (uint64_t i = 0; i < count(spec.updates_per_s); ++i) {
    ScheduledOp op;
    op.due_ns = static_cast<int64_t>((static_cast<double>(i) + 0.5) * 1e9 /
                                     spec.updates_per_s);
    op.kind = OpKind::kUpdate;
    do {
      op.row = rng.Below(spec.num_rows);
    } while (!rows.insert(op.row).second);
    op.value = population[rng.Below(population.size())];
    ops.push_back(op);
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ScheduledOp& a, const ScheduledOp& b) {
                     return a.due_ns < b.due_ns;
                   });
  return ops;
}

const char* SeamCallName(SeamCall call) {
  switch (call) {
    case SeamCall::kMmap: return "mmap";
    case SeamCall::kMunmap: return "munmap";
    case SeamCall::kMremap: return "mremap";
    case SeamCall::kMprotect: return "mprotect";
    case SeamCall::kMadvise: return "madvise";
    case SeamCall::kMemfdCreate: return "memfd_create";
    case SeamCall::kFtruncate: return "ftruncate";
    case SeamCall::kWrite: return "write";
    case SeamCall::kPwrite: return "pwrite";
    case SeamCall::kFsync: return "fsync";
    case SeamCall::kFsyncDir: return "fsync_dir";
    case SeamCall::kRename: return "rename";
    case SeamCall::kTruncate: return "truncate";
    case SeamCall::kSyncFileRange: return "sync_file_range";
    case SeamCall::kCount: break;
  }
  return "unknown";
}

namespace {

/// Total length of the union of [start, end) intervals (sorted in place).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : *intervals) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

LayerTimes AttributeOp(const OpSpan& op,
                       const std::vector<ChildSpan>& children) {
  std::vector<std::pair<int64_t, int64_t>> all;
  std::vector<std::pair<int64_t, int64_t>> rewiring;
  std::vector<std::pair<int64_t, int64_t>> storage;
  for (const ChildSpan& c : children) {
    const int64_t start = std::max(c.start_ns, op.start_ns);
    const int64_t end = std::min(c.end_ns, op.end_ns);
    if (end <= start) continue;
    all.emplace_back(start, end);
    (IsStorageCall(c.call) ? storage : rewiring).emplace_back(start, end);
  }
  LayerTimes t;
  t.self_ns = (op.end_ns - op.start_ns) - UnionLength(&all);
  t.rewiring_ns = UnionLength(&rewiring);
  t.storage_ns = UnionLength(&storage);
  return t;
}

namespace {

/// Value in kB of the first line of `path` starting with `key`.
double ReadKbField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr);
    }
  }
  return 0;
}

}  // namespace

double ProcessMemMb() {
  return (ReadKbField("/proc/self/smaps_rollup", "Pss:") +
          ReadKbField("/proc/self/status", "VmPTE:")) /
         1024.0;
}

double PageTableMb() {
  return ReadKbField("/proc/self/status", "VmPTE:") / 1024.0;
}

uint64_t CountVmas() {
  std::ifstream in("/proc/self/maps");
  std::string line;
  uint64_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    t.self_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
                   1e6;
  }
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field <= 2 || field == 5 || field == 6) t.busy += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double OthersBusyPct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0;
  const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double busy_s = static_cast<double>(after.busy - before.busy) / hz;
  const double total_s = static_cast<double>(after.total - before.total) / hz;
  return 100.0 * std::max(0.0, busy_s - (after.self_s - before.self_s)) /
         total_s;
}

}  // namespace perfbench
}  // namespace vmsv
