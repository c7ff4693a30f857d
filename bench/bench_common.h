// Shared setup for the per-figure benchmark harnesses: environment knobs,
// mapping-budget handling, and uniform reporting.
//
// Scale note (DESIGN.md §3): paper experiments use 1M-page (4 GB) columns on
// an 8-core machine with vm.max_map_count raised to 2^32-1. Defaults here
// fit a small container; set VMSV_PAGES=1048576 (and raise vm.max_map_count)
// to reproduce paper scale.
//
// Every harness runs on top of the scan execution engine (src/exec/): the
// active kernel (VMSV_KERNEL) and scan parallelism (VMSV_THREADS) are
// printed in the header and emitted as `kernel`/`threads` CSV columns so
// each figure's numbers are attributable to a scan configuration.

#ifndef VMSV_BENCH_BENCH_COMMON_H_
#define VMSV_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "exec/thread_pool.h"
#include "storage/types.h"
#include "util/env.h"
#include "util/stopwatch.h"

namespace vmsv {
namespace bench {

/// Environment-configurable benchmark parameters.
struct BenchEnv {
  /// Column size in pages (VMSV_PAGES).
  uint64_t pages;
  /// Queries per sequence (VMSV_QUERIES; paper: 250).
  uint64_t queries;
  /// Repetitions to average over (VMSV_REPS; paper: 3).
  uint64_t reps;
  /// vm.max_map_count in effect after the raise attempt.
  uint64_t map_budget;
  /// Active scan kernel name (VMSV_KERNEL / cpuid dispatch).
  const char* kernel;
  /// Scan parallelism (VMSV_THREADS, default hardware_concurrency).
  uint64_t threads;
  /// Pages at or below which scans run serially (VMSV_SERIAL_CUTOFF).
  uint64_t serial_cutoff;
};

/// Loads the environment with `default_pages` as the column-size default,
/// attempts to raise vm.max_map_count (paper: 2^32-1), and prints a header.
inline BenchEnv LoadBenchEnv(const char* bench_name, uint64_t default_pages) {
  BenchEnv env;
  env.pages = GetEnvUint64("VMSV_PAGES", default_pages);
  env.queries = GetEnvUint64("VMSV_QUERIES", 250);
  env.reps = GetEnvUint64("VMSV_REPS", 3);
  // Raising the SYSTEM-WIDE sysctl is opt-in (paper scale needs it, smoke
  // runs must not mutate the host as a test side effect).
  env.map_budget = GetEnvUint64("VMSV_RAISE_MAP_COUNT", 0) != 0
                       ? TryRaiseMaxMapCount((uint64_t{1} << 32) - 1)
                       : ReadMaxMapCount(/*fallback=*/65530);
  env.kernel = ScanKernelName(ActiveScanKernel());
  env.threads = DefaultScanThreads();
  env.serial_cutoff = DefaultSerialCutoffPages();
  std::fprintf(stdout, "# %s\n", bench_name);
  std::fprintf(stdout,
               "# pages=%llu (%.1f MB column)  queries=%llu  reps=%llu  "
               "vm.max_map_count=%llu\n",
               static_cast<unsigned long long>(env.pages),
               static_cast<double>(env.pages) * 4096.0 / 1e6,
               static_cast<unsigned long long>(env.queries),
               static_cast<unsigned long long>(env.reps),
               static_cast<unsigned long long>(env.map_budget));
  std::fprintf(stdout,
               "# scan engine: kernel=%s  threads=%llu  serial_cutoff=%llu "
               "pages\n",
               env.kernel, static_cast<unsigned long long>(env.threads),
               static_cast<unsigned long long>(env.serial_cutoff));
  return env;
}

/// Appends the scan-configuration columns every figure CSV carries.
inline std::vector<std::string> WithScanConfigHeaders(
    std::vector<std::string> headers) {
  headers.push_back("kernel");
  headers.push_back("threads");
  return headers;
}

inline std::vector<std::string> WithScanConfigCells(
    std::vector<std::string> cells, const BenchEnv& env) {
  cells.push_back(env.kernel);
  cells.push_back(std::to_string(env.threads));
  return cells;
}

/// Runs untimed scans of the `pages` pages at `base` on `threads` threads
/// for at least 3 s of wall time. Call it right before timed multi-thread
/// scans, with the highest thread count the run times: on a VM host left
/// idle for a minute, the first ~2 s of multi-thread work otherwise run at
/// one-thread speed, and the first timed configurations misstate thread
/// scaling. A single-threaded step between two timed series can restart
/// that ramp (micro_lifecycle). Reports on stderr only.
inline void WarmUpScans(const Value* base, uint64_t pages, const RangeQuery& q,
                        unsigned threads) {
  constexpr double kWarmUpSeconds = 3.0;
  ParallelScanOptions options;
  options.threads = threads;
  options.serial_cutoff = 0;
  const ParallelScanner scanner(options);
  const Stopwatch timer;
  uint64_t scans = 0;
  while (timer.ElapsedSeconds() < kWarmUpSeconds) {
    scanner.ScanPages(base, pages, q);
    ++scans;
  }
  std::fprintf(stderr,
               "# warm-up: %llu untimed scans of %llu pages at %u threads "
               "in %.2f s\n",
               static_cast<unsigned long long>(scans),
               static_cast<unsigned long long>(pages), threads,
               timer.ElapsedSeconds());
}

// ---------------------------------------------------------------------------
// BENCH_*.json emission — shared by every perf harness.
//
// Convention: each harness resolves its output path through BenchJsonPath
// (VMSV_BENCH_JSON overrides the harness default) and emits the common
// header fields through WriteBenchJsonCommon, so tools/check_bench.py can
// rely on one header shape across the whole BENCH_*.json family. The
// JsonWriter centralizes the comma/indent bookkeeping that each harness
// used to hand-roll.

/// Output path per the shared VMSV_BENCH_JSON convention.
inline std::string BenchJsonPath(const char* default_filename) {
  return GetEnvString("VMSV_BENCH_JSON", default_filename);
}

/// Minimal streaming JSON writer: objects print one member per line
/// (indented), arrays print inline. No escaping — emitted strings are
/// identifiers from this codebase, never user data.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  void BeginObject() {
    Separate();
    std::fputc('{', out_);
    stack_.push_back(Frame{true, false});
  }
  void EndObject() {
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty) {
      std::fputc('\n', out_);
      Indent();
    }
    std::fputc('}', out_);
  }
  void BeginArray() {
    Separate();
    std::fputc('[', out_);
    stack_.push_back(Frame{true, true});
  }
  void EndArray() {
    stack_.pop_back();
    std::fputc(']', out_);
  }

  void Key(const char* name) {
    Separate();
    std::fprintf(out_, "\"%s\": ", name);
    pending_value_ = true;
  }

  void String(const char* v) {
    Separate();
    std::fprintf(out_, "\"%s\"", v);
  }
  void U64(uint64_t v) {
    Separate();
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
  }
  void Double(double v, int precision = 6) {
    Separate();
    std::fprintf(out_, "%.*f", precision, v);
  }
  void Bool(bool v) {
    Separate();
    std::fputs(v ? "true" : "false", out_);
  }
  void Null() {
    Separate();
    std::fputs("null", out_);
  }

  void Field(const char* key, const char* v) { Key(key); String(v); }
  void Field(const char* key, const std::string& v) { Key(key); String(v.c_str()); }
  void Field(const char* key, uint64_t v) { Key(key); U64(v); }
  void Field(const char* key, unsigned v) { Key(key); U64(v); }
  void Field(const char* key, int v) { Key(key); U64(static_cast<uint64_t>(v)); }
  void Field(const char* key, double v, int precision = 6) {
    Key(key);
    Double(v, precision);
  }
  void FieldBool(const char* key, bool v) { Key(key); Bool(v); }

  /// `"key": [v, v, ...]` — the per-rep timing arrays every schema carries.
  void FieldArray(const char* key, const std::vector<double>& values,
                  int precision = 6) {
    Key(key);
    BeginArray();
    for (const double v : values) Double(v, precision);
    EndArray();
  }

 private:
  struct Frame {
    bool first;
    bool array;
  };

  void Indent() {
    for (size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", out_);
  }

  /// Comma/newline bookkeeping before any token: a value directly after its
  /// key attaches in place; otherwise array members separate inline and
  /// object members one per line.
  void Separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) return;
    Frame& top = stack_.back();
    if (top.array) {
      if (!top.first) std::fputs(", ", out_);
    } else {
      std::fputs(top.first ? "\n" : ",\n", out_);
      Indent();
    }
    top.first = false;
  }

  std::FILE* out_;
  std::vector<Frame> stack_;
  bool pending_value_ = false;
};

/// The header fields shared by every BENCH_*.json schema (check_bench.py
/// validates them uniformly).
inline void WriteBenchJsonCommon(JsonWriter* w, const char* bench_name,
                                 const BenchEnv& env, uint64_t seed) {
  w->Field("bench", bench_name);
  w->Field("schema_version", 1);
  w->Field("pages", env.pages);
  w->Field("values_per_page", kValuesPerPage);
  w->Field("reps", env.reps);
  w->Field("seed", seed);
  w->Field("hardware_concurrency", std::thread::hardware_concurrency());
  w->Field("default_kernel", env.kernel);
  w->Field("threads", env.threads);
}

// ---------------------------------------------------------------------------
// TLB counters — perf_event_open(2) wrappers that record the dTLB misses a
// scan pays next to its time (micro_scan --sweep), so translation cost is
// measured rather than inferred.
//
// Availability is NEVER assumed: perf_event_open can be absent (seccomp,
// kernel.perf_event_paranoid, containers return ENOENT/EACCES/ENOSYS), and
// a bench must produce identical timing numbers either way. The group
// reports `available() == false` and the JSON emitters write the fields as
// null, which check_bench.py treats as structurally valid.

/// One hardware counter group: dTLB load misses, dTLB loads, and cycles,
/// read together so ratios are consistent.
class TlbCounters {
 public:
  TlbCounters() {
#ifdef __linux__
    struct perf_event_attr_local {
      // A minimal mirror of struct perf_event_attr (linux/perf_event.h) —
      // declared locally so the header builds on toolchains without the
      // kernel uapi headers. Only the leading fields the syscall reads are
      // populated; `size` tells the kernel where our struct ends.
      uint32_t type;
      uint32_t size;
      uint64_t config;
      uint64_t sample_period;
      uint64_t sample_type;
      uint64_t read_format;
      uint64_t flags;
      uint32_t wakeup_events;
      uint32_t bp_type;
      uint64_t bp_addr;
      uint64_t bp_len;
      uint64_t pad[8];
    };
    constexpr uint32_t kTypeHardware = 0;   // PERF_TYPE_HARDWARE
    constexpr uint32_t kTypeHwCache = 3;    // PERF_TYPE_HW_CACHE
    constexpr uint64_t kCycles = 0;         // PERF_COUNT_HW_CPU_CYCLES
    // PERF_COUNT_HW_CACHE_DTLB | (OP_READ << 8) | (RESULT_MISS << 16) etc.
    constexpr uint64_t kDtlbReadMiss = 3 | (0 << 8) | (1 << 16);
    constexpr uint64_t kDtlbReadAccess = 3 | (0 << 8) | (0 << 16);
    constexpr uint64_t kFlagDisabled = 1;   // attr.disabled
    const struct {
      uint32_t type;
      uint64_t config;
    } events[3] = {{kTypeHwCache, kDtlbReadMiss},
                   {kTypeHwCache, kDtlbReadAccess},
                   {kTypeHardware, kCycles}};
    for (int i = 0; i < 3; ++i) {
      perf_event_attr_local attr{};
      attr.type = events[i].type;
      attr.size = sizeof(attr);
      attr.config = events[i].config;
      attr.flags = kFlagDisabled;
      const long fd = ::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0UL);
      fds_[i] = static_cast<int>(fd);
    }
    // All-or-nothing: a partial group would make miss RATES meaningless.
    if (fds_[0] < 0 || fds_[1] < 0 || fds_[2] < 0) Close();
#endif
  }
  ~TlbCounters() { Close(); }
  TlbCounters(const TlbCounters&) = delete;
  TlbCounters& operator=(const TlbCounters&) = delete;

  bool available() const { return fds_[0] >= 0; }

  void Start() {
#ifdef __linux__
    if (!available()) return;
    for (const int fd : fds_) {
      ::ioctl(fd, 0x2403 /*PERF_EVENT_IOC_RESET*/, 0);
      ::ioctl(fd, 0x2400 /*PERF_EVENT_IOC_ENABLE*/, 0);
    }
#endif
  }

  /// Stops the counters and latches their values (readable via the
  /// accessors until the next Start).
  void Stop() {
#ifdef __linux__
    if (!available()) return;
    for (const int fd : fds_) {
      ::ioctl(fd, 0x2401 /*PERF_EVENT_IOC_DISABLE*/, 0);
    }
    for (int i = 0; i < 3; ++i) {
      uint64_t value = 0;
      if (::read(fds_[i], &value, sizeof(value)) != sizeof(value)) value = 0;
      values_[i] = value;
    }
#endif
  }

  uint64_t dtlb_load_misses() const { return values_[0]; }
  uint64_t dtlb_loads() const { return values_[1]; }
  uint64_t cycles() const { return values_[2]; }
  /// Misses per 1k loads; 0 when loads were not counted.
  double dtlb_miss_per_1k_loads() const {
    return values_[1] == 0 ? 0.0 : 1000.0 * values_[0] / values_[1];
  }

 private:
  void Close() {
#ifdef __linux__
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
#endif
  }

  int fds_[3] = {-1, -1, -1};
  uint64_t values_[3] = {0, 0, 0};
};

/// Emits the dTLB fields of one measurement: numbers when the counters ran,
/// JSON nulls when perf is unavailable (so consumers can tell "zero misses"
/// from "not measured").
inline void WriteTlbFields(JsonWriter* w, const TlbCounters& tlb) {
  w->FieldBool("dtlb_available", tlb.available());
  if (tlb.available()) {
    w->Field("dtlb_load_misses", tlb.dtlb_load_misses());
    w->Field("dtlb_loads", tlb.dtlb_loads());
    w->Field("cycles", tlb.cycles());
    w->Field("dtlb_miss_per_1k_loads", tlb.dtlb_miss_per_1k_loads(), 4);
  } else {
    w->Key("dtlb_load_misses");
    w->Null();
    w->Key("dtlb_loads");
    w->Null();
    w->Key("cycles");
    w->Null();
    w->Key("dtlb_miss_per_1k_loads");
    w->Null();
  }
}

/// Aborts with a readable message when a Status is not OK.
#define VMSV_BENCH_CHECK_OK(expr)                                     \
  do {                                                                \
    const ::vmsv::Status _st = (expr);                                \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "[bench] %s\n", _st.ToString().c_str());   \
      std::abort();                                                   \
    }                                                                 \
  } while (0)

}  // namespace bench
}  // namespace vmsv

#endif  // VMSV_BENCH_BENCH_COMMON_H_
