// Micro-benchmarks of the scan kernels and index lookup paths (extension
// E9), plus the repo's perf-baseline harness:
//
//   micro_scan --sweep   runs {every available kernel} x {1, 2, 4, 8}
//                        threads full-column scans and writes BENCH_scan.json
//                        (per-configuration throughput in pages/s and GB/s,
//                        per-rep timings, medians) — the machine-readable
//                        perf trajectory later PRs regress against. The
//                        sweep verifies every configuration returns
//                        bit-identical match_count/sum before reporting.
//
// Without --sweep it is the usual Google-Benchmark binary; per-kernel scan
// benchmarks are registered for each kernel available on the machine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "vmsv.h"
#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "index/bitmap_index.h"
#include "index/page_id_vector_index.h"
#include "index/physical_copy_index.h"
#include "index/virtual_view_index.h"
#include "index/zone_map_index.h"
#include "util/histogram.h"
#include "util/macros.h"
#include "util/stopwatch.h"
#include "workload/distribution.h"

namespace vmsv {
namespace {

constexpr Value kMaxValue = 100'000'000;

std::unique_ptr<PhysicalColumn> MakeBenchColumn(uint64_t pages) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kUniform;
  spec.max_value = kMaxValue;
  spec.seed = 42;  // the golden seed the ctest suites pin
  auto column = MakeColumn(spec, pages * kValuesPerPage);
  VMSV_CHECK_OK(column.status());
  return std::move(column).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Perf-baseline sweep (BENCH_scan.json)

struct SweepConfig {
  ScanKernel kernel;
  unsigned threads;
  std::vector<double> rep_ms;
  double median_ms = 0;
  double pages_per_s = 0;
  double gb_per_s = 0;
  // dTLB counters over all timed reps (false => the null fields in JSON).
  bool dtlb_available = false;
  uint64_t dtlb_load_misses = 0;
  uint64_t dtlb_loads = 0;
  uint64_t cycles = 0;
  double dtlb_miss_per_1k_loads = 0;
};

int SweepMain() {
  const bench::BenchEnv env = bench::LoadBenchEnv(
      "micro_scan --sweep: kernel x thread scan baseline", 65536);
  const std::string json_path = bench::BenchJsonPath("BENCH_scan.json");
  auto column = MakeBenchColumn(env.pages);
  const Value* base =
      reinterpret_cast<const Value*>(column->base_arena().data());
  const RangeQuery q{0, kMaxValue / 2};

  std::vector<ScanKernel> kernels;
  for (ScanKernel k :
       {ScanKernel::kScalar, ScanKernel::kAvx2, ScanKernel::kAvx512}) {
    if (ScanKernelAvailable(k)) kernels.push_back(k);
  }
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};

  // Reference result from the scalar serial pass; every configuration must
  // reproduce it bit-identically or the sweep aborts.
  const PageScanResult ref =
      ScanPageScalar(base, env.pages * kValuesPerPage, q);

  const ScanKernel restore = ActiveScanKernel();
  bench::WarmUpScans(base, env.pages, q, thread_counts.back());
  // One counter group reused across configurations: the main thread issues
  // every load in the serial path and shares the work in the sharded one,
  // so its dTLB rate is comparable across configs (absolute counts are not,
  // with threads > 1 — the rate field is the one to compare).
  bench::TlbCounters tlb;
  std::vector<SweepConfig> configs;
  for (const ScanKernel kernel : kernels) {
    VMSV_BENCH_CHECK_OK(SetActiveScanKernel(kernel));
    for (const unsigned threads : thread_counts) {
      SweepConfig cfg;
      cfg.kernel = kernel;
      cfg.threads = threads;
      ParallelScanOptions options;
      options.threads = threads;
      options.serial_cutoff = 0;  // measure the sharded path even at smoke scale
      const ParallelScanner scanner(options);
      // Warm-up: touches every page (and spins up pool workers) untimed.
      PageScanResult r = scanner.ScanPages(base, env.pages, q);
      SampleStats times;
      tlb.Start();
      for (uint64_t rep = 0; rep < env.reps; ++rep) {
        Stopwatch timer;
        r = scanner.ScanPages(base, env.pages, q);
        const double ms = timer.ElapsedMillis();
        times.Add(ms);
        cfg.rep_ms.push_back(ms);
      }
      tlb.Stop();
      cfg.dtlb_available = tlb.available();
      cfg.dtlb_load_misses = tlb.dtlb_load_misses();
      cfg.dtlb_loads = tlb.dtlb_loads();
      cfg.cycles = tlb.cycles();
      cfg.dtlb_miss_per_1k_loads = tlb.dtlb_miss_per_1k_loads();
      if (r.match_count != ref.match_count || r.sum != ref.sum) {
        std::fprintf(stderr,
                     "[bench] RESULT MISMATCH kernel=%s threads=%u vs scalar "
                     "serial reference\n",
                     ScanKernelName(kernel), threads);
        return 1;
      }
      cfg.median_ms = times.Median();
      cfg.pages_per_s =
          static_cast<double>(env.pages) / (cfg.median_ms / 1000.0);
      cfg.gb_per_s = static_cast<double>(env.pages) * 4096.0 / 1e9 /
                     (cfg.median_ms / 1000.0);
      std::fprintf(stdout,
                   "kernel=%-6s threads=%u  median=%9.3f ms  %12.0f pages/s  "
                   "%6.2f GB/s\n",
                   ScanKernelName(kernel), threads, cfg.median_ms,
                   cfg.pages_per_s, cfg.gb_per_s);
      configs.push_back(std::move(cfg));
    }
  }
  VMSV_BENCH_CHECK_OK(SetActiveScanKernel(restore));

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", json_path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(out);
    w.BeginObject();
    bench::WriteBenchJsonCommon(&w, "micro_scan", env, /*seed=*/42);
    w.Field("query_selectivity", 0.5, 1);
    w.Field("distribution", "uniform");
    w.FieldBool("dtlb_available", tlb.available());
    w.Key("configs");
    w.BeginArray();
    for (const SweepConfig& cfg : configs) {
      w.BeginObject();
      w.Field("kernel", ScanKernelName(cfg.kernel));
      w.Field("threads", cfg.threads);
      w.Field("median_ms", cfg.median_ms);
      w.Field("pages_per_s", cfg.pages_per_s, 1);
      w.Field("gb_per_s", cfg.gb_per_s, 4);
      w.FieldArray("rep_ms", cfg.rep_ms);
      if (cfg.dtlb_available) {
        w.Field("dtlb_load_misses", cfg.dtlb_load_misses);
        w.Field("dtlb_loads", cfg.dtlb_loads);
        w.Field("cycles", cfg.cycles);
        w.Field("dtlb_miss_per_1k_loads", cfg.dtlb_miss_per_1k_loads, 4);
      } else {
        w.Key("dtlb_load_misses");
        w.Null();
        w.Key("dtlb_loads");
        w.Null();
        w.Key("cycles");
        w.Null();
        w.Key("dtlb_miss_per_1k_loads");
        w.Null();
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stdout, "# wrote %s (%zu configurations)\n", json_path.c_str(),
               configs.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Google-Benchmark microbenchmarks

constexpr uint64_t kBenchPages = 4096;  // 16 MB column

void BM_ScanPageKernel(benchmark::State& state) {
  const auto kernel = static_cast<ScanKernel>(state.range(0));
  const ScanKernelOps* ops = GetScanKernelOps(kernel);
  if (ops == nullptr) {
    state.SkipWithError("kernel unavailable on this machine/build");
    return;
  }
  auto column = MakeBenchColumn(kBenchPages);
  const RangeQuery q{0, kMaxValue / 2};
  uint64_t page = 0;
  for (auto _ : state) {
    const PageScanResult r =
        ops->scan_page(column->PageData(page), kValuesPerPage, q);
    benchmark::DoNotOptimize(r.sum);
    page = (page + 1) % kBenchPages;
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
  state.SetLabel(ScanKernelName(kernel));
}
BENCHMARK(BM_ScanPageKernel)
    ->Arg(static_cast<int>(ScanKernel::kScalar))
    ->Arg(static_cast<int>(ScanKernel::kAvx2))
    ->Arg(static_cast<int>(ScanKernel::kAvx512));

void BM_PageContainsAnyKernel(benchmark::State& state) {
  const auto kernel = static_cast<ScanKernel>(state.range(0));
  const ScanKernelOps* ops = GetScanKernelOps(kernel);
  if (ops == nullptr) {
    state.SkipWithError("kernel unavailable on this machine/build");
    return;
  }
  auto column = MakeBenchColumn(kBenchPages);
  // A narrow range above the domain: every page needs the full (blocked)
  // inspection before reporting no — the worst case the block accumulator
  // is built for.
  const RangeQuery q{kMaxValue + 1, kMaxValue + 2};
  uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops->page_contains_any(column->PageData(page), kValuesPerPage, q));
    page = (page + 1) % kBenchPages;
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
  state.SetLabel(ScanKernelName(kernel));
}
BENCHMARK(BM_PageContainsAnyKernel)
    ->Arg(static_cast<int>(ScanKernel::kScalar))
    ->Arg(static_cast<int>(ScanKernel::kAvx2))
    ->Arg(static_cast<int>(ScanKernel::kAvx512));

void BM_ComputePageZoneKernel(benchmark::State& state) {
  const auto kernel = static_cast<ScanKernel>(state.range(0));
  const ScanKernelOps* ops = GetScanKernelOps(kernel);
  if (ops == nullptr) {
    state.SkipWithError("kernel unavailable on this machine/build");
    return;
  }
  auto column = MakeBenchColumn(kBenchPages);
  uint64_t page = 0;
  for (auto _ : state) {
    const PageZone zone =
        ops->compute_page_zone(column->PageData(page), kValuesPerPage);
    benchmark::DoNotOptimize(zone.min);
    page = (page + 1) % kBenchPages;
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
  state.SetLabel(ScanKernelName(kernel));
}
BENCHMARK(BM_ComputePageZoneKernel)
    ->Arg(static_cast<int>(ScanKernel::kScalar))
    ->Arg(static_cast<int>(ScanKernel::kAvx2))
    ->Arg(static_cast<int>(ScanKernel::kAvx512));

void BM_FullViewScanThreads(benchmark::State& state) {
  auto column = MakeBenchColumn(kBenchPages);
  const Value* base =
      reinterpret_cast<const Value*>(column->base_arena().data());
  ParallelScanOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  options.serial_cutoff = 0;
  const ParallelScanner scanner(options);
  const RangeQuery q{0, 50'000};
  for (auto _ : state) {
    const PageScanResult r = scanner.ScanPages(base, kBenchPages, q);
    benchmark::DoNotOptimize(r.sum);
  }
  state.SetBytesProcessed(state.iterations() * kBenchPages * kPageSize);
}
BENCHMARK(BM_FullViewScanThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

template <typename Index>
void BM_IndexLookup(benchmark::State& state) {
  auto column = MakeBenchColumn(kBenchPages);
  Index index;
  VMSV_CHECK_OK(index.Build(*column, 0, 100'000));  // ~40% of pages qualify
  const RangeQuery q{0, 50'000};
  for (auto _ : state) {
    const IndexQueryResult r = index.Query(*column, q);
    benchmark::DoNotOptimize(r.sum);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(index.name());
}
BENCHMARK_TEMPLATE(BM_IndexLookup, ZoneMapIndex);
BENCHMARK_TEMPLATE(BM_IndexLookup, BitmapIndex);
BENCHMARK_TEMPLATE(BM_IndexLookup, PageIdVectorIndex);
BENCHMARK_TEMPLATE(BM_IndexLookup, PhysicalCopyIndex);
BENCHMARK_TEMPLATE(BM_IndexLookup, VirtualViewIndex);

void BM_AdaptiveSteadyState(benchmark::State& state) {
  // Cost of a query answered from an established partial view, including
  // the (discarded) candidate bookkeeping of Listing 1.
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  auto column = MakeColumn(spec, kBenchPages * kValuesPerPage);
  VMSV_CHECK(column.ok());
  auto adaptive_r = Db::Create(std::move(column).ValueOrDie(), {});
  VMSV_CHECK(adaptive_r.ok());
  auto& adaptive = *adaptive_r;
  const RangeQuery q{10'000'000, 11'000'000};
  VMSV_CHECK(adaptive->Execute(q).ok());  // warm-up creates the view
  for (auto _ : state) {
    auto result = adaptive->Execute(q);
    VMSV_CHECK(result.ok());
    benchmark::DoNotOptimize(result->sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveSteadyState);

}  // namespace
}  // namespace vmsv

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) {
      return vmsv::SweepMain();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
