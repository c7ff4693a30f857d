#include "workloads.h"

#include <sched.h>
#include <sys/mount.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "tracing.h"
#include "util/random.h"
#include "vmsv.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"

namespace vmsv {
namespace perfbench {
namespace {

// Every workload runs on one 65,536-page (256 MiB) sine column.
constexpr uint64_t kRows = uint64_t{65536} * kValuesPerPage;
constexpr Value kMaxValue = 100'000'000;
constexpr unsigned kGenThreads = 4;

// adapt: the paper's Fig. 4 / Table 1 sequence.
constexpr uint64_t kAdaptQueries = 1000;
constexpr Value kAdaptMaxWidth = 50'000'000;
constexpr Value kAdaptMinWidth = 5'000;
constexpr size_t kAdaptCheckStride = 16;

// serve_rw: open loop well below saturation, reads:updates = 30:1.
constexpr uint32_t kServeRanges = 32;
constexpr double kSelectivity = 0.01;
constexpr double kServeReadsPerS = 90;
constexpr double kServeUpdatesPerS = 3;
/// The window of one session: 540 reads and 18 updates.
constexpr double kServeWindowS = 6;
constexpr unsigned kServeWorkers = 3;
constexpr uint64_t kServeGroupCommit = 8;
/// Ops still unfinished this long after the last one was due have failed.
constexpr int64_t kServeGraceNs = 1'000'000'000;

// batch_sharded: ExecuteBatch of 32 random 1%-selectivity queries.
constexpr uint32_t kBatchShards = 4;
constexpr size_t kBatchSize = 32;
constexpr size_t kBatchesPerSession = 64;
constexpr size_t kBatchCheckStride = 64;

/// A run replays its workload's fixed op plan in sessions, each on a fresh
/// table, and starts another session while it still fits into --seconds,
/// but runs at least this many (untraced) or this many pairs (traced):
/// setup_s is a median and latencies a minimum over sessions.
constexpr size_t kMinSessions = 3;
constexpr size_t kMinTracedPairs = 2;

/// Latency of an op that failed.
constexpr double kFailed = std::numeric_limits<double>::infinity();

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

struct Answer {
  uint64_t count = 0;
  Value sum = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && sum == o.sum;
  }
};

Answer AnswerOf(const QueryExecution& e) { return Answer{e.match_count, e.sum}; }

std::vector<Value> GenerateValues(uint64_t seed) {
  DistributionSpec spec;
  spec.kind = DataDistribution::kSine;
  spec.max_value = kMaxValue;
  spec.seed = seed;
  const ValueGenerator gen(spec, kRows);
  std::vector<Value> values(kRows);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kGenThreads; ++t) {
    threads.emplace_back([&values, &gen, t] {
      const uint64_t end = kRows * (t + 1) / kGenThreads;
      for (uint64_t row = kRows * t / kGenThreads; row < end; ++row) {
        values[row] = gen(row);
      }
    });
  }
  for (auto& th : threads) th.join();
  return values;
}

/// Exact answers of `queries` over `values`, computed by the benchmark
/// itself (wrap-around sums, like the engine).
std::vector<Answer> ScanAnswers(const std::vector<Value>& values,
                                const std::vector<RangeQuery>& queries) {
  std::vector<std::vector<Answer>> partial(
      kGenThreads, std::vector<Answer>(queries.size()));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kGenThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t begin = values.size() * t / kGenThreads;
      const uint64_t end = values.size() * (t + 1) / kGenThreads;
      for (size_t q = 0; q < queries.size(); ++q) {
        Answer a;
        for (uint64_t row = begin; row < end; ++row) {
          const Value v = values[row];
          const bool hit = queries[q].Contains(v);
          a.count += hit;
          a.sum += hit ? v : 0;
        }
        partial[t][q] = a;
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<Answer> out(queries.size());
  for (const auto& p : partial) {
    for (size_t q = 0; q < queries.size(); ++q) {
      out[q].count += p[q].count;
      out[q].sum += p[q].sum;
    }
  }
  return out;
}

/// The durable directory goes on a tmpfs mounted in a private mount
/// namespace: device latency on a shared disk swamps the engine's own
/// costs, and the mount vanishes with the process. Must run before the
/// process starts threads. False leaves `dir` on its own filesystem.
bool MountPrivateTmpfs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  if (::unshare(CLONE_NEWNS) != 0) return false;
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "mode=0700") == 0;
}

/// One set-up plus one measured window on a fresh table.
struct Session {
  size_t index = 0;
  bool traced = false;
  double setup_s = 0;
  double mem_mb = 0;
  double window_s = 0;

  /// Latency of each timed op of the plan, in plan order (kFailed for a
  /// failed op). Every session of a run replays the same plan. The op is an
  /// Execute call (adapt), an ExecuteBatch call (batch_sharded) or a read
  /// counted from when it was due (serve_rw).
  std::vector<double> op_ms;
  /// Time over which the queries were answered: accumulated call time
  /// (closed loop) or the window up to the last completion (open loop).
  double call_s = 0;
  uint64_t queries = 0;
  /// serve_rw: latency of each update of the plan, like op_ms.
  std::vector<double> update_ms;
  uint64_t updates = 0;

  uint64_t view_hits = 0;
  uint64_t full_scans = 0;
  uint64_t scanned_pages = 0;
  uint64_t batches = 0;
  uint64_t shared_pages = 0;
  uint64_t individual_pages = 0;
  uint64_t overlap_groups = 0;

  uint64_t completed_ops = 0;
  double offered_per_s = 0;
  double gen_late_ms = 0;

  /// Engine counters over the window (after minus before).
  CumulativeStats engine;
  ColumnHealth health;
  DurabilityStats durability;
  double page_table_mb = 0;
  uint64_t vmas = 0;
  double steal_pct = 0;
  double others_busy_pct = 0;
};

/// ExecuteFullScan answers, cached per query (valid while the table's
/// contents never change) and timed for exec.fullscan_ms.
class FullScanOracle {
 public:
  StatusOr<Answer> Get(const Table& table, const RangeQuery& q) {
    const auto key = std::make_pair(q.lo, q.hi);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    auto r = Scan(table, q);
    if (r.ok()) cache_.emplace(key, *r);
    return r;
  }

  StatusOr<Answer> Scan(const Table& table, const RangeQuery& q) {
    const int64_t start = NowNs();
    auto r = table.ExecuteFullScan(q);
    scan_ms_.push_back(Ms(NowNs() - start));
    if (!r.ok()) return r.status();
    return AnswerOf(*r);
  }

  const std::vector<double>& scan_ms() const { return scan_ms_; }

 private:
  std::map<std::pair<Value, Value>, Answer> cache_;
  std::vector<double> scan_ms_;
};

class Workload {
 public:
  explicit Workload(const std::vector<Value>* values) : values_(values) {}
  virtual ~Workload() = default;

  /// What one latency sample times, for the notes: "query", "batch", "read".
  virtual const char* op_name() const = 0;
  /// Queries answered by one timed op.
  virtual size_t queries_per_op() const { return 1; }
  /// Open loop: worker threads serve a timed schedule for a fixed window.
  /// Closed loop: one client thread runs a fixed op plan, so seam calls
  /// made on engine threads belong to the client's op in flight.
  virtual bool open_loop() const { return false; }
  /// Readies a session (not timed).
  virtual void Prepare() {}
  /// Creates and loads the table; timed as set-up.
  virtual StatusOr<std::unique_ptr<Table>> SetUp(VmIo* vm_io,
                                                 StorageIo* io) = 0;
  virtual void RunWindow(Table* table, SpanRecorder* rec, Session* s,
                         OpTally* tally) = 0;
  /// Oracle checks after the window (not timed).
  virtual Status Check(Table* table, OpTally* tally) = 0;
  virtual void TearDown() {}

  const FullScanOracle& oracle() const { return oracle_; }

 protected:
  std::function<Value(uint64_t)> ValueOf() const {
    const std::vector<Value>* values = values_;
    return [values](uint64_t row) { return (*values)[row]; };
  }

  const std::vector<Value>* values_;
  FullScanOracle oracle_;
};

// ---------------------------------------------------------------------------

class AdaptWorkload final : public Workload {
 public:
  AdaptWorkload(const std::vector<Value>* values, uint64_t seed)
      : Workload(values) {
    QueryWorkloadSpec spec;
    spec.num_queries = kAdaptQueries;
    spec.domain_hi = kMaxValue;
    spec.seed = MixHash(seed, 0xada9);
    queries_ = MakeVaryingWidthWorkload(spec, kAdaptMaxWidth, kAdaptMinWidth);
  }

  const char* op_name() const override { return "query"; }

  StatusOr<std::unique_ptr<Table>> SetUp(VmIo* vm_io, StorageIo*) override {
    DbOptions options;
    options.column.mode = QueryMode::kSingleView;
    options.column.vm_io = vm_io;
    return Db::Create(kRows, ValueOf(), options);
  }

  void RunWindow(Table* table, SpanRecorder* rec, Session* s,
                 OpTally* tally) override {
    answers_.assign(queries_.size(), Answer{});
    answered_.assign(queries_.size(), false);
    s->op_ms.assign(queries_.size(), kFailed);
    int64_t total_ns = 0;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const uint64_t op = rec != nullptr ? rec->BeginOp() : 0;
      const int64_t start = NowNs();
      auto r = table->Execute(queries_[i]);
      const int64_t end = NowNs();
      if (rec != nullptr) rec->EndOp(op, "Execute", start, end);
      ++tally->attempted;
      if (!r.ok()) {
        ++tally->errors;
        continue;
      }
      total_ns += end - start;
      s->op_ms[i] = Ms(end - start);
      ++s->queries;
      answers_[i] = AnswerOf(*r);
      answered_[i] = true;
      s->scanned_pages += r->stats.scanned_pages;
      if (r->stats.decision == CandidateDecision::kAnsweredFromView) {
        ++s->view_hits;
      } else {
        ++s->full_scans;
      }
    }
    s->call_s = Sec(total_ns);
    s->window_s = s->call_s;
    s->completed_ops = s->queries;
    s->offered_per_s = s->window_s > 0 ? s->queries / s->window_s : 0;
  }

  Status Check(Table* table, OpTally* tally) override {
    for (size_t i = 0; i < queries_.size(); i += kAdaptCheckStride) {
      if (!answered_[i]) continue;
      auto expected = oracle_.Get(*table, queries_[i]);
      if (!expected.ok()) return expected.status();
      if (!(*expected == answers_[i])) ++tally->wrong;
    }
    return Status::OK();
  }

 private:
  std::vector<RangeQuery> queries_;
  std::vector<Answer> answers_;
  std::vector<bool> answered_;
};

// ---------------------------------------------------------------------------

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const std::vector<Value>* values, uint64_t seed,
                std::string durable_root)
      : Workload(values), dir_(durable_root + "/serve_rw") {
    ranges_ = FixedRanges(kServeRanges, kMaxValue,
                          static_cast<Value>(kSelectivity * kMaxValue));
    base_answers_ = ScanAnswers(*values_, ranges_);
    ScheduleSpec spec;
    spec.seed = MixHash(seed, 0x5c4e);
    spec.seconds = kServeWindowS;
    spec.reads_per_s = kServeReadsPerS;
    spec.updates_per_s = kServeUpdatesPerS;
    spec.num_ranges = kServeRanges;
    spec.num_rows = kRows;
    schedule_ = MakeOpenLoopSchedule(spec, *values_);
  }

  const char* op_name() const override { return "read"; }
  bool open_loop() const override { return true; }

  void Prepare() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StatusOr<std::unique_ptr<Table>> SetUp(VmIo* vm_io, StorageIo* io) override {
    DbOptions options;
    options.column.mode = QueryMode::kMultiView;
    options.column.cost_based_routing = true;
    options.column.vm_io = vm_io;
    options.column.storage.group_commit_batch = kServeGroupCommit;
    options.column.storage.io = io;
    auto table_r = Db::CreateDurable(dir_, kRows, options);
    if (!table_r.ok()) return table_r.status();
    std::unique_ptr<Table> table = *std::move(table_r);
    // Bulk load through the column itself: journaling 33M single-row
    // updates is not how a table is loaded.
    PhysicalColumn* column = table->shard(0)->mutable_column();
    for (uint64_t row = 0; row < kRows; ++row) column->Set(row, (*values_)[row]);
    Status st = table->Checkpoint();
    if (!st.ok()) return st;
    for (const RangeQuery& q : ranges_) {
      auto r = table->Execute(q);
      if (!r.ok()) return r.status();
    }
    return table;
  }

  void RunWindow(Table* table, SpanRecorder* rec, Session* s,
                 OpTally* tally) override {
    struct Done {
      bool ran = false;
      bool ok = false;
      bool view_hit = false;
      uint64_t pages = 0;
      int64_t start_ns = 0;
      int64_t end_ns = 0;
    };
    const size_t n = schedule_.size();
    std::vector<Done> done(n);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> fifo;  // guarded by mu
    bool closed = false;      // guarded by mu
    const int64_t window_ns = static_cast<int64_t>(kServeWindowS * 1e9);
    // A short lead lets the workers park before the first op is due.
    const int64_t origin = NowNs() + 5'000'000;
    const int64_t deadline = origin + window_ns + kServeGraceNs;

    auto worker = [&] {
      for (;;) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !fifo.empty(); });
          if (fifo.empty()) return;
          i = fifo.front();
          fifo.pop_front();
        }
        // Past the deadline the op has failed anyway; skipping it keeps a
        // stalled engine from stretching the run.
        if (NowNs() > deadline) continue;
        const ScheduledOp& op = schedule_[i];
        Done& d = done[i];
        const bool read = op.kind == OpKind::kRead;
        const uint64_t id = rec != nullptr ? rec->BeginOp() : 0;
        d.start_ns = NowNs();
        if (read) {
          auto r = table->Execute(ranges_[op.range]);
          d.ok = r.ok();
          if (d.ok) {
            d.view_hit =
                r->stats.decision == CandidateDecision::kAnsweredFromView;
            d.pages = r->stats.scanned_pages;
          }
        } else {
          d.ok = table->Update(op.row, op.value).ok();
        }
        d.end_ns = NowNs();
        d.ran = true;
        if (rec != nullptr) {
          rec->EndOp(id, read ? "Execute" : "Update", d.start_ns, d.end_ns);
        }
      }
    };
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kServeWorkers; ++w) workers.emplace_back(worker);

    int64_t max_late = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = origin + schedule_[i].due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      max_late = std::max(max_late, NowNs() - due);
      {
        std::lock_guard<std::mutex> lock(mu);
        fifo.push_back(i);
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
    for (auto& w : workers) w.join();

    applied_.clear();
    model_exact_ = true;
    int64_t last_read_end = origin;
    for (size_t i = 0; i < n; ++i) {
      const ScheduledOp& op = schedule_[i];
      const Done& d = done[i];
      const bool read = op.kind == OpKind::kRead;
      if (!read && d.ran && d.ok) applied_.push_back(i);
      if (!read && d.ran && !d.ok) model_exact_ = false;
      const bool completed =
          tally->CountOpenLoop(d.ran, d.ok, d.end_ns > deadline);
      (read ? s->op_ms : s->update_ms)
          .push_back(completed ? Ms(d.end_ns - (origin + op.due_ns)) : kFailed);
      if (!completed) continue;
      ++s->completed_ops;
      if (read) {
        last_read_end = std::max(last_read_end, d.end_ns);
        ++s->queries;
        s->scanned_pages += d.pages;
        (d.view_hit ? s->view_hits : s->full_scans)++;
      } else {
        ++s->updates;
      }
    }
    // Open loop: throughput is reads completed per second from the window's
    // start to the last read's completion, so a backlog lowers it.
    s->call_s = Sec(last_read_end - origin);
    s->window_s = Sec(window_ns);
    s->offered_per_s = static_cast<double>(n) / s->window_s;
    s->gen_late_ms = Ms(max_late);
  }

  /// With writes stopped, every range must read the same through the
  /// views, through a full scan, and in the model (original values plus
  /// every applied update — rows are distinct, so each update's old value
  /// is the generated one).
  Status Check(Table* table, OpTally* tally) override {
    for (size_t q = 0; q < ranges_.size(); ++q) {
      const RangeQuery& range = ranges_[q];
      Answer model = base_answers_[q];
      for (const size_t i : applied_) {
        const ScheduledOp& op = schedule_[i];
        const Value old_value = (*values_)[op.row];
        if (range.Contains(old_value)) {
          --model.count;
          model.sum -= old_value;
        }
        if (range.Contains(op.value)) {
          ++model.count;
          model.sum += op.value;
        }
      }
      ++tally->attempted;
      auto viewed = table->Execute(range);
      if (!viewed.ok()) {
        ++tally->errors;
        continue;
      }
      auto scanned = oracle_.Scan(*table, range);
      if (!scanned.ok()) return scanned.status();
      const bool agree = AnswerOf(*viewed) == *scanned &&
                         (!model_exact_ || *scanned == model);
      if (!agree) ++tally->wrong;
    }
    return Status::OK();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  const std::string dir_;
  std::vector<RangeQuery> ranges_;
  std::vector<Answer> base_answers_;
  std::vector<ScheduledOp> schedule_;
  /// Schedule indices of updates that returned OK.
  std::vector<size_t> applied_;
  /// False when an update failed: its cell may or may not have changed.
  bool model_exact_ = true;
};

// ---------------------------------------------------------------------------

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(const std::vector<Value>* values, uint64_t seed)
      : Workload(values) {
    QueryWorkloadSpec spec;
    spec.num_queries = kBatchesPerSession * kBatchSize;
    spec.domain_hi = kMaxValue;
    spec.seed = MixHash(seed, 0xba7c);
    const auto queries = MakeFixedSelectivityWorkload(spec, kSelectivity);
    for (size_t b = 0; b < kBatchesPerSession; ++b) {
      batches_.emplace_back(queries.begin() + b * kBatchSize,
                            queries.begin() + (b + 1) * kBatchSize);
    }
  }

  const char* op_name() const override { return "batch"; }
  size_t queries_per_op() const override { return kBatchSize; }

  StatusOr<std::unique_ptr<Table>> SetUp(VmIo* vm_io, StorageIo*) override {
    DbOptions options;
    options.column.vm_io = vm_io;
    options.shards = kBatchShards;
    options.partition = PartitionKind::kRange;
    return Db::Create(kRows, ValueOf(), options);
  }

  void RunWindow(Table* table, SpanRecorder* rec, Session* s,
                 OpTally* tally) override {
    checked_.clear();
    s->op_ms.assign(batches_.size(), kFailed);
    const int64_t origin = NowNs();
    int64_t total_ns = 0;
    uint64_t position = 0;  // queries issued, in generation order
    for (size_t b = 0; b < batches_.size(); ++b) {
      const std::vector<RangeQuery>& batch = batches_[b];
      const uint64_t op = rec != nullptr ? rec->BeginOp() : 0;
      const int64_t start = NowNs();
      auto r = table->ExecuteBatch(batch);
      const int64_t end = NowNs();
      if (rec != nullptr) rec->EndOp(op, "ExecuteBatch", start, end);
      tally->attempted += batch.size();
      if (!r.ok() || r->queries.size() != batch.size()) {
        tally->errors += batch.size();
        position += batch.size();
        continue;
      }
      total_ns += end - start;
      s->op_ms[b] = Ms(end - start);
      s->queries += batch.size();
      ++s->batches;
      s->view_hits += r->view_answered;
      s->full_scans += r->base_answered;
      s->shared_pages += r->shared_scanned_pages;
      s->individual_pages += r->individual_equivalent_pages;
      s->overlap_groups += r->overlap_groups;
      for (size_t j = 0; j < batch.size(); ++j, ++position) {
        if (position % kBatchCheckStride == 0) {
          checked_.emplace_back(batch[j], AnswerOf(r->queries[j]));
        }
      }
    }
    s->scanned_pages = s->shared_pages;
    s->call_s = Sec(total_ns);
    s->window_s = Sec(NowNs() - origin);
    s->completed_ops = s->queries;
    s->offered_per_s = s->queries / s->window_s;
  }

  Status Check(Table* table, OpTally* tally) override {
    for (const auto& [q, got] : checked_) {
      auto expected = oracle_.Get(*table, q);
      if (!expected.ok()) return expected.status();
      if (!(*expected == got)) ++tally->wrong;
    }
    return Status::OK();
  }

 private:
  std::vector<std::vector<RangeQuery>> batches_;
  std::vector<std::pair<RangeQuery, Answer>> checked_;
};

// ---------------------------------------------------------------------------
// Aggregation

CumulativeStats Delta(const CumulativeStats& a, const CumulativeStats& b) {
  CumulativeStats d;
  d.queries = b.queries - a.queries;
  d.scanned_pages = b.scanned_pages - a.scanned_pages;
  d.views_created = b.views_created - a.views_created;
  d.views_discarded = b.views_discarded - a.views_discarded;
  d.views_replaced = b.views_replaced - a.views_replaced;
  d.views_evicted = b.views_evicted - a.views_evicted;
  d.candidates_dropped = b.candidates_dropped - a.candidates_dropped;
  return d;
}

ColumnHealth Delta(const ColumnHealth& a, const ColumnHealth& b) {
  ColumnHealth d;
  d.views_demoted = b.views_demoted - a.views_demoted;
  d.views_promoted = b.views_promoted - a.views_promoted;
  d.base_fallbacks = b.base_fallbacks - a.base_fallbacks;
  d.map_failures = b.map_failures - a.map_failures;
  return d;
}

DurabilityStats Delta(const DurabilityStats& a, const DurabilityStats& b) {
  DurabilityStats d;
  d.journal_group_commits = b.journal_group_commits - a.journal_group_commits;
  d.manifest_writes = b.manifest_writes - a.manifest_writes;
  d.manifest_delta_appends =
      b.manifest_delta_appends - a.manifest_delta_appends;
  return d;
}

/// End-to-end metrics of a set of sessions that replayed one op plan.
/// Set-up and memory are medians over the sessions. Latencies are
/// percentiles over the plan's ops of each op's best latency (BestPerOp):
/// host noise (steal, other guests' memory traffic) only ever slows an op
/// down, and a parallel scan waits for its slowest pool thread, so one
/// descheduled vCPU can double an op's time. Every session's own figures go
/// to the notes. Updates are too few per plan for a best-per-op tail, so
/// their latencies pool over the sessions.
struct EndToEnd {
  double setup_s = 0;
  double mem_mb = 0;
  double queries_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  /// Ops with a best latency, and the percentile the tail stands for.
  size_t samples = 0;
  double update_p50_ms = 0;
  double update_tail_ms = 0;
  size_t update_samples = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Closed loop: queries_per_s is the plan's queries over the sum of the
/// ops' best latencies (for adapt, Table 1's accumulated time inverted).
/// Open loop: reads completed per second of window, median over sessions.
EndToEnd SummarizeEndToEnd(const std::vector<const Session*>& sessions,
                           const Workload& workload) {
  EndToEnd e;
  std::vector<double> setups, mems, open_qps, updates;
  std::vector<const std::vector<double>*> ops;
  for (const Session* s : sessions) {
    setups.push_back(s->setup_s);
    mems.push_back(s->mem_mb);
    open_qps.push_back(Ratio(static_cast<double>(s->queries), s->call_s));
    ops.push_back(&s->op_ms);
    for (const double ms : BestPerOp({&s->update_ms})) {  // drops failures
      updates.push_back(ms);
    }
  }
  e.setup_s = Median(setups);
  e.mem_mb = Median(mems);
  const std::vector<double> best = BestPerOp(ops);
  double best_total_ms = 0;
  for (const double ms : best) best_total_ms += ms;
  e.queries_per_s =
      workload.open_loop()
          ? Median(open_qps)
          : Ratio(static_cast<double>(best.size() * workload.queries_per_op()),
                  best_total_ms / 1e3);
  e.samples = best.size();
  e.p50_ms = Percentile(best, 50);
  e.tail_ms = Tail(best);
  e.update_samples = updates.size();
  e.update_p50_ms = Percentile(updates, 50);
  e.update_tail_ms = Tail(std::move(updates));
  return e;
}

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end"), prefixed for the tracing overhead.
void AddEndToEnd(const EndToEnd& e, const std::string& prefix,
                 std::vector<Metric>* out) {
  out->push_back({prefix + "setup_s", e.setup_s, "s"});
  out->push_back({prefix + "mem_mb", e.mem_mb, "MiB"});
  out->push_back({prefix + "queries_per_s", e.queries_per_s, "1/s"});
  out->push_back({prefix + "p50_ms", e.p50_ms, "ms"});
  out->push_back({prefix + "tail_ms", e.tail_ms, "ms"});
}

/// The latencies again under the workload's own op names (query_p50_ms,
/// batch_tail_ms, read_p50_ms, update_tail_ms, ...) with the percentile
/// the tail stands for.
void AddNamedLatencies(const EndToEnd& e, const char* op, bool updates,
                       std::vector<std::string>* notes) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s_p50_ms=%.4f %s_tail_ms=%.4f (best per op; tail = p%.1f "
                "of %zu ops)",
                op, e.p50_ms, op, e.tail_ms, TailPercentile(e.samples),
                e.samples);
  notes->push_back(line);
  if (!updates) return;
  std::snprintf(line, sizeof(line),
                "update_p50_ms=%.4f update_tail_ms=%.4f (pooled; tail = p%.1f "
                "of %zu)",
                e.update_p50_ms, e.update_tail_ms,
                TailPercentile(e.update_samples), e.update_samples);
  notes->push_back(line);
}

/// Per-layer metrics of the traced sessions (BENCHMARK.json "per_layer").
/// Counts are per session; `plain` holds the untraced sessions of the same
/// run, whose update latencies are reported here because only serve_rw has
/// updates.
void AddPerLayer(const std::vector<const Session*>& traced,
                 const TraceSummary& trace, const FullScanOracle& oracle,
                 const EndToEnd& plain, std::vector<Metric>* out) {
  const double n = static_cast<double>(std::max<size_t>(traced.size(), 1));
  Session sum;  // field-wise totals
  double page_table_mb = 0, vmas = 0, steal = 0, others = 0, gen_late = 0,
         window_s = 0;
  for (const Session* s : traced) {
    sum.queries += s->queries;
    sum.updates += s->updates;
    sum.view_hits += s->view_hits;
    sum.full_scans += s->full_scans;
    sum.scanned_pages += s->scanned_pages;
    sum.batches += s->batches;
    sum.shared_pages += s->shared_pages;
    sum.individual_pages += s->individual_pages;
    sum.overlap_groups += s->overlap_groups;
    sum.completed_ops += s->completed_ops;
    sum.offered_per_s += s->offered_per_s;
    sum.engine.queries += s->engine.queries;
    sum.engine.views_created += s->engine.views_created;
    sum.engine.views_discarded += s->engine.views_discarded;
    sum.engine.views_replaced += s->engine.views_replaced;
    sum.engine.views_evicted += s->engine.views_evicted;
    sum.engine.candidates_dropped += s->engine.candidates_dropped;
    sum.health.views_demoted += s->health.views_demoted;
    sum.health.views_promoted += s->health.views_promoted;
    sum.health.base_fallbacks += s->health.base_fallbacks;
    sum.health.map_failures += s->health.map_failures;
    sum.durability.journal_group_commits += s->durability.journal_group_commits;
    sum.durability.manifest_writes += s->durability.manifest_writes;
    sum.durability.manifest_delta_appends +=
        s->durability.manifest_delta_appends;
    page_table_mb = std::max(page_table_mb, s->page_table_mb);
    vmas = std::max(vmas, static_cast<double>(s->vmas));
    steal += s->steal_pct;
    others += s->others_busy_pct;
    gen_late = std::max(gen_late, s->gen_late_ms);
    window_s += s->window_s;
  }
  const double queries = static_cast<double>(sum.queries);
  auto add = [out](const std::string& name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };

  add("core.full_scan_queries", sum.full_scans / n, "count");
  add("core.view_hit_ratio", Ratio(sum.view_hits, queries), "ratio");
  add("core.pages_per_query", Ratio(sum.scanned_pages, queries), "pages");
  add("core.views_created", sum.engine.views_created / n, "count");
  add("core.views_discarded", sum.engine.views_discarded / n, "count");
  add("core.views_replaced", sum.engine.views_replaced / n, "count");
  add("core.views_evicted", sum.engine.views_evicted / n, "count");
  add("core.candidates_dropped", sum.engine.candidates_dropped / n, "count");
  add("core.views_demoted", sum.health.views_demoted / n, "count");
  add("core.views_promoted", sum.health.views_promoted / n, "count");
  add("core.base_fallbacks", sum.health.base_fallbacks / n, "count");
  add("core.map_failures", sum.health.map_failures / n, "count");
  add("core.shard_queries_per_query", Ratio(sum.engine.queries, queries),
      "ratio");

  const double fullscan_ms = Median(oracle.scan_ms());
  add("exec.fullscan_ms", fullscan_ms, "ms");
  add("exec.scan_gbps",
      Ratio(static_cast<double>(kRows * sizeof(Value)) / 1e9,
            fullscan_ms / 1e3),
      "GB/s");
  add("exec.batch_share_ratio",
      Ratio(sum.individual_pages, sum.shared_pages), "ratio");
  add("exec.batch_overlap_groups", Ratio(sum.overlap_groups, sum.batches),
      "count");

  for (size_t k = 0; k < kNumSeamCalls; ++k) {
    const SeamCall call = static_cast<SeamCall>(k);
    const std::string base =
        std::string(IsStorageCall(call) ? "storage." : "rewiring.") +
        SeamCallName(call);
    add(base + ".calls", trace.calls[k] / n, "count");
    add(base + ".ms", Ms(trace.call_ns[k]) / n, "ms");
  }
  add("rewiring.page_table_mb", page_table_mb, "MiB");
  add("rewiring.vmas", vmas, "count");

  const double updates = static_cast<double>(sum.updates);
  const size_t fsync = static_cast<size_t>(SeamCall::kFsync);
  const size_t fsync_dir = static_cast<size_t>(SeamCall::kFsyncDir);
  add("storage.bytes_per_update", Ratio(trace.storage_bytes, updates), "B");
  add("storage.fsyncs_per_update",
      Ratio(trace.calls[fsync] + trace.calls[fsync_dir], updates), "count");
  add("storage.group_commits", sum.durability.journal_group_commits / n,
      "count");
  add("storage.manifest_writes", sum.durability.manifest_writes / n, "count");
  add("storage.manifest_delta_appends",
      sum.durability.manifest_delta_appends / n, "count");

  const double ops = static_cast<double>(std::max<uint64_t>(trace.ops, 1));
  add("layers.core_exec_ms_per_op", Ms(trace.self_ns) / ops, "ms");
  add("layers.rewiring_ms_per_op", Ms(trace.rewiring_ns) / ops, "ms");
  add("layers.storage_ms_per_op", Ms(trace.storage_ns) / ops, "ms");
  add("layers.unattributed_ms", Ms(trace.unattributed_ns) / n, "ms");

  add("workload.gen_late_ms", gen_late, "ms");
  add("workload.completed_per_s", Ratio(sum.completed_ops, window_s), "1/s");
  add("workload.offered_per_s", sum.offered_per_s / n, "1/s");
  add("workload.update_p50_ms", plain.update_p50_ms, "ms");
  add("workload.update_tail_ms", plain.update_tail_ms, "ms");
  add("host.steal_pct", steal / n, "%");
  add("host.others_busy_pct", others / n, "%");
}

}  // namespace

StatusOr<RunReport> RunBenchmark(const RunOptions& options) {
  if (options.seconds <= 0) {
    return InvalidArgument("--seconds must be positive");
  }
  const std::string& name = options.workload;
  if (name != "adapt" && name != "serve_rw" && name != "batch_sharded") {
    return InvalidArgument("unknown workload '" + name +
                           "' (adapt | serve_rw | batch_sharded)");
  }
  RunReport report;
  const std::string durable_root = options.scratch_dir + "/durable";
  if (name == "serve_rw") {
    const bool tmpfs = MountPrivateTmpfs(durable_root);
    report.notes.push_back(std::string("durable directory on ") +
                           (tmpfs ? "a private tmpfs" : "the checkout's "
                                                        "filesystem"));
  }

  // Inputs first: values, queries and schedules are generated before any
  // set-up and never timed.
  const std::vector<Value> values = GenerateValues(options.seed);
  std::unique_ptr<Workload> workload;
  if (name == "adapt") {
    workload = std::make_unique<AdaptWorkload>(&values, options.seed);
  } else if (name == "serve_rw") {
    workload =
        std::make_unique<ServeWorkload>(&values, options.seed, durable_root);
  } else {
    workload = std::make_unique<BatchWorkload>(&values, options.seed);
  }

  SpanRecorder recorder(/*single_client=*/!workload->open_loop());
  TracingVmIo traced_vm_io(&recorder);
  TracingStorageIo traced_io(&recorder);
  std::vector<Session> sessions;

  auto run_session = [&](size_t index, bool traced) -> Status {
    Session s;
    s.index = index;
    s.traced = traced;
    workload->Prepare();

    const double mem_before = ProcessMemMb();
    const int64_t setup_start = NowNs();
    auto table_r = workload->SetUp(traced ? &traced_vm_io : nullptr,
                                   traced ? &traced_io : nullptr);
    s.setup_s = Sec(NowNs() - setup_start);
    if (!table_r.ok()) return table_r.status();
    std::unique_ptr<Table> table = *std::move(table_r);
    const double mem_after_setup = ProcessMemMb();

    const CumulativeStats engine_before = table->Metrics();
    const ColumnHealth health_before = table->Health().total;
    const DurabilityStats durability_before = table->Durability();
    const CpuTimes cpu_before = ReadCpuTimes();
    if (traced) recorder.Start();
    workload->RunWindow(table.get(), traced ? &recorder : nullptr, &s,
                        &report.tally);
    if (traced) recorder.Stop();
    const CpuTimes cpu_after = ReadCpuTimes();
    s.steal_pct = StealPct(cpu_before, cpu_after);
    s.others_busy_pct = OthersBusyPct(cpu_before, cpu_after);
    s.engine = Delta(engine_before, table->Metrics());
    s.health = Delta(health_before, table->Health().total);
    s.durability = Delta(durability_before, table->Durability());
    s.mem_mb = std::max(mem_after_setup, ProcessMemMb()) - mem_before;
    if (traced) {
      s.page_table_mb = PageTableMb();
      s.vmas = CountVmas();
    }

    Status checked = workload->Check(table.get(), &report.tally);
    table.reset();
    workload->TearDown();
    if (!checked.ok()) return checked;
    sessions.push_back(std::move(s));
    return Status::OK();
  };

  // Sessions repeat while the next one (set-up, window, checks) still fits
  // into --seconds, judged by the longest so far. Traced runs pair every
  // untraced session with a traced one.
  const size_t min_sessions = options.trace ? kMinTracedPairs : kMinSessions;
  const int64_t run_start = NowNs();
  const int64_t run_ns = static_cast<int64_t>(options.seconds * 1e9);
  int64_t longest_ns = 0;
  for (size_t index = 0;; ++index) {
    if (index >= min_sessions && NowNs() - run_start + longest_ns > run_ns) {
      break;
    }
    const int64_t start = NowNs();
    Status st = run_session(index, /*traced=*/false);
    if (st.ok() && options.trace) st = run_session(index, /*traced=*/true);
    if (!st.ok()) return st;
    longest_ns = std::max(longest_ns, NowNs() - start);
  }

  std::vector<const Session*> untraced, traced;
  for (const Session& s : sessions) (s.traced ? traced : untraced).push_back(&s);
  const EndToEnd plain = SummarizeEndToEnd(untraced, *workload);
  char line[256];
  std::snprintf(line, sizeof(line), "sessions: %zu untraced, %zu traced",
                untraced.size(), traced.size());
  report.notes.push_back(line);
  for (const Session& s : sessions) {
    const std::vector<double> op_ms = BestPerOp({&s.op_ms});  // drops failures
    std::snprintf(line, sizeof(line),
                  "session %zu%s: setup %.3f s, %llu queries in %.3f s "
                  "(%llu full scans, %llu views created), %s p50 %.3f ms, "
                  "tail %.3f ms, steal %.1f%%, others busy %.1f%%",
                  s.index, s.traced ? " traced" : "", s.setup_s,
                  static_cast<unsigned long long>(s.queries), s.call_s,
                  static_cast<unsigned long long>(s.full_scans),
                  static_cast<unsigned long long>(s.engine.views_created),
                  workload->op_name(), Percentile(op_ms, 50), Tail(op_ms),
                  s.steal_pct, s.others_busy_pct);
    report.notes.push_back(line);
  }
  AddNamedLatencies(plain, workload->op_name(), name == "serve_rw",
                    &report.notes);
  if (!options.trace) {
    AddEndToEnd(plain, "", &report.metrics);
    return report;
  }

  const EndToEnd with_tracing = SummarizeEndToEnd(traced, *workload);
  AddPerLayer(traced, recorder.Summarize(), workload->oracle(), plain,
              &report.metrics);
  EndToEnd overhead;
  overhead.setup_s = with_tracing.setup_s - plain.setup_s;
  overhead.mem_mb = with_tracing.mem_mb - plain.mem_mb;
  overhead.queries_per_s = with_tracing.queries_per_s - plain.queries_per_s;
  overhead.p50_ms = with_tracing.p50_ms - plain.p50_ms;
  overhead.tail_ms = with_tracing.tail_ms - plain.tail_ms;
  AddEndToEnd(overhead, "overhead.", &report.metrics);

  const std::string span_path =
      options.scratch_dir + "/spans-" + name + ".jsonl";
  if (recorder.WriteJsonl(span_path)) {
    report.notes.push_back("spans written to " + span_path);
  }
  return report;
}

}  // namespace perfbench
}  // namespace vmsv
