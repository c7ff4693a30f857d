#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "tracing.h"

namespace vmsv {
namespace perfbench {
namespace {

TEST(TailTest, P99FromOneThousandSamples) {
  EXPECT_EQ(TailRank(1000), 990u);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailRank(250000), 247500u);
}

TEST(TailTest, LeavesTenSamplesBeyondBelowOneThousand) {
  EXPECT_EQ(TailRank(999), 989u);  // nearest-rank p99 would leave 9
  EXPECT_EQ(TailRank(280), 270u);
  EXPECT_EQ(TailPercentile(100), 90);
  for (size_t n = 20; n < 1000; ++n) {
    std::vector<double> samples(n);
    for (size_t i = 0; i < n; ++i) samples[n - 1 - i] = static_cast<double>(i);
    const double beyond = static_cast<double>(n) - 1 - Tail(samples);
    EXPECT_EQ(beyond, 10) << "n=" << n;
    EXPECT_LE(TailPercentile(n), 99) << "n=" << n;
  }
}

TEST(TailTest, NeverBelowTheMedian) {
  EXPECT_EQ(TailRank(0), 0u);
  EXPECT_EQ(Tail({}), 0);
  EXPECT_EQ(TailRank(15), 8u);
  EXPECT_EQ(TailRank(20), 10u);
  EXPECT_EQ(Tail({5}), 5);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 50), 50);
  EXPECT_EQ(Percentile(samples, 90), 90);
  EXPECT_EQ(Percentile(samples, 99), 99);
  EXPECT_EQ(Percentile(samples, 100), 100);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(BestPerOpTest, MinimumPerOpOverSessions) {
  constexpr double kFailed = std::numeric_limits<double>::infinity();
  const std::vector<double> a = {5, 2, kFailed, kFailed, 7};
  const std::vector<double> b = {3, 4, 6, kFailed};
  // Op 2 failed once but ran once; op 3 failed in both and is left out; op
  // 4 ran only in the longer session.
  EXPECT_EQ(BestPerOp({&a, &b}), (std::vector<double>{3, 2, 6, 7}));
  EXPECT_EQ(BestPerOp({&a}), (std::vector<double>{5, 2, 7}));
  EXPECT_TRUE(BestPerOp({}).empty());
}

ScheduleSpec SmallSchedule(uint64_t seed) {
  ScheduleSpec spec;
  spec.seed = seed;
  spec.seconds = 2;
  spec.reads_per_s = 150;
  spec.updates_per_s = 5;
  spec.num_ranges = 32;
  spec.num_rows = 1000;
  return spec;
}

std::vector<Value> Population() {
  std::vector<Value> population;
  for (Value v = 0; v < 64; ++v) population.push_back(1000 + v * 7);
  return population;
}

bool SameOps(const std::vector<ScheduledOp>& a,
             const std::vector<ScheduledOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ns != b[i].due_ns || a[i].kind != b[i].kind ||
        a[i].range != b[i].range || a[i].row != b[i].row ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

TEST(OpenLoopScheduleTest, SameSeedSameSchedule) {
  const auto population = Population();
  const auto a = MakeOpenLoopSchedule(SmallSchedule(7), population);
  const auto b = MakeOpenLoopSchedule(SmallSchedule(7), population);
  EXPECT_TRUE(SameOps(a, b));
  EXPECT_FALSE(SameOps(a, MakeOpenLoopSchedule(SmallSchedule(8), population)));
}

TEST(OpenLoopScheduleTest, FixedRatesInDueOrder) {
  const auto population = Population();
  const auto ops = MakeOpenLoopSchedule(SmallSchedule(3), population);
  size_t reads = 0;
  std::set<uint64_t> rows;
  std::set<Value> allowed(population.begin(), population.end());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) EXPECT_LE(ops[i - 1].due_ns, ops[i].due_ns);
    EXPECT_LT(ops[i].due_ns, 2'000'000'000);
    if (ops[i].kind == OpKind::kRead) {
      ++reads;
      EXPECT_LT(ops[i].range, 32u);
    } else {
      EXPECT_TRUE(rows.insert(ops[i].row).second) << "update rows repeat";
      EXPECT_LT(ops[i].row, 1000u);
      EXPECT_EQ(allowed.count(ops[i].value), 1u);
    }
  }
  EXPECT_EQ(reads, 300u);
  EXPECT_EQ(rows.size(), 10u);  // reads:updates = 30:1
}

TEST(FixedRangesTest, OneRangeCentredPerSlice) {
  const auto a = FixedRanges(32, 100'000'000, 1'000'000);
  ASSERT_EQ(a.size(), 32u);
  for (size_t i = 0; i < a.size(); ++i) {
    const Value slice_lo = i * 3'125'000u;
    const Value slice_hi = slice_lo + 3'125'000u;
    EXPECT_EQ(a[i].hi - a[i].lo, 1'000'000u);
    EXPECT_EQ(a[i].lo - slice_lo, slice_hi - a[i].hi);  // centred
  }
}

TEST(AttributeOpTest, OverlappingChildrenCountOnce) {
  const OpSpan op{1, "Execute", 100, 200};
  const std::vector<ChildSpan> children = {
      {1, SeamCall::kMmap, 110, 130, 0},
      {1, SeamCall::kMremap, 120, 150, 0},  // overlaps the mmap (two threads)
      {1, SeamCall::kFsync, 140, 160, 0},   // overlaps across layers
      {1, SeamCall::kMunmap, 190, 250, 0},  // clipped at the op's end
      {1, SeamCall::kWrite, 300, 400, 8},   // outside the op
  };
  const LayerTimes t = AttributeOp(op, children);
  EXPECT_EQ(t.rewiring_ns, 40 + 10);
  EXPECT_EQ(t.storage_ns, 20);
  EXPECT_EQ(t.self_ns, 100 - 50 - 10);  // union [110,160) + [190,200)
}

TEST(AttributeOpTest, NoChildrenIsAllSelfTime) {
  const LayerTimes t = AttributeOp(OpSpan{1, "Update", 5, 25}, {});
  EXPECT_EQ(t.self_ns, 20);
  EXPECT_EQ(t.rewiring_ns + t.storage_ns, 0);
}

TEST(SpanRecorderTest, EngineThreadCallsJoinTheSoleClientOp) {
  SpanRecorder rec(/*single_client=*/true);
  EXPECT_EQ(rec.BeginOp(), 0u);  // not recording yet
  rec.Start();
  const uint64_t op = rec.BeginOp();
  ASSERT_NE(op, 0u);
  std::thread engine([&] { rec.RecordChild(SeamCall::kMmap, 10, 20, 0); });
  engine.join();
  rec.RecordChild(SeamCall::kPwrite, 30, 35, 4096);
  rec.EndOp(op, "Execute", 0, 100);
  rec.RecordChild(SeamCall::kFsync, 200, 260, 0);  // no op in flight
  rec.Stop();
  const TraceSummary s = rec.Summarize();
  EXPECT_EQ(s.ops, 1u);
  EXPECT_EQ(s.rewiring_ns, 10);
  EXPECT_EQ(s.storage_ns, 5);
  EXPECT_EQ(s.self_ns, 85);
  EXPECT_EQ(s.unattributed_ns, 60);
  EXPECT_EQ(s.storage_bytes, 4096u);
  EXPECT_EQ(s.calls[static_cast<size_t>(SeamCall::kFsync)], 1u);
}

TEST(SpanRecorderTest, MultiClientCallsStayOnTheirThread) {
  SpanRecorder rec(/*single_client=*/false);
  rec.Start();
  const uint64_t op = rec.BeginOp();
  std::thread other([&] { rec.RecordChild(SeamCall::kMmap, 10, 20, 0); });
  other.join();
  rec.EndOp(op, "Execute", 0, 100);
  const TraceSummary s = rec.Summarize();
  EXPECT_EQ(s.rewiring_ns, 0);
  EXPECT_EQ(s.unattributed_ns, 10);
}

TEST(OpTallyTest, OpenLoopFailuresCountAgainstAttempted) {
  OpTally t;
  EXPECT_TRUE(t.CountOpenLoop(/*ran=*/true, /*ok=*/true, /*late=*/false));
  EXPECT_FALSE(t.CountOpenLoop(true, false, false));  // error status
  EXPECT_FALSE(t.CountOpenLoop(true, false, true));   // error, also late
  EXPECT_FALSE(t.CountOpenLoop(true, true, true));    // done after deadline
  EXPECT_FALSE(t.CountOpenLoop(false, false, false));  // never ran
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.errors, 2u);
  EXPECT_EQ(t.unfinished, 2u);
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_TRUE(t.correct());  // errors and backlog fail ops, not the answers

  ++t.wrong;
  EXPECT_EQ(t.failed(), 5u);
  EXPECT_FALSE(t.correct());
}

}  // namespace
}  // namespace perfbench
}  // namespace vmsv
