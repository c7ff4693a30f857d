#include "util/histogram.h"

#include <gtest/gtest.h>

namespace vmsv {
namespace {

TEST(SampleStatsTest, EmptyIsAllZero) {
  SampleStats stats;
  EXPECT_EQ(stats.Count(), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 0.0);
}

TEST(SampleStatsTest, MomentsAndExtremes) {
  SampleStats stats;
  for (const double s : {4.0, 1.0, 3.0, 2.0}) stats.Add(s);
  EXPECT_EQ(stats.Count(), 4u);
  EXPECT_DOUBLE_EQ(stats.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 4.0);
  // Sample stddev of {1,2,3,4} = sqrt(5/3).
  EXPECT_NEAR(stats.Stddev(), 1.2909944487, 1e-9);
}

TEST(SampleStatsTest, PercentilesInterpolateOnSortedSamples) {
  SampleStats stats;
  for (const double s : {30.0, 10.0, 20.0}) stats.Add(s);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 20.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100.0), 30.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(25.0), 15.0);
  // Adding after a sorted read must keep percentiles correct.
  stats.Add(0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 0.0);
}

}  // namespace
}  // namespace vmsv
