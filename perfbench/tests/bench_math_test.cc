// Tests of the benchmark's own arithmetic (src/bench_math.h): the
// percentile rule, self-time subtraction, lateness and the schedules.

#include "bench_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileRuleTest, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
}

TEST(PercentileRuleTest, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Quantile(v, 0.5), 50.0);
  EXPECT_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_EQ(Quantile({7.0}, 0.99), 7.0);
}

TEST(PercentileRuleTest, SummaryFallsBackToMaxWhenUnsupported) {
  std::vector<double> v;
  for (int i = 1; i <= 50; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 50u);
  EXPECT_FALSE(s.p99_supported);
  EXPECT_EQ(s.p99, 50.0);
  EXPECT_EQ(s.p50, 25.0);
  EXPECT_DOUBLE_EQ(s.mean, 25.5);

  std::vector<double> w(2000, 1.0);
  w.back() = 9.0;
  const Summary t = Summarize(w);
  EXPECT_TRUE(t.p99_supported);
  EXPECT_EQ(t.p99, 1.0);
  EXPECT_EQ(t.max, 9.0);
}

TEST(PercentileRuleTest, ChunkedQuantileIsMedianOfChunks) {
  // 4000 samples -> two chunks of 2000 (twice the p99 minimum each).
  std::vector<double> v(4000, 1.0);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = 50.0;  // chunk 0
  // Chunk 0's p99 is 50, chunk 1's is 1; the median of the two is the
  // nearest-rank lower one.
  EXPECT_EQ(ChunkedQuantile(v, 0.99, 16), 1.0);
  // Three chunks with a stall in one: the stall does not move the result.
  std::vector<double> w(6000, 2.0);
  for (int i = 2000; i < 2100; ++i) w[static_cast<size_t>(i)] = 90.0;
  EXPECT_EQ(ChunkedQuantile(w, 0.99, 16), 2.0);
  // Too few samples for a supported p99: the maximum.
  EXPECT_EQ(ChunkedQuantile({1.0, 3.0, 2.0}, 0.99, 16), 3.0);
  // p50 chunks need only 40 samples each; capped by max_chunks.
  std::vector<double> x;
  for (int i = 0; i < 400; ++i) x.push_back(i % 2 == 0 ? 1.0 : 3.0);
  EXPECT_EQ(ChunkedQuantile(x, 0.5, 4), 1.0);
}

TEST(RateTest, MedianBucketRateSkipsPartialLastBucket) {
  EXPECT_DOUBLE_EQ(MedianBucketRate({10, 30, 20, 1}, 0.5), 40.0);
  EXPECT_TRUE(std::isnan(MedianBucketRate({10}, 0.5)));
}

TEST(SelfTimeTest, SubtractsChildrenUnionClippedToParent) {
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{2, 5}}), 7.0);
  // Overlapping children count once.
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{2, 6}, {4, 8}}), 4.0);
  // Children reaching outside the parent are clipped.
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{-5, 1}, {9, 20}}), 8.0);
  // Disjoint children in any order.
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{7, 8}, {1, 2}}), 8.0);
}

TEST(LatenessTest, NeverNegative) {
  EXPECT_DOUBLE_EQ(Lateness(1.0, 1.25), 0.25);
  EXPECT_DOUBLE_EQ(Lateness(1.0, 0.5), 0.0);
}

TEST(ScheduleTest, FixedRateSpacingAndCount) {
  const std::vector<double> due = FixedRateSchedule(4.0, 2.0);
  ASSERT_EQ(due.size(), 8u);
  EXPECT_DOUBLE_EQ(due[0], 0.0);
  EXPECT_DOUBLE_EQ(due[1], 0.25);
  EXPECT_DOUBLE_EQ(due.back(), 1.75);
  EXPECT_TRUE(FixedRateSchedule(0.0, 2.0).empty());
}

TEST(ScheduleTest, CompressedKeepsBurstsAndMeanRate) {
  // Two bursts one hour apart; at 10 events/s the 5 events span 0.4 s.
  const std::vector<int64_t> times = {0, 1, 2, 3600, 3601};
  const std::vector<double> due = CompressedSchedule(times, 10.0);
  ASSERT_EQ(due.size(), 5u);
  EXPECT_DOUBLE_EQ(due.front(), 0.0);
  EXPECT_DOUBLE_EQ(due.back(), 0.4);
  // The gap between the bursts dominates, as in the source stream.
  EXPECT_GT(due[3] - due[2], 100 * (due[1] - due[0]));
  // A stream with no time span falls back to a fixed rate.
  const std::vector<double> flat = CompressedSchedule({5, 5, 5}, 2.0);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_DOUBLE_EQ(flat[2], 1.0);
}

}  // namespace
}  // namespace perfbench
