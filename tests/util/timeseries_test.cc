#include "util/timeseries.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace simgraph {
namespace timeseries {
namespace {

TEST(WindowedHistogramTest, LiveWindowAccumulates) {
  WindowedHistogram h;
  h.Add(1.0);
  h.Add(3.0);
  const WindowStats live = h.Live();
  EXPECT_EQ(live.window, 0);
  EXPECT_EQ(live.count, 2);
  EXPECT_DOUBLE_EQ(live.sum, 4.0);
  EXPECT_DOUBLE_EQ(live.min, 1.0);
  EXPECT_DOUBLE_EQ(live.max, 3.0);
  EXPECT_DOUBLE_EQ(live.Mean(), 2.0);
}

TEST(WindowedHistogramTest, AdvanceClosesWindowExactlyAtBoundary) {
  WindowedHistogram h;
  h.Add(5.0);
  // Advancing to the *same* window is a no-op; the samples stay live.
  h.AdvanceTo(0);
  EXPECT_EQ(h.Live().count, 1);
  h.AdvanceTo(1);
  EXPECT_EQ(h.current_window(), 1);
  EXPECT_EQ(h.Live().count, 0);  // new window starts empty
  const WindowStats closed = h.Window(0);
  EXPECT_EQ(closed.count, 1);
  EXPECT_DOUBLE_EQ(closed.sum, 5.0);
}

TEST(WindowedHistogramTest, AdvanceBackwardsIsIgnored) {
  WindowedHistogram h;
  h.AdvanceTo(5);
  h.Add(1.0);
  h.AdvanceTo(3);  // stale rotator tick must not clobber the live window
  EXPECT_EQ(h.current_window(), 5);
  EXPECT_EQ(h.Live().count, 1);
}

TEST(WindowedHistogramTest, SkippedWindowsReadEmpty) {
  WindowedHistogram h;
  h.Add(2.0);
  h.AdvanceTo(4);  // windows 1..3 never saw a sample
  EXPECT_EQ(h.Window(0).count, 1);
  for (int64_t w = 1; w < 4; ++w) {
    const WindowStats empty = h.Window(w);
    EXPECT_EQ(empty.count, 0) << "window " << w;
    EXPECT_DOUBLE_EQ(empty.sum, 0.0) << "window " << w;
  }
}

TEST(WindowedHistogramTest, RingWraparoundEvictsOldWindows) {
  WindowedHistogram h(/*capacity=*/4);
  for (int64_t w = 0; w < 10; ++w) {
    h.Add(static_cast<double>(w));
    h.AdvanceTo(w + 1);
  }
  // The ring retains the live window 10 plus the newest closed windows;
  // evicted indexes read as empty stats (stamp mismatch), never as the
  // evictor's samples.
  EXPECT_EQ(h.Window(9).count, 1);
  EXPECT_DOUBLE_EQ(h.Window(9).sum, 9.0);
  EXPECT_EQ(h.Window(2).count, 0);
  EXPECT_EQ(h.Window(0).count, 0);
}

TEST(WindowedHistogramTest, LastClosedReturnsAscendingClosedWindows) {
  WindowedHistogram h;
  for (int64_t w = 0; w < 3; ++w) {
    h.Add(static_cast<double>(w + 1));
    h.AdvanceTo(w + 1);
  }
  // The two newest closed windows (1 and 2), ascending; the live window
  // 3 is excluded.
  const std::vector<WindowStats> last = h.LastClosed(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].window, 1);
  EXPECT_DOUBLE_EQ(last[0].sum, 2.0);
  EXPECT_EQ(last[1].window, 2);
  EXPECT_DOUBLE_EQ(last[1].sum, 3.0);
}

TEST(WindowedHistogramTest, PercentilesWithinClosedWindow) {
  WindowedHistogram h;
  for (int i = 1; i <= 100; ++i) h.Add(static_cast<double>(i) * 1e-3);
  h.AdvanceTo(1);
  const WindowStats closed = h.Window(0);
  EXPECT_EQ(closed.count, 100);
  // Bucketed percentiles are approximate; power-of-two buckets bound the
  // error by 2x.
  EXPECT_GT(closed.p50, 0.02);
  EXPECT_LT(closed.p50, 0.11);
  EXPECT_GE(closed.p99, closed.p50);
  EXPECT_LE(closed.p99, closed.max * 2);
}

TEST(WindowedHistogramTest, MatchesLatencyHistogramOnSameSamples) {
  // A window promises LatencyHistogram's numbers exactly: same buckets,
  // same record step, same percentile estimator.
  const bool was_enabled = metrics::SetEnabled(true);
  WindowedHistogram window;
  metrics::LatencyHistogram cumulative;
  // Spread over many octaves, up to the open last bucket (its lower
  // bound is 1e-9 * 2^62, about 4.6e9).
  const double samples[] = {3e-9, 7.5e-7, 1e-6,  2.5e-4, 1e-3, 1e-3,
                            0.04, 0.9,    12.0,  3e5,    6e9,  2e10};
  for (double v : samples) {
    window.Add(v);
    cumulative.Record(v);
  }
  metrics::SetEnabled(was_enabled);
  ASSERT_GT(samples[11], metrics::LatencyHistogram::BucketUpperBound(
                             metrics::LatencyHistogram::kNumBuckets - 2));
  const WindowStats live = window.Live();
  EXPECT_EQ(live.count, cumulative.count());
  EXPECT_EQ(live.sum, cumulative.sum());
  EXPECT_EQ(live.min, cumulative.Min());
  EXPECT_EQ(live.max, cumulative.Max());
  EXPECT_EQ(live.p50, cumulative.p50());
  EXPECT_EQ(live.p95, cumulative.p95());
  EXPECT_EQ(live.p99, cumulative.p99());
}

TEST(RateMeterTest, CountsPerWindowAndWraps) {
  RateMeter m(/*capacity=*/4);
  m.Add();
  m.Add(2);
  EXPECT_EQ(m.LiveCount(), 3);
  m.AdvanceTo(1);
  EXPECT_EQ(m.Count(0), 3);
  EXPECT_EQ(m.LiveCount(), 0);
  for (int64_t w = 1; w < 9; ++w) {
    m.Add(w);
    m.AdvanceTo(w + 1);
  }
  EXPECT_EQ(m.Count(8), 8);
  EXPECT_EQ(m.Count(0), 0);  // evicted by wraparound
}

TEST(RateMeterTest, BackwardsAdvanceIgnored) {
  RateMeter m;
  m.AdvanceTo(7);
  m.Add();
  m.AdvanceTo(2);
  EXPECT_EQ(m.LiveCount(), 1);
  EXPECT_EQ(m.Count(7), 1);
}

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::SetEnabled(true);
    metrics::Registry::Global().Reset();
  }
  void TearDown() override { metrics::Registry::Global().Reset(); }
};

TEST_F(RecorderTest, TickSnapshotsCounterDeltas) {
  metrics::Counter& c =
      metrics::Registry::Global().counter("test.ts.requests");
  TimeseriesRecorder::Options options;
  options.interval_ms = 3600 * 1000;  // never fires on its own
  TimeseriesRecorder recorder(options);
  c.Add(5);
  recorder.Tick();
  c.Add(7);
  recorder.Tick();
  const std::vector<TimeseriesRecorder::Record> recent = recorder.Recent(10);
  ASSERT_EQ(recent.size(), 2u);
  // Records are ascending by window; deltas, not cumulative values.
  EXPECT_EQ(recent[0].counters.at("test.ts.requests"), 5);
  EXPECT_EQ(recent[1].counters.at("test.ts.requests"), 7);
  EXPECT_LT(recent[0].window, recent[1].window);
}

TEST_F(RecorderTest, OnRotateSeesWindowBeingClosed) {
  TimeseriesRecorder::Options options;
  options.interval_ms = 3600 * 1000;
  std::vector<int64_t> rotated;
  options.on_rotate = [&rotated](int64_t window, double) {
    rotated.push_back(window);
  };
  TimeseriesRecorder recorder(options);
  recorder.Tick();
  recorder.Tick();
  ASSERT_EQ(rotated.size(), 2u);
  EXPECT_EQ(rotated[0] + 1, rotated[1]);
}

TEST_F(RecorderTest, NdjsonLinesAreValidAndVersioned) {
  const std::string path =
      ::testing::TempDir() + "/timeseries_recorder_test.ndjson";
  std::remove(path.c_str());
  {
    TimeseriesRecorder::Options options;
    options.interval_ms = 3600 * 1000;
    options.ndjson_path = path;
    TimeseriesRecorder recorder(options);
    metrics::Registry::Global().counter("test.ts.ndjson").Add(1);
    recorder.Tick();
    recorder.Tick();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"v\":1"), std::string::npos);
    EXPECT_NE(line.find("\"counters\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST_F(RecorderTest, RingCapacityBoundsRecent) {
  TimeseriesRecorder::Options options;
  options.interval_ms = 3600 * 1000;
  options.ring_capacity = 3;
  TimeseriesRecorder recorder(options);
  for (int i = 0; i < 10; ++i) recorder.Tick();
  EXPECT_EQ(recorder.Recent(100).size(), 3u);
  EXPECT_EQ(recorder.Recent(2).size(), 2u);
  EXPECT_EQ(recorder.windows(), 10);
}

TEST_F(RecorderTest, StartStopDoesNotCrashAndStopsTicking) {
  TimeseriesRecorder::Options options;
  options.interval_ms = 1;
  TimeseriesRecorder recorder(options);
  recorder.Start();
  // Give the thread a moment to produce at least one record.
  for (int i = 0; i < 200 && recorder.windows() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  recorder.Stop();
  const int64_t after_stop = recorder.windows();
  EXPECT_GT(after_stop, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(recorder.windows(), after_stop);
}

}  // namespace
}  // namespace timeseries
}  // namespace simgraph
