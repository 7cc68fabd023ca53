#ifndef SIMGRAPH_UTIL_TIMESERIES_H_
#define SIMGRAPH_UTIL_TIMESERIES_H_

/// Windowed time-series telemetry.
///
/// The metrics registry (util/metrics.h) is cumulative-since-start, which
/// averages away anything that happens in minute nine of a ten-minute
/// run. This header adds the per-interval view:
///
///   - WindowedHistogram / RateMeter: fixed-capacity ring buffers of
///     per-window aggregates. Memory is constant, rotation is O(1) in
///     the epoch-stamp style of core/propagation's scratch (each slot
///     carries the window index it belongs to; advancing stamps and
///     clears only the slots being opened, never the samples already
///     recorded).
///   - TimeseriesRecorder: a background thread that closes a window
///     every `interval_ms`, diffs the global metrics registry against
///     the previous window (counter deltas, per-window histogram
///     percentiles from bucket-count deltas), and appends one versioned
///     NDJSON record per window to disk and to an in-memory ring that
///     the serving front-end exposes via the `stats-window` wire op.
///
/// Concurrency contract (telemetry-grade, mirrors util/metrics): Add()
/// may be called from any number of threads; AdvanceTo() must be called
/// from a single rotator thread. All shared state is relaxed atomics, so
/// there are no data races, but a sample racing a rotation may be
/// attributed to the adjacent window. Readers racing writers see
/// per-field-consistent (not snapshot-consistent) values.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"

namespace simgraph {
namespace timeseries {

/// Aggregates of one closed (or still-open) window.
struct WindowStats {
  /// The window index these stats belong to. When a lookup misses (the
  /// window was evicted by ring wraparound, or never opened), this holds
  /// the index actually found in the slot — callers detect eviction by
  /// comparing it with the index they asked for.
  int64_t window = -1;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact extremes; 0 when the window is empty
  double max = 0.0;
  /// metrics::LatencyHistogram::Percentile of the window's samples; 0
  /// when the window is empty.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// A ring of per-window metrics::LatencyHistogram instances (64 powers
/// of two over a 1e-9 base, so any positive quantity fits). Samples are
/// recorded whether or not metrics collection is on. Keeps the last
/// `capacity` windows.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(int32_t capacity = kDefaultCapacity);
  ~WindowedHistogram();  // out of line: Slot is an implementation detail
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  static constexpr int32_t kDefaultCapacity = 32;

  /// Records one sample into the currently open window. Thread-safe.
  void Add(double value);

  /// Opens `window`, closing every index in between (they become valid,
  /// empty windows — an idle interval is data, not absence of data).
  /// No-op when `window` <= current_window(). Jumping further than
  /// `capacity` windows evicts the skipped ones. Single-rotator only.
  void AdvanceTo(int64_t window);

  int64_t current_window() const {
    return current_.load(std::memory_order_acquire);
  }
  int32_t capacity() const { return capacity_; }

  /// Stats of one retained window (open or closed). On eviction the
  /// returned .window differs from the request — see WindowStats.
  WindowStats Window(int64_t window) const;
  /// The still-open window's stats so far.
  WindowStats Live() const { return Window(current_window()); }
  /// The most recent `n` closed windows, ascending by index, clipped to
  /// what the ring retains.
  std::vector<WindowStats> LastClosed(int32_t n) const;

 private:
  struct Slot;
  Slot& slot(int64_t window) const;

  const int32_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<int64_t> current_{0};
};

/// A ring of per-window event counts (hits, misses, degradations...).
/// Same rotation contract as WindowedHistogram.
class RateMeter {
 public:
  explicit RateMeter(int32_t capacity = WindowedHistogram::kDefaultCapacity);
  RateMeter(const RateMeter&) = delete;
  RateMeter& operator=(const RateMeter&) = delete;

  /// Adds `delta` events to the currently open window. Thread-safe.
  void Add(int64_t delta = 1);

  /// See WindowedHistogram::AdvanceTo. Single-rotator only.
  void AdvanceTo(int64_t window);

  int64_t current_window() const {
    return current_.load(std::memory_order_acquire);
  }
  int32_t capacity() const { return capacity_; }

  /// Count recorded in `window`; 0 when evicted or never opened.
  int64_t Count(int64_t window) const;
  /// The still-open window's count so far.
  int64_t LiveCount() const { return Count(current_window()); }

 private:
  struct Slot {
    std::atomic<int64_t> window{-1};
    std::atomic<int64_t> count{0};
  };
  Slot& slot(int64_t window) const;

  const int32_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<int64_t> current_{0};
};

/// Snapshots the global metrics registry every `interval_ms`, emitting
/// one Record per window. Counters are reported as per-window deltas,
/// gauges as their value at window close, histograms as per-window
/// count/sum/percentiles derived from bucket-count deltas. Each record
/// is serialized as one versioned JSON object (`{"v":1,...}`) appended
/// as an NDJSON line to `ndjson_path` (when set) and kept in an
/// in-memory ring of the last `ring_capacity` windows.
class TimeseriesRecorder {
 public:
  /// One histogram's activity inside a single window.
  struct HistogramWindow {
    int64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// One closed window.
  struct Record {
    int64_t window = 0;    ///< 0-based window index
    int64_t wall_ms = 0;   ///< wall-clock ms since epoch at window close
    double dt_s = 0.0;     ///< measured (monotonic) window length
    std::map<std::string, int64_t> counters;  ///< per-window deltas
    std::map<std::string, double> gauges;     ///< values at window close
    std::map<std::string, HistogramWindow> histograms;
    std::string json;  ///< the serialized NDJSON line (no trailing '\n')
  };

  struct Options {
    int64_t interval_ms = 1000;
    int32_t ring_capacity = 128;
    /// NDJSON sink; empty keeps records in memory only.
    std::string ndjson_path;
    /// Invoked at the top of every tick, before the registry snapshot,
    /// with the index of the window being closed — the hook where the
    /// serving layer rotates its windowed instruments (AdvanceTo(window
    /// + 1), then read back window `window`) and publishes
    /// `serve.window.*` gauges so they land in this very record. Runs on
    /// the recorder thread.
    std::function<void(int64_t window, double dt_s)> on_rotate;
    /// Invoked with the finished record (percentiles included) — the
    /// hook for drift detection such as the flight-recorder p99 spike
    /// rule. Runs on the recorder thread.
    std::function<void(const Record&)> on_record;
  };

  explicit TimeseriesRecorder(Options options);
  ~TimeseriesRecorder();
  TimeseriesRecorder(const TimeseriesRecorder&) = delete;
  TimeseriesRecorder& operator=(const TimeseriesRecorder&) = delete;

  /// Starts the background thread. Returns false if already running or
  /// interval_ms <= 0. The pre-Start registry state is baselined at
  /// construction, so window 0 covers construction..first-tick.
  bool Start();
  /// Stops and joins the background thread. Does not close a final
  /// window; call Tick() afterwards to capture the tail.
  void Stop();

  /// Closes the current window synchronously (what the background thread
  /// does every interval). Public so tests and benches can drive windows
  /// deterministically without a thread. Serialized internally.
  void Tick();

  /// Number of windows closed so far.
  int64_t windows() const { return windows_.load(std::memory_order_relaxed); }

  /// The most recent `max` records, ascending by window index.
  std::vector<Record> Recent(int32_t max) const;
  /// Same, but just the NDJSON lines (cheap to serve over the wire).
  std::vector<std::string> RecentJson(int32_t max) const;

  const Options& options() const { return options_; }

 private:
  struct PrevState;
  void Loop();

  Options options_;
  std::unique_ptr<PrevState> prev_;
  std::atomic<int64_t> windows_{0};

  std::mutex tick_mu_;     // serializes Tick()
  mutable std::mutex mu_;  // guards ring_
  std::vector<Record> ring_;

  std::mutex thread_mu_;  // guards thread lifecycle
  std::condition_variable cv_;
  std::thread thread_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace timeseries
}  // namespace simgraph

#endif  // SIMGRAPH_UTIL_TIMESERIES_H_
