#ifndef SIMGRAPH_UTIL_METRICS_H_
#define SIMGRAPH_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

/// \file
/// Process-global metrics: monotonic counters, gauges and fixed-bucket
/// latency histograms, collected behind a single runtime switch and
/// exported as one JSON snapshot. The registry is the quantitative half
/// of the observability layer (trace spans in util/trace.h are the
/// qualitative half); docs/observability.md is the full reference of
/// every name recorded by the library.
///
/// Usage — the macros cache the registry lookup in a function-local
/// static, so the hot path is one relaxed atomic check plus one relaxed
/// atomic add:
///
///   SIMGRAPH_COUNTER_ADD("propagation.updates", result.updates);
///   SIMGRAPH_GAUGE_SET("threadpool.queue_depth", depth);
///   SIMGRAPH_HISTOGRAM_RECORD("propagation.residual", max_delta);
///   { SIMGRAPH_SCOPED_LATENCY("recommend.cf.seconds"); ...; }
///
/// Collection is off by default; it costs one relaxed load per call site
/// when off. Enable per process with the SIMGRAPH_METRICS environment
/// variable (any value but "0"), programmatically with
/// metrics::SetEnabled(true), or via the --metrics-json=PATH flag that
/// every bench binary and simgraph_cli accept. Defining
/// SIMGRAPH_METRICS_DISABLED at compile time removes every macro call
/// site entirely.

namespace simgraph {
namespace metrics {

namespace internal_metrics {
extern std::atomic<bool> g_enabled;
}  // namespace internal_metrics

/// True when metric collection is on (one relaxed atomic load).
inline bool Enabled() {
  return internal_metrics::g_enabled.load(std::memory_order_relaxed);
}

/// Turns collection on or off at runtime; returns the previous state.
/// The initial state comes from the SIMGRAPH_METRICS environment
/// variable (default off).
bool SetEnabled(bool enabled);

/// Name of the per-shard variant of a metric in a sharded deployment:
/// ShardMetricName("serve.requests", 3) == "serve.requests.shard3".
/// Shard-labelled names are dynamic, so call sites cache the returned
/// metric reference themselves instead of using the literal-name macros
/// below (see serve/service.cc for the pattern).
std::string ShardMetricName(const std::string& base, int32_t shard);

/// A monotonically increasing counter. Thread-safe; increments from
/// concurrent threads are never lost.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `delta` (>= 0); a no-op while collection is disabled.
  void Add(int64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A last-write-wins instantaneous value (queue depth, last build size).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  /// Stores `value`; a no-op while collection is disabled.
  void Set(double value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A fixed-bucket histogram for positive measurements (latencies in
/// seconds, frontier sizes, residuals). Buckets are powers of two over a
/// 1e-9 base: bucket i counts samples in (1e-9 * 2^(i-1), 1e-9 * 2^i],
/// bucket 0 catches everything <= 1e-9, the last bucket is unbounded.
/// This spans one nanosecond to ~18e9 seconds, so one shape fits every
/// quantity the library records. Unlike util/histogram's exact
/// sample-storing Histogram this one is lock-free, constant-memory and
/// safe to hammer from many threads; percentiles are interpolated inside
/// the matched bucket and therefore carry at most one octave of error.
///
/// This class is the only owner of the bucket layout and the percentile
/// estimator: util/timeseries keeps one LatencyHistogram per window and
/// derives per-window percentiles of registry histograms with
/// PercentileFromBuckets.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr double kBase = 1e-9;
  /// Plain per-bucket counts (a snapshot, or a delta of two snapshots).
  using BucketCounts = std::array<int64_t, kNumBuckets>;

  LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample; a no-op while collection is disabled.
  /// Non-positive samples land in bucket 0.
  void Record(double value) {
    if (Enabled()) RecordUngated(value);
  }
  /// Records one sample whatever the collection switch says — for
  /// histograms that live outside the registry (util/timeseries).
  void RecordUngated(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Mean of the recorded samples; 0 when empty.
  double Mean() const;
  /// Smallest / largest sample seen (exact, not bucketed); 0 when empty.
  double Min() const;
  double Max() const;

  /// Nearest-rank percentile estimate, p in [0, 100]; linearly
  /// interpolated within the matched bucket. Returns 0 when empty.
  double Percentile(double p) const;
  double p50() const { return Percentile(50.0); }
  double p95() const { return Percentile(95.0); }
  double p99() const { return Percentile(99.0); }

  /// Count in bucket `i` (upper bound kBase * 2^i), for export.
  int64_t bucket_count(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `i` (infinity for the last bucket).
  static double BucketUpperBound(int i);

  /// Nearest-rank percentile, p in [0, 100], of `n` samples with the
  /// given bucket counts, linearly interpolated within the matched
  /// bucket and clamped to [lo_cap, hi_cap] — the exact sample extremes
  /// when known, else -infinity and infinity. A finite `hi_cap` closes
  /// the open last bucket; without one that bucket spans one octave.
  /// Returns 0 when `n` <= 0.
  static double PercentileFromBuckets(const BucketCounts& buckets, int64_t n,
                                      double p, double lo_cap, double hi_cap);

  void Reset();

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// The process-global name -> metric table. Lookups take a mutex, so
/// call sites cache the returned reference (the macros below do this in
/// a function-local static). Returned references stay valid for the
/// lifetime of the process: Reset() zeroes values but never deallocates.
class Registry {
 public:
  /// The singleton used by the whole library.
  static Registry& Global();

  /// Finds or creates the named metric. Creating the same name with two
  /// different types is a programming error (SIMGRAPH_CHECK).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Writes every metric as one JSON object with "counters", "gauges"
  /// and "histograms" sections, names sorted (see docs/observability.md
  /// for the schema). `pretty` false emits the same object with no
  /// whitespace at all — a single line, embeddable in NDJSON replies.
  void WriteJson(std::ostream& out, bool pretty) const;
  void WriteJson(std::ostream& out) const { WriteJson(out, true); }

  /// WriteJson to `path`; fails with kUnavailable when the file cannot
  /// be opened.
  Status WriteJsonFile(const std::string& path) const;

  /// WriteJson to `path` via a `path + ".tmp"` sibling and an atomic
  /// rename, so a reader tailing the file never observes a torn
  /// (partially written) snapshot. The temp file lands in the same
  /// directory, which keeps the rename atomic on POSIX filesystems.
  Status WriteJsonFileAtomic(const std::string& path) const;

  /// Visits every registered metric (sorted by name) under the registry
  /// lock; callbacks must not call back into the registry. Null
  /// callbacks skip that section. This is the export hook behind
  /// util/prom_export.h.
  void ForEach(
      const std::function<void(const std::string&, const Counter&)>&
          on_counter,
      const std::function<void(const std::string&, const Gauge&)>& on_gauge,
      const std::function<void(const std::string&, const LatencyHistogram&)>&
          on_histogram) const;

  /// Zeroes every registered metric (values only; references returned by
  /// the accessors remain valid). Intended for tests and bench warm-up.
  void Reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Periodically writes the global registry's JSON snapshot to a file
/// from a background thread, so an external collector can tail live
/// metrics without waiting for process exit (the serving front-end's
/// `stats`/`metrics` commands read the registry directly; this is the
/// file-based counterpart). Start() launches the thread, Stop() (also
/// run by the destructor) performs one final flush and joins. Write
/// failures are logged once per path, not fatal.
class PeriodicFlusher {
 public:
  PeriodicFlusher(std::string path, std::chrono::milliseconds interval);
  ~PeriodicFlusher();

  PeriodicFlusher(const PeriodicFlusher&) = delete;
  PeriodicFlusher& operator=(const PeriodicFlusher&) = delete;

  /// Launches the flusher thread. Idempotent.
  void Start();

  /// Final flush + join. Idempotent.
  void Stop();

  /// Completed flushes so far (tests poll this).
  int64_t flushes() const { return flushes_.load(); }

 private:
  void Loop();

  std::string path_;
  std::chrono::milliseconds interval_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::atomic<int64_t> flushes_{0};
  bool warned_ = false;
};

/// RAII wall-clock timer recording elapsed seconds into a histogram on
/// destruction. Skips the clock entirely when collection is disabled at
/// construction time.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram& histogram)
      : histogram_(Enabled() ? &histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatencyTimer() {
    if (histogram_ == nullptr) return;
    histogram_->Record(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace metrics
}  // namespace simgraph

#define SIMGRAPH_METRICS_CONCAT_INNER(a, b) a##b
#define SIMGRAPH_METRICS_CONCAT(a, b) SIMGRAPH_METRICS_CONCAT_INNER(a, b)

#if defined(SIMGRAPH_METRICS_DISABLED)

#define SIMGRAPH_COUNTER_ADD(name, delta) (void)0
#define SIMGRAPH_GAUGE_SET(name, value) (void)0
#define SIMGRAPH_HISTOGRAM_RECORD(name, value) (void)0
#define SIMGRAPH_SCOPED_LATENCY(name) (void)0

#else

/// Adds `delta` to the counter `name` (string literal).
#define SIMGRAPH_COUNTER_ADD(name, delta)                            \
  do {                                                               \
    static ::simgraph::metrics::Counter& simgraph_metric_ref_ =      \
        ::simgraph::metrics::Registry::Global().counter(name);       \
    simgraph_metric_ref_.Add(delta);                                 \
  } while (false)

/// Sets the gauge `name` to `value`.
#define SIMGRAPH_GAUGE_SET(name, value)                              \
  do {                                                               \
    static ::simgraph::metrics::Gauge& simgraph_metric_ref_ =        \
        ::simgraph::metrics::Registry::Global().gauge(name);         \
    simgraph_metric_ref_.Set(value);                                 \
  } while (false)

/// Records one sample into the histogram `name`.
#define SIMGRAPH_HISTOGRAM_RECORD(name, value)                         \
  do {                                                                 \
    static ::simgraph::metrics::LatencyHistogram& simgraph_metric_ref_ = \
        ::simgraph::metrics::Registry::Global().histogram(name);       \
    simgraph_metric_ref_.Record(value);                                \
  } while (false)

/// Times the enclosing scope into the histogram `name` (seconds).
#define SIMGRAPH_SCOPED_LATENCY(name)                                     \
  static ::simgraph::metrics::LatencyHistogram&                           \
      SIMGRAPH_METRICS_CONCAT(simgraph_latency_hist_, __LINE__) =         \
          ::simgraph::metrics::Registry::Global().histogram(name);        \
  ::simgraph::metrics::ScopedLatencyTimer SIMGRAPH_METRICS_CONCAT(        \
      simgraph_latency_timer_, __LINE__)(                                 \
      SIMGRAPH_METRICS_CONCAT(simgraph_latency_hist_, __LINE__))

#endif  // SIMGRAPH_METRICS_DISABLED

#endif  // SIMGRAPH_UTIL_METRICS_H_
