#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

// The benchmark's own arithmetic: exact percentiles over raw samples, the
// "enough samples beyond it" rule, span self time, generator lateness and
// the open-loop schedules. Header-only so tests/bench_math_test.cc covers
// exactly what the load generator runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples needed beyond a percentile before it may be reported.
inline constexpr double kMinSamplesBeyond = 10.0;

/// True when at least kMinSamplesBeyond of `n` samples lie above the
/// `q`-quantile (q in [0, 1)), i.e. n * (1 - q) >= 10.
inline bool PercentileSupported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= kMinSamplesBeyond - 1e-9;
}

/// Exact nearest-rank quantile of raw samples: the smallest sample with
/// at least ceil(q * n) samples at or below it. NaN when empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// One latency summary. `p99` holds the 99th percentile only when the
/// sample supports it (p99_supported); otherwise it holds the maximum, an
/// upper bound, and reports must say so.
struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  bool p99_supported = false;
};

inline Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.max = *std::max_element(samples.begin(), samples.end());
  s.p50 = Quantile(samples, 0.5);
  s.p99_supported = PercentileSupported(s.n, 0.99);
  s.p99 = s.p99_supported ? Quantile(samples, 0.99) : s.max;
  return s;
}

/// The `q`-quantile as the median over consecutive chunks of `samples`
/// (in the order given) of each chunk's own q-quantile, so one stall
/// moves one chunk rather than the result. Uses as many chunks (at most
/// `max_chunks`) as leave twice the supported minimum in each; with
/// fewer samples it is the plain quantile. Unsupported: the maximum.
inline double ChunkedQuantile(const std::vector<double>& samples, double q,
                              size_t max_chunks) {
  if (samples.empty()) return std::nan("");
  if (!PercentileSupported(samples.size(), q)) {
    return *std::max_element(samples.begin(), samples.end());
  }
  const size_t min_chunk =
      2 * static_cast<size_t>(std::ceil(kMinSamplesBeyond / (1.0 - q) - 1e-9));
  const size_t chunks =
      std::clamp<size_t>(samples.size() / min_chunk, 1, max_chunks);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t b = samples.size() * c / chunks;
    const size_t e = samples.size() * (c + 1) / chunks;
    per_chunk.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<long>(b),
                            samples.begin() + static_cast<long>(e)),
        q));
  }
  return Quantile(per_chunk, 0.5);
}

/// Median rate (per second) over the full buckets of a completion
/// histogram whose buckets are `bucket_s` seconds wide; the last bucket
/// is partial and skipped. NaN without a full bucket.
inline double MedianBucketRate(const std::vector<int64_t>& buckets,
                               double bucket_s) {
  if (buckets.size() < 2) return std::nan("");
  std::vector<double> rates;
  for (size_t i = 0; i + 1 < buckets.size(); ++i) {
    rates.push_back(static_cast<double>(buckets[i]) / bucket_s);
  }
  return Quantile(rates, 0.5);
}

/// A span's [begin, end) interval on one clock.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Self time of `parent`: its duration minus the part of it covered by
/// the union of `children` (children are clipped to the parent and
/// overlapping children are counted once).
inline double SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double cursor = parent.begin;
  for (const Interval& c : children) {
    const double b = std::max(c.begin, cursor);
    const double e = std::min(c.end, parent.end);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return (parent.end - parent.begin) - covered;
}

/// How late an operation was sent relative to its schedule (never
/// negative: sending early is not possible in an open loop that waits
/// for the due time).
inline double Lateness(double scheduled, double actual) {
  return std::max(0.0, actual - scheduled);
}

/// Due times (seconds from phase start) of a fixed-rate open loop:
/// i / rate for every i with i / rate < seconds.
inline std::vector<double> FixedRateSchedule(double rate, double seconds) {
  std::vector<double> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  const int64_t n = static_cast<int64_t>(std::ceil(rate * seconds - 1e-9));
  due.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / rate;
    if (t < seconds) due.push_back(t);
  }
  return due;
}

/// Due times that keep the relative spacing of `times` (the stream's own
/// timestamps, non-decreasing) but compress them to a mean rate of
/// `rate` per second: event i is due at (times[i] - times[0]) * scale
/// with scale = (n - 1) / rate / (times[n-1] - times[0]). Bursts in the
/// source stay bursts. A stream with no time span falls back to the
/// fixed-rate schedule.
inline std::vector<double> CompressedSchedule(const std::vector<int64_t>& times,
                                              double rate) {
  std::vector<double> due;
  const size_t n = times.size();
  if (n == 0 || rate <= 0.0) return due;
  const double span = static_cast<double>(times.back() - times.front());
  if (n == 1 || span <= 0.0) {
    for (size_t i = 0; i < n; ++i) due.push_back(static_cast<double>(i) / rate);
    return due;
  }
  const double scale = static_cast<double>(n - 1) / rate / span;
  due.reserve(n);
  for (int64_t t : times) {
    due.push_back(static_cast<double>(t - times.front()) * scale);
  }
  return due;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
