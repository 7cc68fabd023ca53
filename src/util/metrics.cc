#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>

#include "util/env.h"
#include "util/logging.h"

namespace simgraph {
namespace metrics {

namespace internal_metrics {
std::atomic<bool> g_enabled{GetEnvInt64("SIMGRAPH_METRICS", 0) != 0};
}  // namespace internal_metrics

bool SetEnabled(bool enabled) {
  return internal_metrics::g_enabled.exchange(enabled,
                                              std::memory_order_relaxed);
}

std::string ShardMetricName(const std::string& base, int32_t shard) {
  return base + ".shard" + std::to_string(shard);
}

namespace {

// Atomic min/max via CAS; `first` distinguishes "no sample yet" from a
// genuine 0.0 extremum.
void AtomicMin(std::atomic<double>& target, double value, bool first) {
  double cur = target.load(std::memory_order_relaxed);
  while ((first || value < cur) &&
         !target.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    first = false;
  }
}

void AtomicMax(std::atomic<double>& target, double value, bool first) {
  double cur = target.load(std::memory_order_relaxed);
  while ((first || value > cur) &&
         !target.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    first = false;
  }
}

void AtomicAdd(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

int BucketIndex(double value) {
  if (!(value > LatencyHistogram::kBase)) return 0;
  const int index = static_cast<int>(
      std::ceil(std::log2(value / LatencyHistogram::kBase)));
  return std::clamp(index, 0, LatencyHistogram::kNumBuckets - 1);
}

// Minimal JSON string escaping; metric names are plain identifiers but
// the writer must not silently produce invalid output for odd ones.
void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

// JSON has no Infinity/NaN literals; clamp them to null.
void WriteJsonNumber(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << "null";
  }
}

}  // namespace

LatencyHistogram::LatencyHistogram() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::RecordUngated(double value) {
  const int64_t prior = count_.fetch_add(1, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value, /*first=*/prior == 0);
  AtomicMax(max_, value, /*first=*/prior == 0);
}

double LatencyHistogram::Mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double LatencyHistogram::Min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double LatencyHistogram::Max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double LatencyHistogram::BucketUpperBound(int i) {
  if (i >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return kBase * std::ldexp(1.0, i);
}

double LatencyHistogram::PercentileFromBuckets(const BucketCounts& buckets,
                                               int64_t n, double p,
                                               double lo_cap, double hi_cap) {
  if (n <= 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank target, as in util/histogram.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(
                               p / 100.0 * static_cast<double>(n))));
  // Reached only when `n` outruns the bucket counts (a racing Record).
  double result = hi_cap;
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= rank) {
      const double lo = i == 0 ? 0.0 : kBase * std::ldexp(1.0, i - 1);
      double hi = BucketUpperBound(i);
      if (!std::isfinite(hi)) {
        hi = std::isfinite(hi_cap) && hi_cap > lo ? hi_cap : lo * 2.0;
      }
      const double frac = static_cast<double>(rank - cumulative) /
                          static_cast<double>(in_bucket);
      result = lo + frac * (hi - lo);
      break;
    }
    cumulative += in_bucket;
  }
  return std::min(std::max(result, lo_cap), hi_cap);
}

double LatencyHistogram::Percentile(double p) const {
  BucketCounts buckets;
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[static_cast<size_t>(i)] = bucket_count(i);
  }
  return PercentileFromBuckets(buckets, count(), p, Min(), Max());
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// std::map keeps the JSON output sorted and (with node stability) the
// returned references valid forever; the registry is a leaked singleton
// so references also survive static destruction order.
struct Registry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl;
  return *impl;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry;
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  SIMGRAPH_CHECK(!i.gauges.contains(name) && !i.histograms.contains(name))
      << "metric '" << name << "' already registered with another type";
  auto& slot = i.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  SIMGRAPH_CHECK(!i.counters.contains(name) && !i.histograms.contains(name))
      << "metric '" << name << "' already registered with another type";
  auto& slot = i.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  SIMGRAPH_CHECK(!i.counters.contains(name) && !i.gauges.contains(name))
      << "metric '" << name << "' already registered with another type";
  auto& slot = i.histograms[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void Registry::WriteJson(std::ostream& out, bool pretty) const {
  // Separator strings parameterised on `pretty`: compact mode emits the
  // identical object with all whitespace removed (one NDJSON-safe line).
  const char* open = pretty ? "{\n  " : "{";
  const char* section_sep = pretty ? "},\n  " : "},";
  const char* item_open = pretty ? "\n    " : "";
  const char* item_sep = pretty ? ",\n    " : ",";
  const char* item_close = pretty ? "\n  " : "";
  const char* colon = pretty ? ": " : ":";
  const char* comma = pretty ? ", " : ",";
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  out.precision(15);
  out << open << "\"counters\"" << colon << "{";
  bool first = true;
  for (const auto& [name, c] : i.counters) {
    out << (first ? item_open : item_sep);
    first = false;
    WriteJsonString(out, name);
    out << colon << c->value();
  }
  out << (first ? "" : item_close) << section_sep << "\"gauges\"" << colon
      << "{";
  first = true;
  for (const auto& [name, g] : i.gauges) {
    out << (first ? item_open : item_sep);
    first = false;
    WriteJsonString(out, name);
    out << colon;
    WriteJsonNumber(out, g->value());
  }
  out << (first ? "" : item_close) << section_sep << "\"histograms\""
      << colon << "{";
  first = true;
  for (const auto& [name, h] : i.histograms) {
    out << (first ? item_open : item_sep);
    first = false;
    WriteJsonString(out, name);
    out << colon << "{\"count\"" << colon << h->count() << comma
        << "\"sum\"" << colon;
    WriteJsonNumber(out, h->sum());
    out << comma << "\"mean\"" << colon;
    WriteJsonNumber(out, h->Mean());
    out << comma << "\"min\"" << colon;
    WriteJsonNumber(out, h->Min());
    out << comma << "\"max\"" << colon;
    WriteJsonNumber(out, h->Max());
    out << comma << "\"p50\"" << colon;
    WriteJsonNumber(out, h->p50());
    out << comma << "\"p95\"" << colon;
    WriteJsonNumber(out, h->p95());
    out << comma << "\"p99\"" << colon;
    WriteJsonNumber(out, h->p99());
    out << comma << "\"buckets\"" << colon << "[";
    bool first_bucket = true;
    for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      const int64_t n = h->bucket_count(b);
      if (n == 0) continue;  // sparse export: empty buckets are implicit
      out << (first_bucket ? "" : comma);
      first_bucket = false;
      out << "{\"le\"" << colon;
      WriteJsonNumber(out, LatencyHistogram::BucketUpperBound(b));
      out << comma << "\"count\"" << colon << n << "}";
    }
    out << "]}";
  }
  out << (first ? "" : item_close) << "}" << (pretty ? "\n}\n" : "}");
}

void Registry::ForEach(
    const std::function<void(const std::string&, const Counter&)>&
        on_counter,
    const std::function<void(const std::string&, const Gauge&)>& on_gauge,
    const std::function<void(const std::string&, const LatencyHistogram&)>&
        on_histogram) const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (on_counter) {
    for (const auto& [name, c] : i.counters) on_counter(name, *c);
  }
  if (on_gauge) {
    for (const auto& [name, g] : i.gauges) on_gauge(name, *g);
  }
  if (on_histogram) {
    for (const auto& [name, h] : i.histograms) on_histogram(name, *h);
  }
}

Status Registry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open metrics output file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out) {
    return Status::IoError("failed writing metrics output file: " + path);
  }
  return Status::Ok();
}

Status Registry::WriteJsonFileAtomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  const Status written = WriteJsonFile(tmp);
  if (!written.ok()) return written;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

void Registry::Reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  for (auto& [name, c] : i.counters) c->Reset();
  for (auto& [name, g] : i.gauges) g->Reset();
  for (auto& [name, h] : i.histograms) h->Reset();
}

PeriodicFlusher::PeriodicFlusher(std::string path,
                                 std::chrono::milliseconds interval)
    : path_(std::move(path)), interval_(interval) {
  if (interval_.count() < 1) interval_ = std::chrono::milliseconds(1);
}

PeriodicFlusher::~PeriodicFlusher() { Stop(); }

void PeriodicFlusher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void PeriodicFlusher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
}

void PeriodicFlusher::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, interval_, [this] { return stopping_; });
    }
    // Atomic temp-file + rename: a collector tailing the snapshot must
    // never read a half-written JSON object mid-flush.
    const Status written = Registry::Global().WriteJsonFileAtomic(path_);
    if (written.ok()) {
      flushes_.fetch_add(1);
    } else if (!warned_) {
      warned_ = true;  // Loop-thread only; one warning per flusher.
      SIMGRAPH_LOG(Warning) << "metrics flush failed: "
                            << written.ToString();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // the pre-join write above was the final flush
  }
}

}  // namespace metrics
}  // namespace simgraph
