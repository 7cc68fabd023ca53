#include "util/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace simgraph {
namespace timeseries {
namespace {

using metrics::LatencyHistogram;
constexpr int kNumBuckets = LatencyHistogram::kNumBuckets;

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("0");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out->append(buf);
}

// One histogram's cumulative state at a tick; windows are bucket-count
// deltas between consecutive snapshots.
struct HistSnapshot {
  LatencyHistogram::BucketCounts buckets{};
  int64_t count = 0;
  double sum = 0.0;
};

void SnapshotRegistry(std::map<std::string, int64_t>* counters,
                      std::map<std::string, double>* gauges,
                      std::map<std::string, HistSnapshot>* histograms) {
  metrics::Registry::Global().ForEach(
      [&](const std::string& name, const metrics::Counter& c) {
        (*counters)[name] = c.value();
      },
      [&](const std::string& name, const metrics::Gauge& g) {
        (*gauges)[name] = g.value();
      },
      [&](const std::string& name, const LatencyHistogram& h) {
        auto& hist = (*histograms)[name];
        for (int i = 0; i < kNumBuckets; ++i) {
          hist.buckets[static_cast<size_t>(i)] = h.bucket_count(i);
        }
        hist.count = h.count();
        hist.sum = h.sum();
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// WindowedHistogram

// Each window records into its own LatencyHistogram, ungated: windows
// are not part of the registry and record whether or not metrics
// collection is on.
struct WindowedHistogram::Slot {
  std::atomic<int64_t> window{-1};
  LatencyHistogram histogram;
};

WindowedHistogram::WindowedHistogram(int32_t capacity)
    : capacity_(std::max(capacity, 2)), slots_(new Slot[capacity_]) {
  // Window 0 is open from construction.
  slots_[0].window.store(0, std::memory_order_relaxed);
}

WindowedHistogram::~WindowedHistogram() = default;

WindowedHistogram::Slot& WindowedHistogram::slot(int64_t window) const {
  return slots_[static_cast<size_t>(window % capacity_)];
}

void WindowedHistogram::Add(double value) {
  slot(current_.load(std::memory_order_acquire))
      .histogram.RecordUngated(value);
}

void WindowedHistogram::AdvanceTo(int64_t window) {
  const int64_t cur = current_.load(std::memory_order_relaxed);
  if (window <= cur) return;
  // Only slots actually being opened get cleared: a jump past `capacity`
  // windows touches `capacity` slots, never more.
  const int64_t first = std::max(cur + 1, window - capacity_ + 1);
  for (int64_t w = first; w <= window; ++w) {
    Slot& s = slot(w);
    s.histogram.Reset();
    s.window.store(w, std::memory_order_relaxed);
  }
  current_.store(window, std::memory_order_release);
}

WindowStats WindowedHistogram::Window(int64_t window) const {
  const Slot& s = slot(std::max<int64_t>(window, 0));
  WindowStats stats;
  stats.window = s.window.load(std::memory_order_relaxed);
  if (stats.window != window) return stats;  // evicted or never opened
  const LatencyHistogram& h = s.histogram;
  stats.count = h.count();
  stats.sum = h.sum();
  stats.min = h.Min();
  stats.max = h.Max();
  stats.p50 = h.p50();
  stats.p95 = h.p95();
  stats.p99 = h.p99();
  return stats;
}

std::vector<WindowStats> WindowedHistogram::LastClosed(int32_t n) const {
  std::vector<WindowStats> out;
  const int64_t cur = current_window();
  const int64_t first =
      std::max<int64_t>(0, std::max(cur - n, cur - capacity_ + 1));
  for (int64_t w = first; w < cur; ++w) {
    WindowStats stats = Window(w);
    if (stats.window == w) out.push_back(stats);
  }
  return out;
}

// ---------------------------------------------------------------------------
// RateMeter

RateMeter::RateMeter(int32_t capacity)
    : capacity_(std::max(capacity, 2)), slots_(new Slot[capacity_]) {
  slots_[0].window.store(0, std::memory_order_relaxed);
}

RateMeter::Slot& RateMeter::slot(int64_t window) const {
  return slots_[static_cast<size_t>(window % capacity_)];
}

void RateMeter::Add(int64_t delta) {
  slot(current_.load(std::memory_order_acquire))
      .count.fetch_add(delta, std::memory_order_relaxed);
}

void RateMeter::AdvanceTo(int64_t window) {
  const int64_t cur = current_.load(std::memory_order_relaxed);
  if (window <= cur) return;
  const int64_t first = std::max(cur + 1, window - capacity_ + 1);
  for (int64_t w = first; w <= window; ++w) {
    Slot& s = slot(w);
    s.count.store(0, std::memory_order_relaxed);
    s.window.store(w, std::memory_order_relaxed);
  }
  current_.store(window, std::memory_order_release);
}

int64_t RateMeter::Count(int64_t window) const {
  const Slot& s = slot(std::max<int64_t>(window, 0));
  if (s.window.load(std::memory_order_relaxed) != window) return 0;
  return s.count.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TimeseriesRecorder

struct TimeseriesRecorder::PrevState {
  std::map<std::string, int64_t> counters;
  std::map<std::string, HistSnapshot> histograms;
  std::chrono::steady_clock::time_point last_tick;
  std::ofstream ndjson;
  bool ndjson_opened = false;
  bool ndjson_warned = false;
};

namespace {

std::string SerializeRecord(const TimeseriesRecorder::Record& rec) {
  std::string out;
  out.reserve(512);
  out.append("{\"v\":1,\"window\":");
  out.append(std::to_string(rec.window));
  out.append(",\"wall_ms\":");
  out.append(std::to_string(rec.wall_ms));
  out.append(",\"dt_s\":");
  AppendJsonDouble(&out, rec.dt_s);
  out.append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, delta] : rec.counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out.append(std::to_string(delta));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : rec.gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendJsonDouble(&out, value);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : rec.histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.append(":{\"count\":");
    out.append(std::to_string(h.count));
    out.append(",\"sum\":");
    AppendJsonDouble(&out, h.sum);
    out.append(",\"p50\":");
    AppendJsonDouble(&out, h.p50);
    out.append(",\"p95\":");
    AppendJsonDouble(&out, h.p95);
    out.append(",\"p99\":");
    AppendJsonDouble(&out, h.p99);
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

}  // namespace

TimeseriesRecorder::TimeseriesRecorder(Options options)
    : options_(std::move(options)), prev_(new PrevState) {
  options_.ring_capacity = std::max(options_.ring_capacity, 1);
  std::map<std::string, double> ignored_gauges;
  SnapshotRegistry(&prev_->counters, &ignored_gauges, &prev_->histograms);
  prev_->last_tick = std::chrono::steady_clock::now();
}

TimeseriesRecorder::~TimeseriesRecorder() { Stop(); }

bool TimeseriesRecorder::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (started_ || options_.interval_ms <= 0) return false;
  stopping_ = false;
  started_ = true;
  thread_ = std::thread(&TimeseriesRecorder::Loop, this);
  return true;
}

void TimeseriesRecorder::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(thread_mu_);
  started_ = false;
  stopping_ = false;
}

void TimeseriesRecorder::Loop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [&] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void TimeseriesRecorder::Tick() {
  std::lock_guard<std::mutex> tick_lock(tick_mu_);
  const auto now = std::chrono::steady_clock::now();
  double dt_s =
      std::chrono::duration<double>(now - prev_->last_tick).count();
  if (dt_s <= 0.0) dt_s = 1e-9;
  const int64_t window = windows_.load(std::memory_order_relaxed);

  if (options_.on_rotate) options_.on_rotate(window, dt_s);

  Record rec;
  rec.window = window;
  rec.dt_s = dt_s;
  rec.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();

  std::map<std::string, int64_t> counters;
  std::map<std::string, HistSnapshot> histograms;
  SnapshotRegistry(&counters, &rec.gauges, &histograms);

  // Quiet metrics are omitted from the record: a counter that did not
  // move or a histogram with no samples this window carries no signal,
  // and leaving them out keeps NDJSON lines proportional to activity.
  for (const auto& [name, value] : counters) {
    const auto it = prev_->counters.find(name);
    const int64_t delta = value - (it == prev_->counters.end() ? 0 : it->second);
    if (delta != 0) rec.counters[name] = delta;
  }
  for (const auto& [name, hist] : histograms) {
    const auto it = prev_->histograms.find(name);
    LatencyHistogram::BucketCounts delta{};
    int64_t n = 0;
    double sum_delta = hist.sum;
    if (it == prev_->histograms.end()) {
      delta = hist.buckets;
      for (int64_t b : delta) n += b;
    } else {
      for (int i = 0; i < kNumBuckets; ++i) {
        delta[static_cast<size_t>(i)] =
            hist.buckets[static_cast<size_t>(i)] -
            it->second.buckets[static_cast<size_t>(i)];
        n += delta[static_cast<size_t>(i)];
      }
      sum_delta = hist.sum - it->second.sum;
    }
    if (n <= 0) continue;
    HistogramWindow hw;
    hw.count = n;
    hw.sum = sum_delta;
    // The registry keeps no per-window extremes, so the estimate is
    // uncapped and the open last bucket spans one octave.
    const auto percentile = [&delta, n](double p) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      return LatencyHistogram::PercentileFromBuckets(delta, n, p, -kInf,
                                                     kInf);
    };
    hw.p50 = percentile(50.0);
    hw.p95 = percentile(95.0);
    hw.p99 = percentile(99.0);
    rec.histograms[name] = hw;
  }

  rec.json = SerializeRecord(rec);

  if (!options_.ndjson_path.empty()) {
    if (!prev_->ndjson_opened) {
      prev_->ndjson.open(options_.ndjson_path, std::ios::app);
      prev_->ndjson_opened = true;
    }
    if (prev_->ndjson) {
      prev_->ndjson << rec.json << '\n';
      prev_->ndjson.flush();
    } else if (!prev_->ndjson_warned) {
      prev_->ndjson_warned = true;
      SIMGRAPH_LOG(Warning) << "timeseries: cannot append to "
                            << options_.ndjson_path;
    }
  }

  prev_->counters = std::move(counters);
  prev_->histograms = std::move(histograms);
  prev_->last_tick = now;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(rec);
    if (static_cast<int32_t>(ring_.size()) > options_.ring_capacity) {
      ring_.erase(ring_.begin());
    }
  }
  windows_.store(window + 1, std::memory_order_relaxed);

  if (options_.on_record) options_.on_record(rec);
}

std::vector<TimeseriesRecorder::Record> TimeseriesRecorder::Recent(
    int32_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min<size_t>(ring_.size(), std::max(max, 0));
  return std::vector<Record>(ring_.end() - static_cast<ptrdiff_t>(n),
                             ring_.end());
}

std::vector<std::string> TimeseriesRecorder::RecentJson(int32_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min<size_t>(ring_.size(), std::max(max, 0));
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    out.push_back(ring_[i].json);
  }
  return out;
}

}  // namespace timeseries
}  // namespace simgraph
