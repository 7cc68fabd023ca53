#include "util/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "util/env.h"

namespace simgraph {
namespace trace {

namespace internal_trace {
std::atomic<bool> g_enabled{GetEnvInt64("SIMGRAPH_TRACE", 0) != 0};
}  // namespace internal_trace

bool SetEnabled(bool enabled) {
  return internal_trace::g_enabled.exchange(enabled,
                                            std::memory_order_relaxed);
}

namespace {

std::atomic<uint64_t> g_next_request_id{1};
std::atomic<bool> g_force_stage_collection{false};

// The RequestScope currently governing this thread (nullptr outside any
// request). TraceSpan reads it to attach to the request id and feed the
// stage breakdown.
thread_local RequestScope* t_current_scope = nullptr;

// One buffered event. Names are copied at record time, so span call
// sites may pass literals without lifetime coupling to the export.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase;      // 'X' complete, 'i' instant
  int64_t ts_us;   // microseconds since the process trace epoch
  int64_t dur_us;  // for 'X' events
  /// Nonzero attaches the event to a request tree; exported as an
  /// async-nestable "b"/"e" pair instead of one 'X' event.
  uint64_t request_id = 0;
  /// True for the request's root span (the RequestScope itself); export
  /// drops request-scoped events whose id has no root.
  bool request_root = false;
};

// Per-thread event buffer. Buffers are owned by a leaked global list and
// never removed, so events survive thread exit and Export() can run
// while other threads keep recording (each append locks only its own
// buffer's mutex, which is uncontended on the hot path).
struct ThreadLog {
  std::mutex mu;
  std::vector<TraceEvent> events;
  int64_t tid;
};

struct GlobalState {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

GlobalState& Global() {
  static GlobalState* state = new GlobalState;
  return *state;
}

ThreadLog& LocalLog() {
  thread_local ThreadLog* log = [] {
    GlobalState& g = Global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.logs.push_back(std::make_unique<ThreadLog>());
    g.logs.back()->tid = static_cast<int64_t>(g.logs.size());
    return g.logs.back().get();
  }();
  return *log;
}

void BufferEvent(TraceEvent event) {
  ThreadLog& log = LocalLog();
  std::lock_guard<std::mutex> lock(log.mu);
  log.events.push_back(std::move(event));
}

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

void WriteHexId(std::ostream& out, uint64_t id) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%llx",
                static_cast<unsigned long long>(id));
  out << '"' << buffer << '"';
}

// Emits one request-scoped event as an async-nestable begin/end pair on
// the "request" category, id'd by the request — chrome://tracing (and
// Perfetto) render all pairs sharing an id as one nested track, so the
// whole request reads as one connected tree even across threads. The
// span's own category moves into args.
void WriteAsyncPair(std::ostream& out, const TraceEvent& e, int64_t tid,
                    bool* first) {
  out << (*first ? "\n" : ",\n") << "{\"name\": ";
  *first = false;
  WriteJsonString(out, e.name);
  out << ", \"cat\": \"request\", \"ph\": \"b\", \"ts\": " << e.ts_us
      << ", \"pid\": 1, \"tid\": " << tid << ", \"id\": ";
  WriteHexId(out, e.request_id);
  out << ", \"args\": {\"cat\": ";
  WriteJsonString(out, e.category);
  if (e.request_root) out << ", \"root\": true";
  out << "}},\n";
  out << "{\"name\": ";
  WriteJsonString(out, e.name);
  out << ", \"cat\": \"request\", \"ph\": \"e\", \"ts\": "
      << e.ts_us + e.dur_us << ", \"pid\": 1, \"tid\": " << tid
      << ", \"id\": ";
  WriteHexId(out, e.request_id);
  out << "}";
}

}  // namespace

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Global().epoch)
      .count();
}

uint64_t NewRequestId() {
  return g_next_request_id.fetch_add(1, std::memory_order_relaxed);
}

RequestScope* CurrentScope() { return t_current_scope; }

bool SetForceStageCollection(bool force) {
  return g_force_stage_collection.exchange(force, std::memory_order_relaxed);
}

bool ForceStageCollection() {
  return g_force_stage_collection.load(std::memory_order_relaxed);
}

void Instant(const char* name, const char* category) {
  if (!Enabled()) return;
  BufferEvent(TraceEvent{name, category, 'i', NowMicros(), 0, 0, false});
}

void RecordRequestSpan(const char* name, const char* category,
                       int64_t start_us, int64_t dur_us,
                       uint64_t request_id) {
  if (!Enabled() || request_id == 0) return;
  BufferEvent(TraceEvent{name, category, 'X', start_us, dur_us, request_id,
                         false});
}

int64_t NumBufferedEvents() {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  int64_t total = 0;
  for (const auto& log : g.logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    total += static_cast<int64_t>(log->events.size());
  }
  return total;
}

void Clear() {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  for (const auto& log : g.logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    log->events.clear();
  }
}

void WriteJson(std::ostream& out) {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  // Pass 1: the set of request ids that recorded a root span. Children
  // of requests without a root (tracing toggled on mid-request, or the
  // root dropped by a toggle-off) would render as orphan trees — they
  // are dropped instead.
  std::unordered_set<uint64_t> rooted;
  for (const auto& log : g.logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const TraceEvent& e : log->events) {
      if (e.request_root) rooted.insert(e.request_id);
    }
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& log : g.logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const TraceEvent& e : log->events) {
      if (e.request_id != 0) {
        if (rooted.contains(e.request_id)) {
          WriteAsyncPair(out, e, log->tid, &first);
        }
        continue;
      }
      out << (first ? "\n" : ",\n") << "{\"name\": ";
      first = false;
      WriteJsonString(out, e.name);
      out << ", \"cat\": ";
      WriteJsonString(out, e.category);
      out << ", \"ph\": \"" << e.phase << "\", \"ts\": " << e.ts_us;
      if (e.phase == 'X') out << ", \"dur\": " << e.dur_us;
      if (e.phase == 'i') out << ", \"s\": \"t\"";
      out << ", \"pid\": 1, \"tid\": " << log->tid << "}";
    }
  }
  out << (first ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
}

Status Export(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out) {
    return Status::IoError("failed writing trace output file: " + path);
  }
  return Status::Ok();
}

RequestScope::RequestScope(const char* op, uint64_t adopt_id,
                           bool adopt_recorded)
    : op_(op) {
  prev_ = t_current_scope;
  if (adopt_id == 0 && prev_ != nullptr) {
    // Nested on the same thread: the outer scope owns the request; this
    // one is a transparent passthrough.
    passive_ = true;
    return;
  }
  if (adopt_id != 0) {
    id_ = adopt_id;
    owner_ = false;
    // Never record under an id whose root was not recorded — that would
    // be a dangling parent in the exported tree.
    recording_ = adopt_recorded && Enabled();
  } else {
    id_ = NewRequestId();
    owner_ = true;
    recording_ = Enabled();
  }
  collecting_ = recording_ || (owner_ && ForceStageCollection());
  if (collecting_) start_us_ = NowMicros();
  t_current_scope = this;
}

RequestScope::~RequestScope() {
  if (passive_) return;
  t_current_scope = prev_;
  if (owner_ && recording_ && Enabled()) {
    BufferEvent(TraceEvent{op_, "serve", 'X', start_us_,
                           NowMicros() - start_us_, id_,
                           /*request_root=*/true});
  }
}

int64_t RequestScope::ElapsedUs() const {
  if (passive_) return prev_ != nullptr ? prev_->ElapsedUs() : 0;
  return start_us_ >= 0 ? NowMicros() - start_us_ : 0;
}

void RequestScope::AddStage(const char* name, int64_t micros) {
  if (num_stages_ >= kMaxStages) return;
  stages_[num_stages_++] = StageLatency{name, micros};
}

TraceSpan::TraceSpan(const char* name, const char* category)
    : name_(name),
      category_(category),
      start_us_(0),
      request_id_(0),
      scope_(t_current_scope),
      active_(Enabled()),
      collect_(false) {
  if (scope_ != nullptr && scope_->collecting()) {
    collect_ = true;
    if (active_ && scope_->recording()) request_id_ = scope_->request_id();
  }
  if (active_ || collect_) start_us_ = NowMicros();
}

TraceSpan::~TraceSpan() {
  if (!active_ && !collect_) return;
  const int64_t end_us = NowMicros();
  // The scope pointer is only valid while that scope is still current
  // on this thread (spans are expected to close inside their scope).
  if (collect_ && t_current_scope == scope_) {
    scope_->AddStage(name_, end_us - start_us_);
  }
  if (!active_ || !Enabled()) return;
  BufferEvent(TraceEvent{name_, category_, 'X', start_us_,
                         end_us - start_us_, request_id_, false});
}

}  // namespace trace
}  // namespace simgraph
