#ifndef SIMGRAPH_UTIL_TRACE_H_
#define SIMGRAPH_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/status.h"

/// \file
/// Scoped trace spans with Chrome trace-event export. Each span records
/// a begin/end pair on a per-thread buffer; Export() merges all buffers
/// into a chrome://tracing compatible JSON file, so a bench run can be
/// opened as a flame chart (see docs/observability.md for the worked
/// example and the span taxonomy).
///
///   {
///     SIMGRAPH_TRACE_SPAN("SimGraph::Build", "build");
///     ...  // everything in this scope shows as one slice
///   }
///   SIMGRAPH_CHECK_OK(simgraph::trace::Export("/tmp/trace.json"));
///
/// Tracing is off by default; a disabled span costs one relaxed atomic
/// load and touches no clock. Enable per process with the SIMGRAPH_TRACE
/// environment variable (any value but "0"), programmatically with
/// trace::SetEnabled(true), or via the --trace-json=PATH flag accepted
/// by every bench binary and simgraph_cli. Defining
/// SIMGRAPH_TRACE_DISABLED at compile time removes every macro call
/// site entirely.
///
/// ## Request-scoped tracing
///
/// The serving path additionally threads a 64-bit request id through
/// every stage of a request, across threads, so one request renders as
/// one connected tree in chrome://tracing (async-nestable events on a
/// per-request track). A RequestScope opens the request on the handling
/// thread; every TraceSpan constructed while a recording scope is
/// active attaches to its request id. Work handed to another thread
/// (e.g. across the ingestion queue) re-attaches with the adopting
/// RequestScope constructor, and stages whose start predates the
/// handling thread (queue wait) are recorded with RecordRequestSpan.
///
///   trace::RequestScope scope("request/recommend");
///   {
///     SIMGRAPH_TRACE_SPAN("request/cache_lookup", "serve");  // child
///   }
///
/// A RequestScope also collects a per-stage latency breakdown (one
/// entry per child span closed on the same thread), which the serving
/// flight recorder (serve/flight_recorder.h) keeps for slow requests.
/// Stage collection is active whenever tracing is on or
/// SetForceStageCollection(true) is in effect; otherwise a RequestScope
/// costs one id increment and no clock reads.
///
/// Export drops request-scoped child events whose request never
/// recorded a root span (e.g. tracing was toggled on mid-request), so
/// the exported file never contains a dangling request id.

namespace simgraph {
namespace trace {

namespace internal_trace {
extern std::atomic<bool> g_enabled;
}  // namespace internal_trace

/// True when span collection is on (one relaxed atomic load).
inline bool Enabled() {
  return internal_trace::g_enabled.load(std::memory_order_relaxed);
}

/// Turns collection on or off at runtime; returns the previous state.
/// The initial state comes from the SIMGRAPH_TRACE environment variable
/// (default off).
bool SetEnabled(bool enabled);

/// Records a zero-duration instant event (chrome://tracing draws a
/// vertical tick), e.g. one propagation iteration boundary.
void Instant(const char* name, const char* category = "app");

/// Number of events buffered so far across all threads.
int64_t NumBufferedEvents();

/// Discards every buffered event (thread ids are retained).
void Clear();

/// Writes all buffered events as Chrome trace JSON:
///   {"traceEvents": [{"name": ..., "cat": ..., "ph": "X",
///                     "ts": <us>, "dur": <us>, "pid": 1, "tid": N}, ...],
///    "displayTimeUnit": "ms"}
/// Timestamps are microseconds on a process-wide monotonic clock.
/// Request-scoped spans are written as async-nestable "b"/"e" pairs on
/// the "request" category with the request id as the event id; child
/// events whose request id has no recorded root span are dropped.
void WriteJson(std::ostream& out);

/// WriteJson to `path`; fails with kIoError when the file cannot be
/// written. The buffer is left intact (call Clear() to start over).
Status Export(const std::string& path);

/// Microseconds since the process trace epoch (the clock WriteJson
/// timestamps are on). Use with RecordRequestSpan for stages whose
/// start happened on another thread.
int64_t NowMicros();

/// Allocates a fresh nonzero request id (process-monotonic).
uint64_t NewRequestId();

class RequestScope;

/// The RequestScope governing the calling thread, or nullptr outside any
/// request. Passive nested scopes are transparent: this always returns
/// the scope that owns (or adopted) the request. Use it to carry the
/// request id across an explicit handoff (e.g. into a queue item).
RequestScope* CurrentScope();

/// Forces owning RequestScopes to collect per-stage breakdowns (and take
/// the scope clock) even while tracing is off — the hook behind the
/// serving flight recorder, which wants stage data for every request it
/// might retain. Returns the previous value.
bool SetForceStageCollection(bool force);
bool ForceStageCollection();

/// Records a span with explicit timing attached to `request_id` — for
/// stages measured across threads, e.g. the queue-wait between a
/// producer's enqueue and the applier's dequeue. A no-op while tracing
/// is disabled or `request_id` is 0. Like a child TraceSpan, the event
/// is dropped at export time if the request never recorded a root span.
void RecordRequestSpan(const char* name, const char* category,
                       int64_t start_us, int64_t dur_us,
                       uint64_t request_id);

/// One entry of a request's per-stage latency breakdown.
struct StageLatency {
  const char* name;  // the child span's name (a string literal)
  int64_t micros;
};

/// RAII request context for one served request.
///
/// The owning form (`adopt_id` == 0) allocates a new request id, makes
/// it current on this thread and records the root span named `op` on
/// destruction. A RequestScope constructed while another scope is
/// already current on the thread is passive: the outer scope keeps
/// owning the request (so a service-level scope nests cleanly under a
/// front-end scope).
///
/// The adopting form (`adopt_id` != 0) re-attaches work running on a
/// different thread (e.g. the ingestion applier) to an existing
/// request: child spans record under `adopt_id`, but no root span is
/// emitted. `adopt_recorded` must say whether the originating scope was
/// recording (carried alongside the id, e.g. through the ingestion
/// queue) so a child span never records under a request whose root was
/// dropped.
///
/// `op` must be a string literal.
class RequestScope {
 public:
  static constexpr int kMaxStages = 16;

  explicit RequestScope(const char* op, uint64_t adopt_id = 0,
                        bool adopt_recorded = false);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  uint64_t request_id() const { return id_; }
  /// True when this scope owns the request (allocated its id).
  bool owner() const { return owner_; }
  /// True when child spans record trace events under this request.
  bool recording() const { return recording_; }
  /// True when child spans feed the per-stage breakdown (tracing on or
  /// stage collection forced).
  bool collecting() const { return collecting_; }

  /// Renames the root span; call after the op becomes known (a wire
  /// request's op is only known once its line is parsed — inside the
  /// scope).
  void set_op(const char* op) { op_ = op; }

  /// Stages recorded so far by child spans on this thread.
  int num_stages() const { return num_stages_; }
  const StageLatency& stage(int i) const { return stages_[i]; }

  /// Microseconds since the scope opened; 0 when no clock was taken
  /// (the scope is not collecting).
  int64_t ElapsedUs() const;

 private:
  friend class TraceSpan;
  void AddStage(const char* name, int64_t micros);

  const char* op_ = nullptr;
  uint64_t id_ = 0;
  bool owner_ = false;
  bool passive_ = false;
  bool recording_ = false;
  bool collecting_ = false;
  int64_t start_us_ = -1;
  RequestScope* prev_ = nullptr;
  int num_stages_ = 0;
  StageLatency stages_[kMaxStages];
};

/// RAII complete-event span: records [construction, destruction) under
/// `name` on the calling thread's buffer. `name` and `category` must
/// outlive the span — pass string literals. A span constructed while
/// tracing is disabled stays inert even if tracing is enabled before it
/// closes (and vice versa), so toggling mid-span never produces a
/// half-recorded event. While a RequestScope is current on the thread,
/// the span additionally attaches to its request id (when recording)
/// and feeds its per-stage breakdown (when collecting).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "app");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  int64_t start_us_;
  uint64_t request_id_;
  RequestScope* scope_;
  bool active_;
  bool collect_;
};

}  // namespace trace
}  // namespace simgraph

#define SIMGRAPH_TRACE_CONCAT_INNER(a, b) a##b
#define SIMGRAPH_TRACE_CONCAT(a, b) SIMGRAPH_TRACE_CONCAT_INNER(a, b)

#if defined(SIMGRAPH_TRACE_DISABLED)

#define SIMGRAPH_TRACE_SPAN(...) (void)0
#define SIMGRAPH_TRACE_INSTANT(...) (void)0

#else

/// Opens a span covering the enclosing scope: name, optional category.
#define SIMGRAPH_TRACE_SPAN(...)                              \
  ::simgraph::trace::TraceSpan SIMGRAPH_TRACE_CONCAT(         \
      simgraph_trace_span_, __LINE__)(__VA_ARGS__)

/// Records an instant event: name, optional category.
#define SIMGRAPH_TRACE_INSTANT(...) ::simgraph::trace::Instant(__VA_ARGS__)

#endif  // SIMGRAPH_TRACE_DISABLED

#endif  // SIMGRAPH_UTIL_TRACE_H_
