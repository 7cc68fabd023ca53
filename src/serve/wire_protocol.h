#ifndef SIMGRAPH_SERVE_WIRE_PROTOCOL_H_
#define SIMGRAPH_SERVE_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/recommender.h"
#include "dataset/types.h"
#include "serve/backend.h"
#include "util/status.h"

namespace simgraph {
namespace serve {

/// Newline-delimited JSON wire protocol of tools/simgraph_served: one
/// flat JSON object per line in, one per line out (docs/serving.md has
/// the full reference with examples).
///
/// Requests:
///   {"op":"event","tweet":42,"user":7,"time":100000}
///   {"op":"recommend","user":7,"now":100500,"k":10}
///   {"op":"wait_applied","seq":12}
///   {"op":"stats"}
///   {"op":"stats-window","n":16}
///   {"op":"slow-log","n":16}
///   {"op":"metrics"}
///   {"op":"ping"}
struct WireRequest {
  enum class Op {
    kRecommend,
    kEvent,
    kWaitApplied,
    kStats,
    kStatsWindow,
    kSlowLog,
    kMetrics,
    kPing
  };
  Op op = Op::kPing;
  // event
  TweetId tweet = 0;
  UserId user = 0;
  Timestamp time = 0;
  // recommend
  Timestamp now = 0;
  int32_t k = 10;
  // wait_applied
  uint64_t seq = 0;
  // stats-window / slow-log: max entries to return
  int32_t limit = 16;
};

/// Parses one request line. Strict about structure (must be a flat JSON
/// object with a known "op") but ignores unknown keys, so clients may
/// attach e.g. tracing ids.
StatusOr<WireRequest> ParseRequestLine(std::string_view line);

/// {"ok":true,"op":"event","seq":12}
std::string FormatEventAck(uint64_t seq);

/// {"ok":true,"op":"recommend","user":7,"request_id":9,"cache_hit":false,
///  "degraded":false,"applied_seq":12,
///  "tweets":[{"id":3,"score":0.5}, ...]}
/// `request_id` is the server-assigned trace id of this request (0 when
/// tracing infrastructure assigned none); clients correlate it with the
/// flight recorder's slow-log entries and exported traces.
std::string FormatRecommendResponse(UserId user, uint64_t request_id,
                                    const std::vector<ScoredTweet>& tweets,
                                    bool cache_hit, bool degraded,
                                    uint64_t applied_seq);

/// {"ok":true,"op":"wait_applied","seq":12}
std::string FormatWaitAppliedAck(uint64_t seq);

/// {"ok":true,"op":"stats","applied_seq":12,"cached_entries":3,
///  "graph_epoch":1,"graph_edges":123,"num_shards":2,
///  "shards":[{"applied_seq":12,"cached_entries":1,...}, ...],
///  "metrics":{...}}
/// The top-level fields are the aggregates from `stats` (min applied
/// seq, summed cache entries); "shards" breaks them down per shard.
/// `metrics_json` must be a complete JSON value (the compact registry
/// snapshot from metrics::Registry::WriteJson(out, /*pretty=*/false));
/// when empty the "metrics" key is omitted.
std::string FormatStats(const BackendStats& stats,
                        const std::string& metrics_json = "");

/// {"ok":true,"op":"stats-window","windows":[{...}, ...]} — each array
/// element is one TimeseriesRecorder window record (the versioned
/// NDJSON object, docs/observability.md), embedded verbatim, oldest
/// first.
std::string FormatStatsWindow(const std::vector<std::string>& records);

/// {"ok":true,"op":"slow-log","entries":[{...}, ...]} — the flight
/// recorder's retained slowest requests, slowest first.
std::string FormatSlowLog(const std::vector<SlowRequestEntry>& entries);

/// Appends one slow-request entry as a JSON object:
/// {"request_id":9,"shard":0,"window":3,"user":7,"total_us":1234,
///  "cache_hit":false,"degraded":false,"stages":{"cache_lookup":2,...}}
/// Shared by FormatSlowLog and the automatic flight-recorder dump.
void AppendSlowRequestJson(std::string* out, const SlowRequestEntry& entry);

/// {"ok":true,"op":"ping"}
std::string FormatPong();

/// {"ok":false,"error":"..."} — `message` is JSON-escaped.
std::string FormatError(std::string_view message);

/// Append* twins of the Format* functions above: each appends the same
/// bytes to *out WITHOUT clearing it, so a per-connection reply buffer
/// (reserved once, reused every pass) accumulates a batch of responses
/// with no per-request string churn. The Format* functions are thin
/// wrappers over these.
void AppendEventAck(std::string* out, uint64_t seq);
void AppendRecommendResponse(std::string* out, UserId user,
                             uint64_t request_id,
                             const std::vector<ScoredTweet>& tweets,
                             bool cache_hit, bool degraded,
                             uint64_t applied_seq);
void AppendWaitAppliedAck(std::string* out, uint64_t seq);
void AppendStats(std::string* out, const BackendStats& stats,
                 const std::string& metrics_json = "");
void AppendStatsWindow(std::string* out,
                       const std::vector<std::string>& records);
void AppendSlowLog(std::string* out,
                   const std::vector<SlowRequestEntry>& entries);
void AppendPong(std::string* out);
void AppendError(std::string* out, std::string_view message);

/// Buffer-reuse accounting for the per-connection encode/decode buffers:
/// call with the buffer's capacity before an encode pass and the buffer
/// after it. Counts serve.wire.buffer.reuses when the pass fit in
/// storage the buffer already owned (allocations a fresh string per
/// response would have paid) and serve.wire.buffer.grows when the pass
/// had to (re)allocate.
void NoteReplyBufferUse(size_t capacity_before, const std::string& after);

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_WIRE_PROTOCOL_H_
