#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "serve/binary_wire.h"
#include "serve/wire_protocol.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/net.h"
#include "util/prom_export.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {
namespace {

bool SendRaw(int fd, const std::string& payload) {
  size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent,
                             payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Which framing a connection speaks; decided by its first byte.
enum class WireMode { kUndecided, kNdjson, kBinary };

/// One decoded-but-unserved request of a recv pass. NDJSON: `text` is
/// the request line. Binary: `op` + `text` (the payload bytes, copied
/// out before the connection buffer is compacted). `oversized` marks
/// the spot where a discarded over-cap request ended; it owes the
/// client exactly one structured error in sequence.
struct PendingRequest {
  bool oversized = false;
  BinaryOp op = BinaryOp::kError;
  std::string text;
};

std::string OversizedMessage(WireMode mode) {
  return mode == WireMode::kBinary
             ? "binary frame payload exceeds " +
                   std::to_string(TcpServer::kMaxLineBytes) + " bytes"
             : "request line exceeds " +
                   std::to_string(TcpServer::kMaxLineBytes) + " bytes";
}

/// Cheap peek for batching: is this entry (almost certainly) a
/// recommend? Binary frames carry the op byte, so the answer is exact;
/// for NDJSON a substring probe suffices — a false positive only
/// demotes the run back to one-at-a-time handling after the real parse.
bool ProbablyRecommend(WireMode mode, const PendingRequest& entry) {
  if (entry.oversized) return false;
  if (mode == WireMode::kBinary) return entry.op == BinaryOp::kRecommend;
  return entry.text.find("\"op\":\"recommend\"") != std::string::npos ||
         entry.text.find("\"op\" : \"recommend\"") != std::string::npos;
}

}  // namespace

TcpServer::TcpServer(ServingBackend* service) : service_(service) {
  SIMGRAPH_CHECK(service != nullptr);
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(uint16_t port) {
  // Shared loopback listener (util/net.h): ephemeral-port readback for
  // port 0, EADDRINUSE retry for explicit ports on busy CI runners.
  StatusOr<int> fd = net::ListenLoopback(port, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    // shutdown() breaks the blocking accept(); close() alone would not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    workers.swap(workers_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listener closed underneath us
    }
    SIMGRAPH_COUNTER_ADD("serve.tcp.connections", 1);
    std::lock_guard<std::mutex> lock(workers_mu_);
    open_fds_.push_back(fd);
    workers_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void TcpServer::ServeConnection(int fd) {
  WireMode mode = WireMode::kUndecided;
  std::string buffer;
  // The per-connection reply buffer: every response of a recv pass is
  // appended here (no per-request string) and the whole pass leaves in
  // one send. clear() keeps the capacity, so steady state allocates
  // nothing (NoteReplyBufferUse keeps score).
  std::string reply;
  reply.reserve(4096);
  std::string scratch;  // reused JSON body for binary text frames
  std::vector<PendingRequest> pending;
  // NDJSON oversized-line discard (see the class comment).
  bool discarding_oversized = false;
  // Binary oversized-frame discard: payload bytes still to stream past.
  uint64_t skip_remaining = 0;
  char chunk[4096];
  while (!stopping_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error
    buffer.append(chunk, static_cast<size_t>(n));

    if (mode == WireMode::kUndecided) {
      // Protocol negotiation on the first meaningful byte: an SGRQ
      // hello leads with 'S', while no NDJSON request can (a line must
      // open with '{' to parse). Whitespace before the first request is
      // insignificant in both protocols.
      size_t start = 0;
      while (start < buffer.size() &&
             (buffer[start] == ' ' || buffer[start] == '\t' ||
              buffer[start] == '\r' || buffer[start] == '\n')) {
        ++start;
      }
      if (start >= buffer.size()) {
        buffer.clear();
        continue;
      }
      if (buffer[start] == 'S') {
        if (buffer.size() - start < kBinaryHelloBytes) continue;
        const Status hello = ParseBinaryHello(
            std::string_view(buffer).substr(start, kBinaryHelloBytes));
        if (!hello.ok()) {
          // A bad magic/version is a client that will never speak
          // either protocol correctly: one error frame, then hang up.
          std::string err;
          AppendBinaryErrorFrame(&err, hello.message());
          SendRaw(fd, err);
          goto done;
        }
        buffer.erase(0, start + kBinaryHelloBytes);
        // Echo our hello so the client knows the server speaks SGRQ
        // (and at which version) before it commits frames.
        std::string ack;
        AppendBinaryHello(&ack);
        if (!SendRaw(fd, ack)) goto done;
        mode = WireMode::kBinary;
        SIMGRAPH_COUNTER_ADD("serve.tcp.binary_connections", 1);
      } else {
        buffer.erase(0, start);
        mode = WireMode::kNdjson;
      }
    }

    // Decode stage: everything complete in the buffer becomes one
    // pending entry, in arrival order. Nothing is served yet.
    pending.clear();
    if (mode == WireMode::kBinary) {
      for (;;) {
        if (skip_remaining > 0) {
          // Mid-discard of an oversized frame: eat bytes, never buffer.
          const uint64_t eat =
              std::min<uint64_t>(buffer.size(), skip_remaining);
          buffer.erase(0, static_cast<size_t>(eat));
          skip_remaining -= eat;
          if (skip_remaining > 0) break;
          // The frame has fully streamed past; it owes one error.
          pending.push_back(PendingRequest{true, BinaryOp::kError, ""});
        }
        const BinaryDecodeResult decoded =
            DecodeBinaryFrame(buffer, kMaxLineBytes);
        if (decoded.status == BinaryDecodeStatus::kNeedMore) break;
        if (decoded.status == BinaryDecodeStatus::kOversized) {
          SIMGRAPH_COUNTER_ADD("serve.tcp.oversized_frames", 1);
          buffer.erase(0, kBinaryFrameHeaderBytes);
          skip_remaining = decoded.oversized_payload;
          continue;
        }
        pending.push_back(PendingRequest{
            false, decoded.frame.op, std::string(decoded.frame.payload)});
        buffer.erase(0, decoded.frame.frame_bytes);
      }
    } else {
      size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        if (discarding_oversized) {
          // The tail of a line whose head was already thrown away.
          discarding_oversized = false;
          pending.push_back(PendingRequest{true, BinaryOp::kError, ""});
          continue;
        }
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (line.size() > kMaxLineBytes) {
          // The whole line arrived in one buffer before the cap check
          // saw it; reject it exactly like the streamed case.
          SIMGRAPH_COUNTER_ADD("serve.tcp.oversized_lines", 1);
          pending.push_back(PendingRequest{true, BinaryOp::kError, ""});
          continue;
        }
        pending.push_back(
            PendingRequest{false, BinaryOp::kError, std::move(line)});
      }
      if (!discarding_oversized && buffer.size() > kMaxLineBytes) {
        // The line under assembly already blew the cap: drop what is
        // buffered and keep eating bytes until its newline shows up.
        SIMGRAPH_COUNTER_ADD("serve.tcp.oversized_lines", 1);
        discarding_oversized = true;
        buffer.clear();
      } else if (discarding_oversized) {
        // Still inside the oversized line; nothing here is a request.
        buffer.clear();
      }
    }
    if (pending.empty()) continue;

    // Serve stage: responses append to `reply` in request order; the
    // pass flushes once at the end (and before any blocking wait, so a
    // pipelined client is never deadlocked behind its own wait).
    const bool binary = mode == WireMode::kBinary;
    const size_t reply_capacity_before = reply.capacity();
    size_t idx = 0;
    while (idx < pending.size()) {
      // Batch run: consecutive recommends from a pipelined client cross
      // the backend as ONE RecommendBatch call — on a sharded backend
      // that is one router hop and one shard lock per shard touched.
      size_t run = 0;
      while (idx + run < pending.size() && run < kMaxBatchRequests &&
             ProbablyRecommend(mode, pending[idx + run])) {
        ++run;
      }
      if (run >= 2) {
        std::vector<StatusOr<WireRequest>> parsed_run;
        parsed_run.reserve(run);
        bool all_recommend = true;
        for (size_t i = 0; i < run; ++i) {
          const PendingRequest& entry = pending[idx + i];
          parsed_run.push_back(
              binary ? ParseBinaryRequest(entry.op, entry.text)
                     : ParseRequestLine(entry.text));
          if (!parsed_run.back().ok() ||
              parsed_run.back()->op != WireRequest::Op::kRecommend) {
            all_recommend = false;
          }
        }
        if (all_recommend) {
          // One scope per batch: route_batch and the shards' recommend
          // spans nest under it; encoded responses carry its id.
          trace::RequestScope scope("request/handle_batch");
          scope.set_op("request/recommend_batch");
          std::vector<RecommendRequest> requests;
          requests.reserve(run);
          for (const StatusOr<WireRequest>& parsed : parsed_run) {
            requests.push_back(
                RecommendRequest{parsed->user, parsed->now, parsed->k});
          }
          const std::vector<RecommendResponse> responses =
              service_->RecommendBatch(requests);
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          for (size_t i = 0; i < run; ++i) {
            const RecommendResponse& response = responses[i];
            if (!response.status.ok()) {
              if (binary) {
                AppendBinaryErrorFrame(&reply, response.status.message());
              } else {
                AppendError(&reply, response.status.message());
                reply += '\n';
              }
            } else if (binary) {
              AppendBinaryRecommendResponse(
                  &reply, requests[i].user, scope.request_id(),
                  response.tweets, response.cache_hit, response.degraded,
                  response.applied_seq);
            } else {
              AppendRecommendResponse(&reply, requests[i].user,
                                      scope.request_id(), response.tweets,
                                      response.cache_hit, response.degraded,
                                      response.applied_seq);
              reply += '\n';
            }
          }
          idx += run;
          continue;
        }
        // A lookalike slipped into the run (possible for NDJSON only);
        // fall through and serve this pass one request at a time.
      }

      const PendingRequest& entry = pending[idx++];
      // One entry is one request: the scope assigns the request id and
      // spans decode through serialize, so the exported trace renders
      // the whole request as one connected tree (docs/observability.md).
      trace::RequestScope scope("request/handle");
      if (entry.oversized) {
        SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
        if (binary) {
          AppendBinaryErrorFrame(&reply, OversizedMessage(mode));
        } else {
          AppendError(&reply, OversizedMessage(mode));
          reply += '\n';
        }
        continue;
      }
      StatusOr<WireRequest> parsed = [&] {
        SIMGRAPH_TRACE_SPAN("request/parse", "serve");
        return binary ? ParseBinaryRequest(entry.op, entry.text)
                      : ParseRequestLine(entry.text);
      }();
      if (!parsed.ok()) {
        SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
        if (binary) {
          AppendBinaryErrorFrame(&reply, parsed.status().message());
        } else {
          AppendError(&reply, parsed.status().message());
          reply += '\n';
        }
        continue;
      }
      const WireRequest& request = *parsed;
      switch (request.op) {
        case WireRequest::Op::kEvent: {
          scope.set_op("request/event");
          const uint64_t seq = service_->Publish(
              RetweetEvent{request.tweet, request.user, request.time});
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (seq == 0) {
            if (binary) {
              AppendBinaryErrorFrame(&reply, "service stopped");
            } else {
              AppendError(&reply, "service stopped");
              reply += '\n';
            }
          } else if (binary) {
            AppendBinaryEventAck(&reply, seq);
          } else {
            AppendEventAck(&reply, seq);
            reply += '\n';
          }
          break;
        }
        case WireRequest::Op::kRecommend: {
          scope.set_op("request/recommend");
          const RecommendResponse response = service_->Recommend(
              RecommendRequest{request.user, request.now, request.k});
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (!response.status.ok()) {
            if (binary) {
              AppendBinaryErrorFrame(&reply, response.status.message());
            } else {
              AppendError(&reply, response.status.message());
              reply += '\n';
            }
          } else if (binary) {
            AppendBinaryRecommendResponse(
                &reply, request.user, scope.request_id(), response.tweets,
                response.cache_hit, response.degraded, response.applied_seq);
          } else {
            AppendRecommendResponse(&reply, request.user, scope.request_id(),
                                    response.tweets, response.cache_hit,
                                    response.degraded, response.applied_seq);
            reply += '\n';
          }
          break;
        }
        case WireRequest::Op::kWaitApplied: {
          scope.set_op("request/wait_applied");
          // Flush everything already answered before blocking, so a
          // pipelined client sees its earlier replies while it waits.
          if (!reply.empty()) {
            if (!SendRaw(fd, reply)) goto done;
            reply.clear();
          }
          service_->WaitForApplied(request.seq);
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (binary) {
            AppendBinaryWaitAppliedAck(&reply, service_->AppliedSeq());
          } else {
            AppendWaitAppliedAck(&reply, service_->AppliedSeq());
            reply += '\n';
          }
          break;
        }
        case WireRequest::Op::kStats: {
          scope.set_op("request/stats");
          std::ostringstream metrics_json;
          metrics::Registry::Global().WriteJson(metrics_json,
                                                /*pretty=*/false);
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (binary) {
            scratch.clear();
            AppendStats(&scratch, service_->Stats(), metrics_json.str());
            AppendBinaryTextFrame(&reply, BinaryOp::kStats, scratch);
          } else {
            AppendStats(&reply, service_->Stats(), metrics_json.str());
            reply += '\n';
          }
          break;
        }
        case WireRequest::Op::kStatsWindow: {
          scope.set_op("request/stats_window");
          if (recorder_ == nullptr) {
            SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
            const std::string_view message =
                "no timeseries recorder (start simgraph_served with "
                "--stats-window-ms)";
            if (binary) {
              AppendBinaryErrorFrame(&reply, message);
            } else {
              AppendError(&reply, message);
              reply += '\n';
            }
          } else {
            const std::vector<std::string> records =
                recorder_->RecentJson(request.limit);
            SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
            if (binary) {
              scratch.clear();
              AppendStatsWindow(&scratch, records);
              AppendBinaryTextFrame(&reply, BinaryOp::kStatsWindow, scratch);
            } else {
              AppendStatsWindow(&reply, records);
              reply += '\n';
            }
          }
          break;
        }
        case WireRequest::Op::kSlowLog: {
          scope.set_op("request/slow_log");
          std::vector<SlowRequestEntry> entries;
          service_->CollectSlowRequests(request.limit, &entries);
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (binary) {
            scratch.clear();
            AppendSlowLog(&scratch, entries);
            AppendBinaryTextFrame(&reply, BinaryOp::kSlowLog, scratch);
          } else {
            AppendSlowLog(&reply, entries);
            reply += '\n';
          }
          break;
        }
        case WireRequest::Op::kMetrics: {
          scope.set_op("request/metrics");
          // Prometheus text exposition; in NDJSON mode it streams
          // verbatim (self-framed by its "# EOF" terminator), in binary
          // mode it travels inside one text frame.
          const std::string text =
              metrics::PrometheusText(metrics::Registry::Global());
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (binary) {
            AppendBinaryTextFrame(&reply, BinaryOp::kMetrics, text);
          } else {
            reply += text;
          }
          break;
        }
        case WireRequest::Op::kPing: {
          scope.set_op("request/ping");
          SIMGRAPH_TRACE_SPAN("request/serialize", "serve");
          if (binary) {
            AppendBinaryPong(&reply);
          } else {
            AppendPong(&reply);
            reply += '\n';
          }
          break;
        }
      }
    }
    if (!reply.empty()) {
      if (!SendRaw(fd, reply)) goto done;
    }
    NoteReplyBufferUse(reply_capacity_before, reply);
    reply.clear();
  }
done:
  // Deregister before closing so Stop never shuts down a recycled fd.
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                    open_fds_.end());
  }
  ::close(fd);
}

}  // namespace serve
}  // namespace simgraph
