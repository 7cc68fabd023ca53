#include "wire_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "util/net.h"
#include "workload.h"

namespace perfbench {

using simgraph::serve::BinaryOp;
using simgraph::serve::WireRequest;

namespace {

std::atomic<int> g_open_connections{0};

// Finds `"key":` in a flat reply line and returns the offset just past it.
size_t FindValue(const std::string& line, const char* key, size_t from = 0) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

}  // namespace

bool SameTweets(const std::vector<simgraph::ScoredTweet>& a,
                const std::vector<simgraph::ScoredTweet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tweet != b[i].tweet ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

Answer ParseNdjsonAnswer(const std::string& line) {
  Answer a;
  if (line.find("\"ok\":true") == std::string::npos) return a;
  a.ok = true;
  a.cache_hit = line.find("\"cache_hit\":true") != std::string::npos;
  a.degraded = line.find("\"degraded\":true") != std::string::npos;
  size_t at = FindValue(line, "applied_seq");
  if (at != std::string::npos) {
    a.applied_seq = std::strtoull(line.c_str() + at, nullptr, 10);
  }
  at = FindValue(line, "tweets");
  while (at != std::string::npos) {
    const size_t id = FindValue(line, "id", at);
    if (id == std::string::npos) break;
    const size_t score = FindValue(line, "score", id);
    if (score == std::string::npos) break;
    simgraph::ScoredTweet t;
    t.tweet = std::strtoll(line.c_str() + id, nullptr, 10);
    t.score = std::strtod(line.c_str() + score, nullptr);
    a.tweets.push_back(t);
    at = score;
  }
  return a;
}

std::unique_ptr<WireConn> WireConn::Open(uint16_t port, bool binary) {
  if (g_open_connections.fetch_add(1) + 1 > kMaxConnections) {
    std::fprintf(stderr, "perfbench: connection limit %d exceeded\n",
                 kMaxConnections);
    std::abort();
  }
  simgraph::StatusOr<int> fd = simgraph::net::ConnectLoopback(port, 10000);
  if (!fd.ok()) {
    g_open_connections.fetch_sub(1);
    std::fprintf(stderr, "perfbench: connect %u: %s\n", port,
                 fd.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<WireConn> conn(new WireConn(*fd, binary));
  if (binary && !simgraph::serve::SendBinaryHandshake(*fd).ok()) {
    std::fprintf(stderr, "perfbench: SGRQ handshake with %u failed\n", port);
    return nullptr;
  }
  return conn;
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
  g_open_connections.fetch_sub(1);
}

void WireConn::QueueRecommend(simgraph::UserId user, simgraph::Timestamp now,
                              int32_t k) {
  if (binary_) {
    WireRequest r;
    r.op = WireRequest::Op::kRecommend;
    r.user = user;
    r.now = now;
    r.k = k;
    simgraph::serve::AppendBinaryRequest(&out_, r);
  } else {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"op\":\"recommend\",\"user\":%d,\"now\":%lld,\"k\":%d}\n",
                  user, static_cast<long long>(now), k);
    out_ += line;
  }
}

void WireConn::QueueEvent(const simgraph::RetweetEvent& event) {
  WireRequest r;
  r.op = WireRequest::Op::kEvent;
  r.tweet = event.tweet;
  r.user = event.user;
  r.time = event.time;
  simgraph::serve::AppendBinaryRequest(&out_, r);
}

void WireConn::QueueWaitApplied(uint64_t seq) {
  WireRequest r;
  r.op = WireRequest::Op::kWaitApplied;
  r.seq = seq;
  simgraph::serve::AppendBinaryRequest(&out_, r);
}

bool WireConn::Flush() {
  if (out_.empty()) return true;
  const bool sent = simgraph::net::SendAll(fd_, out_.data(), out_.size());
  out_.clear();
  return sent;
}

bool WireConn::Poll(double timeout_s) {
  pollfd p{fd_, POLLIN, 0};
  timespec ts{};
  timespec* tsp = nullptr;
  if (timeout_s >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
    tsp = &ts;
  }
  const int ready = ::ppoll(&p, 1, tsp, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready == 0) return true;
  if (in_pos_ > 0 && in_pos_ == in_.size()) {
    in_.clear();
    in_pos_ = 0;
  }
  char chunk[64 * 1024];
  const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (got <= 0) return got < 0 && (errno == EINTR || errno == EAGAIN);
  in_.append(chunk, static_cast<size_t>(got));
  return true;
}

bool WireConn::NextReply(BinaryOp* op, std::string* payload) {
  const std::string_view rest(in_.data() + in_pos_, in_.size() - in_pos_);
  if (binary_) {
    const simgraph::serve::BinaryDecodeResult r =
        simgraph::serve::DecodeBinaryFrame(rest, 64u << 20);
    if (r.status != simgraph::serve::BinaryDecodeStatus::kFrame) return false;
    *op = r.frame.op;
    payload->assign(r.frame.payload);
    in_pos_ += r.frame.frame_bytes;
  } else {
    const size_t nl = rest.find('\n');
    if (nl == std::string_view::npos) return false;
    payload->assign(rest.substr(0, nl));
    *op = payload->find("\"ok\":true") != std::string::npos
              ? BinaryOp::kRecommend
              : BinaryOp::kError;
    in_pos_ += nl + 1;
  }
  if (in_pos_ == in_.size()) {
    in_.clear();
    in_pos_ = 0;
  }
  return true;
}

bool WireConn::ReadReply(BinaryOp* op, std::string* payload) {
  while (!NextReply(op, payload)) {
    if (!Poll(-1.0)) return false;
  }
  return true;
}

Answer WireConn::DecodeAnswer(BinaryOp op, const std::string& payload) const {
  if (!binary_) return ParseNdjsonAnswer(payload);
  Answer a;
  simgraph::serve::BinaryRecommendResponse r;
  if (op != BinaryOp::kRecommend ||
      !simgraph::serve::ParseBinaryRecommendResponse(payload, &r).ok()) {
    return a;
  }
  a.ok = true;
  a.cache_hit = r.cache_hit;
  a.degraded = r.degraded;
  a.applied_seq = r.applied_seq;
  a.tweets = std::move(r.tweets);
  return a;
}

}  // namespace perfbench
