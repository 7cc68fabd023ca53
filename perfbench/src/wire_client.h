#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

// Client side of the serving front-end's two wire protocols: SGRQ binary
// frames (the load path) and NDJSON lines (the replica oracle at fences).
// Every connection counts against kMaxConnections.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simgraph/simgraph.h"

namespace perfbench {

/// A decoded recommend answer; `ok` is false for an error reply or a
/// payload that does not decode.
struct Answer {
  bool ok = false;
  bool cache_hit = false;
  bool degraded = false;
  uint64_t applied_seq = 0;
  std::vector<simgraph::ScoredTweet> tweets;
};

/// True when both lists hold the same tweets with bit-identical scores.
bool SameTweets(const std::vector<simgraph::ScoredTweet>& a,
                const std::vector<simgraph::ScoredTweet>& b);

class WireConn {
 public:
  /// Connects to 127.0.0.1:port; `binary` performs the SGRQ handshake.
  /// Aborts when the connection would exceed kMaxConnections.
  static std::unique_ptr<WireConn> Open(uint16_t port, bool binary);
  ~WireConn();

  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Queue one request (sent by Flush). Events and waits are SGRQ only.
  void QueueRecommend(simgraph::UserId user, simgraph::Timestamp now,
                      int32_t k);
  void QueueEvent(const simgraph::RetweetEvent& event);
  void QueueWaitApplied(uint64_t seq);
  bool Flush();

  /// Waits up to `timeout_s` (negative: forever) for bytes and reads what
  /// arrived. False on EOF or a socket error; true on timeout.
  bool Poll(double timeout_s);

  /// Pops the next complete reply from the read buffer. Binary: one
  /// frame; NDJSON: one line (op is kError for `"ok":false`, kRecommend
  /// otherwise). False when no complete reply is buffered.
  bool NextReply(simgraph::serve::BinaryOp* op, std::string* payload);

  /// Blocking NextReply.
  bool ReadReply(simgraph::serve::BinaryOp* op, std::string* payload);

  /// Decodes a recommend reply of this connection's protocol.
  Answer DecodeAnswer(simgraph::serve::BinaryOp op,
                      const std::string& payload) const;

 private:
  WireConn(int fd, bool binary) : fd_(fd), binary_(binary) {}

  int fd_ = -1;
  bool binary_ = true;
  std::string out_;
  std::string in_;
  size_t in_pos_ = 0;
};

/// Parses an NDJSON recommend reply line.
Answer ParseNdjsonAnswer(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
