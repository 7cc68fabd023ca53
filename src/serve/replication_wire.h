#ifndef SIMGRAPH_SERVE_REPLICATION_WIRE_H_
#define SIMGRAPH_SERVE_REPLICATION_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace simgraph {
namespace serve {

/// SGRP — the replication session protocol between the delta builder
/// and remote shard replicas (docs/replication.md). It carries the
/// existing SGDL delta encoding (core/simgraph_delta.h) inside
/// length-prefixed frames:
///
///   u32 LE payload length | u8 frame type | payload bytes
///
/// Frames flow both ways on one TCP connection: the replica opens it,
/// sends HELLO, the builder answers HELLO_ACK, then streams DELTA frames
/// (the retained backlog first) while the replica sends ACK frames
/// back. Either side may close with BYE; the builder rejects a broken
/// handshake with ERROR.
///
/// Like the SGDL parser, every decoder here treats the peer as hostile:
/// lengths are capped, magic/version are checked, and a malformed frame
/// fails the session instead of the process.
enum class ReplicationFrameType : uint8_t {
  kHello = 1,     // replica -> builder: handshake + resume position
  kHelloAck = 2,  // builder -> replica: accepted; builder's position
  // 3 was SNAPSHOT (v1's graph-image bootstrap); the reader rejects it.
  kDelta = 4,     // builder -> replica: one serialized SimGraphDelta
  kAck = 5,       // replica -> builder: u64 LE applied sequence number
  kError = 6,     // builder -> replica: handshake rejected (utf8 reason)
  kBye = 7,       // either way: clean shutdown
};

/// "SGRP" little-endian, leading the HELLO payload so the builder can
/// vet that the peer actually speaks this protocol (a port scanner or a
/// misdirected NDJSON client fails here, not deep in delta parsing).
inline constexpr uint32_t kReplicationMagic = 0x50524753;
inline constexpr uint16_t kReplicationVersion = 3;

/// Hard per-frame cap. DELTA frames are the largest, and a delta of
/// any batch this repo builds is orders of magnitude below 1 GiB. A
/// hostile length prefix past this fails the session before any
/// allocation happens.
inline constexpr uint64_t kMaxReplicationFrameBytes = 1ull << 30;

/// HELLO payload: who the replica is and where it stands. applied_seq
/// is the last event sequence the replica has applied (0 for a cold
/// start, after training from its own copy of the dataset); the
/// builder replays every retained delta past it.
struct ReplicaHello {
  uint16_t version = kReplicationVersion;
  uint64_t applied_seq = 0;
  /// TrainingFingerprint (dataset/dataset.h) of the replica's dataset;
  /// 0 declares none and skips the builder's check (an in-process
  /// replica trained from the builder's own Dataset).
  uint64_t dataset_fingerprint = 0;
  std::string name;  // for logs/metrics; bounded at parse time

  void SerializeTo(std::string* out) const;
  static Status Parse(std::string_view bytes, ReplicaHello* out);
};

/// HELLO_ACK payload: the builder's position at registration time. The
/// replica seeds its graph stats (the builder's post-train epoch and
/// edge count) from here; refresh deltas carry both forward.
struct ReplicaHelloAck {
  uint16_t version = kReplicationVersion;
  uint64_t built_seq = 0;
  uint64_t graph_epoch = 0;
  int64_t graph_edges = 0;

  void SerializeTo(std::string* out) const;
  static Status Parse(std::string_view bytes, ReplicaHelloAck* out);
};

/// Frames a payload: 5-byte header + payload, ready to send.
std::string BuildReplicationFrame(ReplicationFrameType type,
                                  std::string_view payload);

/// Blocking frame IO over a connected socket. WriteFrame sends header +
/// payload; ReadFrame reads exactly one frame, rejecting unknown types
/// and lengths beyond `max_bytes`. ReadFrame returns IoError on EOF or
/// socket error and InvalidArgument on a malformed frame.
Status WriteReplicationFrame(int fd, ReplicationFrameType type,
                             std::string_view payload);
Status ReadReplicationFrame(int fd, ReplicationFrameType* type,
                            std::string* payload,
                            uint64_t max_bytes = kMaxReplicationFrameBytes);

/// ACK payload helpers (u64 LE applied sequence).
std::string EncodeReplicationAck(uint64_t applied_seq);
Status DecodeReplicationAck(std::string_view payload, uint64_t* applied_seq);

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_REPLICATION_WIRE_H_
