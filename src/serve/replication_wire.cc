#include "serve/replication_wire.h"

#include <cstring>

#include "util/net.h"

namespace simgraph {
namespace serve {
namespace {

constexpr size_t kFrameHeaderBytes = 4 + 1;  // u32 length + u8 type
constexpr uint64_t kMaxReplicaNameBytes = 256;

template <typename T>
void AppendRaw(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(uint64_t max_bytes, std::string* out) {
    uint64_t size = 0;
    if (!Read(&size)) return false;
    if (size > max_bytes || size > bytes_.size() - pos_) return false;
    out->assign(bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("SGRP: ") + what);
}

bool ValidFrameType(uint8_t type) {
  switch (static_cast<ReplicationFrameType>(type)) {
    case ReplicationFrameType::kHello:
    case ReplicationFrameType::kHelloAck:
    case ReplicationFrameType::kDelta:
    case ReplicationFrameType::kAck:
    case ReplicationFrameType::kError:
    case ReplicationFrameType::kBye:
      return true;
  }
  return false;
}

}  // namespace

void ReplicaHello::SerializeTo(std::string* out) const {
  AppendRaw<uint32_t>(out, kReplicationMagic);
  AppendRaw<uint16_t>(out, version);
  AppendRaw<uint64_t>(out, applied_seq);
  AppendRaw<uint64_t>(out, name.size());
  out->append(name);
}

Status ReplicaHello::Parse(std::string_view bytes, ReplicaHello* out) {
  Reader reader(bytes);
  uint32_t magic = 0;
  if (!reader.Read(&magic) || !reader.Read(&out->version)) {
    return Corrupt("hello truncated");
  }
  if (magic != kReplicationMagic) return Corrupt("bad hello magic");
  // Checked before the rest so an older peer, whose layout differs past
  // the version word, gets a clean version reject.
  if (out->version != kReplicationVersion) {
    return Corrupt("unsupported hello version");
  }
  if (!reader.Read(&out->applied_seq) ||
      !reader.ReadString(kMaxReplicaNameBytes, &out->name) ||
      !reader.AtEnd()) {
    return Corrupt("hello malformed");
  }
  return Status::Ok();
}

void ReplicaHelloAck::SerializeTo(std::string* out) const {
  AppendRaw<uint32_t>(out, kReplicationMagic);
  AppendRaw<uint16_t>(out, version);
  AppendRaw<uint64_t>(out, built_seq);
  AppendRaw<uint64_t>(out, graph_epoch);
  AppendRaw<int64_t>(out, graph_edges);
}

Status ReplicaHelloAck::Parse(std::string_view bytes, ReplicaHelloAck* out) {
  Reader reader(bytes);
  uint32_t magic = 0;
  if (!reader.Read(&magic) || !reader.Read(&out->version)) {
    return Corrupt("hello_ack truncated");
  }
  if (magic != kReplicationMagic) return Corrupt("bad hello_ack magic");
  if (out->version != kReplicationVersion) {
    return Corrupt("unsupported hello_ack version");
  }
  if (!reader.Read(&out->built_seq) || !reader.Read(&out->graph_epoch) ||
      !reader.Read(&out->graph_edges) || !reader.AtEnd()) {
    return Corrupt("hello_ack malformed");
  }
  return Status::Ok();
}

std::string BuildReplicationFrame(ReplicationFrameType type,
                                  std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendRaw<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  AppendRaw<uint8_t>(&frame, static_cast<uint8_t>(type));
  frame.append(payload);
  return frame;
}

Status WriteReplicationFrame(int fd, ReplicationFrameType type,
                             std::string_view payload) {
  const std::string frame = BuildReplicationFrame(type, payload);
  if (!net::SendAll(fd, frame.data(), frame.size())) {
    return Status::IoError("SGRP: send failed");
  }
  return Status::Ok();
}

Status ReadReplicationFrame(int fd, ReplicationFrameType* type,
                            std::string* payload, uint64_t max_bytes) {
  char header[kFrameHeaderBytes];
  if (!net::RecvAll(fd, header, sizeof(header))) {
    return Status::IoError("SGRP: connection closed");
  }
  uint32_t length = 0;
  std::memcpy(&length, header, sizeof(length));
  const uint8_t raw_type = static_cast<uint8_t>(header[4]);
  if (!ValidFrameType(raw_type)) return Corrupt("unknown frame type");
  if (length > max_bytes) return Corrupt("frame exceeds size cap");
  *type = static_cast<ReplicationFrameType>(raw_type);
  payload->resize(length);
  if (length > 0 && !net::RecvAll(fd, payload->data(), length)) {
    return Status::IoError("SGRP: truncated frame");
  }
  return Status::Ok();
}

std::string EncodeReplicationAck(uint64_t applied_seq) {
  std::string payload;
  AppendRaw<uint64_t>(&payload, applied_seq);
  return payload;
}

Status DecodeReplicationAck(std::string_view payload, uint64_t* applied_seq) {
  Reader reader(payload);
  if (!reader.Read(applied_seq) || !reader.AtEnd()) {
    return Corrupt("ack malformed");
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace simgraph
