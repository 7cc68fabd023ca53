#include "serve/replication_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <utility>

#include "core/simgraph_delta.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/net.h"

namespace simgraph {
namespace serve {

ReplicationClient::ReplicationClient(ReplicationClientOptions options)
    : options_(std::move(options)) {}

ReplicationClient::~ReplicationClient() { Stop(); }

Status ReplicationClient::Connect(uint64_t applied_seq,
                                  ReplicationBootstrap* bootstrap) {
  SIMGRAPH_CHECK(fd_ < 0) << "Connect may only be called once";
  StatusOr<int> fd =
      net::ConnectLoopback(options_.port, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  // Handshake under a receive deadline: without it a peer that accepts
  // but never responds wedges the replica process inside Connect.
  net::SetRecvTimeout(fd_, options_.handshake_timeout_ms);

  ReplicaHello hello;
  hello.applied_seq = applied_seq;
  hello.name = options_.name;
  std::string payload;
  hello.SerializeTo(&payload);
  Status status =
      WriteReplicationFrame(fd_, ReplicationFrameType::kHello, payload);
  ReplicationFrameType type;
  if (status.ok()) status = ReadReplicationFrame(fd_, &type, &payload);
  if (status.ok() && type == ReplicationFrameType::kError) {
    status = Status::FailedPrecondition("builder rejected handshake: " +
                                        payload);
  }
  ReplicaHelloAck ack;
  if (status.ok() && type != ReplicationFrameType::kError) {
    if (type != ReplicationFrameType::kHelloAck) {
      status = Status::InvalidArgument("expected HELLO_ACK");
    } else {
      status = ReplicaHelloAck::Parse(payload, &ack);
    }
  }
  if (!status.ok()) {
    ::close(fd_);
    fd_ = -1;
    return status;
  }
  net::SetRecvTimeout(fd_, 0);
  if (bootstrap != nullptr) {
    bootstrap->built_seq = ack.built_seq;
    bootstrap->graph_epoch = ack.graph_epoch;
    bootstrap->graph_edges = ack.graph_edges;
  }
  return Status::Ok();
}

void ReplicationClient::Start(RecommendationService* service) {
  SIMGRAPH_CHECK(fd_ >= 0) << "Connect must succeed before Start";
  SIMGRAPH_CHECK(service != nullptr);
  SIMGRAPH_CHECK(service_ == nullptr) << "Start may only be called once";
  service_ = service;
  pump_ = std::thread([this] { PumpLoop(); });
  acker_ = std::thread([this] { AckLoop(); });
}

void ReplicationClient::Stop() {
  if (stopping_.exchange(true)) return;
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
  if (pump_.joinable()) pump_.join();
  if (acker_.joinable()) acker_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ReplicationClient::session_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_status_;
}

void ReplicationClient::WaitUntilClosed() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return finished_.load() || stopping_.load(); });
}

void ReplicationClient::PumpLoop() {
  for (;;) {
    ReplicationFrameType type;
    std::string payload;
    const Status status = ReadReplicationFrame(fd_, &type, &payload);
    if (!status.ok()) {
      // EOF after Stop or a builder BYE race is a clean close; anything
      // else (malformed frame, truncated stream) is the real cause.
      Finish(stopping_.load() ? Status::Ok() : status);
      return;
    }
    switch (type) {
      case ReplicationFrameType::kDelta: {
        auto delta = std::make_shared<SimGraphDelta>();
        Status parsed = SimGraphDelta::Parse(payload, delta.get());
        if (parsed.ok()) parsed = service_->ValidateDelta(*delta);
        if (!parsed.ok()) {
          Finish(parsed);
          return;
        }
        const uint64_t seq = delta->seq_end;
        IngestItem item;
        item.delta = std::move(delta);
        item.seq = seq;
        if (service_->PublishItem(std::move(item)) == 0) {
          Finish(Status::FailedPrecondition(
              "local service stopped under the replication pump"));
          return;
        }
        SIMGRAPH_COUNTER_ADD("serve.replication.deltas_received", 1);
        SIMGRAPH_COUNTER_ADD("serve.replication.bytes_received",
                             static_cast<double>(payload.size()));
        {
          std::lock_guard<std::mutex> lock(mu_);
          enqueued_seq_.store(seq);
          cv_.notify_all();
        }
        break;
      }
      case ReplicationFrameType::kBye:
        Finish(Status::Ok());
        return;
      case ReplicationFrameType::kError:
        Finish(Status::FailedPrecondition("builder error: " + payload));
        return;
      default:
        // Unexpected mid-stream frame (e.g. a second HELLO_ACK):
        // protocol violation.
        Finish(Status::InvalidArgument("unexpected SGRP frame"));
        return;
    }
  }
}

void ReplicationClient::AckLoop() {
  for (;;) {
    uint64_t target;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stopping_.load() || finished_.load() ||
               enqueued_seq_.load() > acked_seq_;
      });
      if (stopping_.load()) return;
      target = enqueued_seq_.load();
      if (target <= acked_seq_ && finished_.load()) return;
      if (target <= acked_seq_) continue;
    }
    // Follow the applier: the ack reports what is APPLIED locally, not
    // what is enqueued — the builder's lag accounting hinges on that.
    service_->WaitForApplied(target);
    if (stopping_.load()) return;
    const std::string ack = EncodeReplicationAck(target);
    if (!WriteReplicationFrame(fd_, ReplicationFrameType::kAck, ack)
             .ok()) {
      return;
    }
    acked_seq_ = target;
    SIMGRAPH_GAUGE_SET("serve.replication.acked_seq",
                       static_cast<double>(target));
    if (finished_.load() && enqueued_seq_.load() <= target) return;
  }
}

void ReplicationClient::Finish(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!finished_.exchange(true)) {
    session_status_ = std::move(status);
  }
  cv_.notify_all();
}

}  // namespace serve
}  // namespace simgraph
