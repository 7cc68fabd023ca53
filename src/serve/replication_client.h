#ifndef SIMGRAPH_SERVE_REPLICATION_CLIENT_H_
#define SIMGRAPH_SERVE_REPLICATION_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "serve/replication_wire.h"
#include "serve/service.h"
#include "util/status.h"

namespace simgraph {
namespace serve {

struct ReplicationClientOptions {
  /// Builder's replication port on 127.0.0.1.
  uint16_t port = 0;
  /// Replica name carried in HELLO (logs and metrics on the builder).
  std::string name = "replica";
  /// Request the builder's SGCS bootstrap image at handshake; the bytes
  /// are written to snapshot_save_path so store::GraphImage::Load can
  /// validate and mmap them like any local image.
  bool want_snapshot = false;
  std::string snapshot_save_path;
  /// ECONNREFUSED retry budget (a builder mid-startup).
  int64_t connect_timeout_ms = 10000;
  /// Receive deadline covering the handshake reads (HELLO_ACK and the
  /// optional SNAPSHOT): a peer that accepts the connection but never
  /// answers fails Connect instead of blocking the replica forever —
  /// mirroring the fanout's handshake_timeout_ms. Cleared before the
  /// pump threads take over (deltas may legitimately pause for long).
  /// 0 disables.
  int64_t handshake_timeout_ms = 30000;
};

/// What the handshake learned; feeds replica construction (graph stats)
/// before any delta arrives.
struct ReplicationBootstrap {
  uint64_t built_seq = 0;
  uint64_t graph_epoch = 0;
  int64_t graph_edges = 0;
  bool snapshot_received = false;
  int64_t snapshot_bytes = 0;
};

/// Replica-side SGRP session (docs/replication.md). Two-phase on
/// purpose: Connect performs the handshake — including the optional
/// snapshot bootstrap, whose image the caller needs BEFORE it can build
/// and train its DeltaApplierRecommender — and only then does Start
/// attach the live RecommendationService and begin pumping deltas.
///
/// Start runs two threads:
///   * the pump reads DELTA frames, parses each SGDL payload, checks
///     its ids against the trained service (an id out of range ends the
///     session with InvalidArgument before any op is applied), and
///     enqueues it on the service via PublishItem with the builder's
///     sequence number — exactly the path an in-process shard queue
///     feeds, so replay is bit-identical by construction;
///   * the acker follows the service's applied watermark with
///     WaitForApplied and reports each advance back as an ACK frame,
///     which is what feeds the builder's lag accounting.
class ReplicationClient {
 public:
  explicit ReplicationClient(ReplicationClientOptions options = {});
  ~ReplicationClient();

  ReplicationClient(const ReplicationClient&) = delete;
  ReplicationClient& operator=(const ReplicationClient&) = delete;

  /// Connects and handshakes. `applied_seq` is the replica's resume
  /// position (0 for a cold start); the builder replays every retained
  /// delta past it.
  Status Connect(uint64_t applied_seq, ReplicationBootstrap* bootstrap);

  /// Starts the pump and ack threads against a trained, started
  /// service. Call exactly once, after Connect succeeded. Stop this
  /// client BEFORE stopping the service.
  void Start(RecommendationService* service);

  void Stop();

  /// True once the builder said BYE, closed the connection, or sent an
  /// ERROR frame.
  bool finished() const { return finished_.load(); }
  /// Last error the session ended with (Ok for a clean BYE/EOF).
  Status session_status() const;
  /// Blocks until the session ends (builder gone) or Stop.
  void WaitUntilClosed();

  /// Highest delta seq_end handed to the service so far.
  uint64_t enqueued_seq() const { return enqueued_seq_.load(); }

 private:
  void PumpLoop();
  void AckLoop();
  void Finish(Status status);

  ReplicationClientOptions options_;
  int fd_ = -1;
  RecommendationService* service_ = nullptr;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> finished_{false};
  std::atomic<uint64_t> enqueued_seq_{0};
  uint64_t acked_seq_ = 0;  // ack thread only

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Status session_status_ = Status::Ok();

  std::thread pump_;
  std::thread acker_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_REPLICATION_CLIENT_H_
