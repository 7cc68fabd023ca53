#ifndef SIMGRAPH_SERVE_REPLICATION_FANOUT_H_
#define SIMGRAPH_SERVE_REPLICATION_FANOUT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/simgraph_delta.h"
#include "util/status.h"

namespace simgraph {
namespace serve {

struct ReplicationFanoutOptions {
  /// Listen port for replica connections (127.0.0.1 only). 0 picks an
  /// ephemeral port; read it back with port() after Start.
  uint16_t port = 0;
  /// Bounded-lag cutoff, in events (the same unit as the
  /// serve.ingest.delta.lag_events gauge): when built_seq minus a
  /// replica's acked seq exceeds this, the replica is marked degraded
  /// and dropped from the session instead of blocking the pipeline.
  int64_t max_lag_events = 65536;
  /// Ack-stall wall-clock backstop: a live replica that has outstanding
  /// deltas but whose acked seq has not moved for this long is degraded
  /// from inside WaitForAcked. This is what keeps wait_applied from
  /// hanging when the event stream pauses right after a replica stalls
  /// (lag alone only grows while new deltas ship). 0 disables.
  int64_t ack_stall_timeout_ms = 10000;
  /// How long a freshly accepted connection may take to produce its
  /// HELLO frame before the session is dropped (port scanners).
  int64_t handshake_timeout_ms = 10000;
  /// Retained shipped deltas for late-joiner backlog replay. A replica
  /// whose applied_seq predates the retained window is rejected with an
  /// ERROR frame ("bootstrap gap").
  int64_t delta_log_capacity = 65536;
};

/// Builder-side replication: streams every delta the DeltaBuilder
/// finalises to N remote shard replicas over SGRP/TCP
/// (docs/replication.md), tracks per-replica acks, and enforces a
/// bounded-lag cutoff so one stalled replica degrades instead of
/// stalling ingest.
///
/// Wiring: hand one ReplicationFanout to ShardedServiceOptions —
/// the sharded service chains ShipDelta onto its delta_observer tap
/// (builder thread), folds MinAckedSeq into AppliedSeq/Stats, and
/// extends WaitForApplied with WaitForAcked. Replicas connect inbound,
/// so late joiners need nothing but the port (and their own copy of the
/// dataset to train from): the handshake replays the retained delta
/// backlog past their applied_seq.
///
/// Threading: one acceptor, plus one sender and one ack-reader thread
/// per replica session. ShipDelta serialises once and enqueues the same
/// framed buffer on every live replica's outbox; per-replica sends
/// never run on the builder thread, so a slow socket costs the pipeline
/// nothing until the lag cutoff fires.
class ReplicationFanout {
 public:
  explicit ReplicationFanout(ReplicationFanoutOptions options = {});
  ~ReplicationFanout();

  ReplicationFanout(const ReplicationFanout&) = delete;
  ReplicationFanout& operator=(const ReplicationFanout&) = delete;

  Status Start();
  void Stop();

  /// Bound listen port (after Start).
  uint16_t port() const { return port_; }

  /// Seeds the graph stats handed to replicas at handshake (call after
  /// the builder source trained, before serving).
  void SeedGraphStats(uint64_t epoch, int64_t edges);

  /// Builder-thread tap: serialize, append to the retained log, enqueue
  /// on every live replica, and apply the lag cutoff.
  void ShipDelta(const SimGraphDelta& delta);

  /// Smallest acked sequence across live replicas; UINT64_MAX when no
  /// replica is live (remote then imposes no bound on AppliedSeq).
  uint64_t MinAckedSeq() const;

  /// Blocks until every live replica acked `seq`, a stalled replica is
  /// degraded out of the live set, or Stop. Never hangs on a dead
  /// replica: the ack-stall backstop degrades it from in here.
  void WaitForAcked(uint64_t seq);

  /// Waits until at least `count` replicas are live. For tests/benches
  /// that must not publish before their replicas registered.
  bool WaitForReplicas(int32_t count, std::chrono::milliseconds timeout);

  int32_t num_live() const;
  int64_t num_degraded() const;
  uint64_t built_seq() const { return built_seq_.load(); }
  /// Session threads currently tracked (live plus not-yet-reaped).
  /// Finished sessions are reaped on each accept; for tests.
  int64_t num_sessions() const;

 private:
  struct Replica {
    int fd = -1;
    std::string name;
    uint64_t acked = 0;
    /// Last moment this replica was known healthy: its acked seq
    /// advanced, it joined, or a delta shipped while it had nothing
    /// outstanding. The ack-stall backstop measures from here — NOT
    /// from the last ack alone, which goes stale across publish-idle
    /// gaps even on a perfectly healthy replica.
    std::chrono::steady_clock::time_point last_progress{};
    /// built_seq at handshake: while acked is still below this, the
    /// replica is draining its join backlog and the event-lag cutoff
    /// does not apply (the ack-stall backstop still does).
    uint64_t join_built_seq = 0;
    bool live = false;
    bool degraded = false;
    /// Framed byte buffers awaiting this replica's sender thread.
    std::deque<std::shared_ptr<const std::string>> outbox;
    std::condition_variable cv;
  };

  /// One accepted connection's thread plus its completion flag, so the
  /// acceptor can reap finished sessions instead of holding every
  /// thread object until Stop.
  struct Session {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  struct LogEntry {
    uint64_t seq_begin = 0;
    uint64_t seq_end = 0;
    std::shared_ptr<const std::string> framed;
  };

  void AcceptLoop();
  void RunSession(int fd);
  void ReadAcks(const std::shared_ptr<Replica>& replica);
  /// Sends one framed buffer, re-checking stop/degrade/lag on every
  /// send-timeout tick. False when the session must end.
  bool SendFrameChecked(const std::shared_ptr<Replica>& replica,
                        const std::string& frame);
  /// True when the replica's event lag is past max_lag_events AND the
  /// cutoff applies (join-backlog drain is exempt). mu_ held.
  bool LagCutoffLocked(const Replica& replica, uint64_t built) const;
  /// Marks the replica degraded and severs its socket. mu_ held.
  void DegradeLocked(Replica* replica, const char* reason);
  void UpdateGaugesLocked();
  /// Joins and erases finished session threads. sessions_mu_ held.
  void ReapSessionsLocked();

  ReplicationFanoutOptions options_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> built_seq_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;

  mutable std::mutex mu_;
  std::condition_variable ack_cv_;
  std::vector<std::shared_ptr<Replica>> replicas_;
  std::deque<LogEntry> log_;
  /// Framed bytes held by log_ (the serve.replication.log_bytes gauge).
  int64_t log_bytes_ = 0;
  /// seq_end of the newest delta trimmed out of log_ (0 = nothing
  /// trimmed): a HELLO.applied_seq below this is a bootstrap gap.
  uint64_t trimmed_through_seq_ = 0;
  uint64_t seed_graph_epoch_ = 0;
  int64_t seed_graph_edges_ = 0;
  int64_t degraded_total_ = 0;

  mutable std::mutex sessions_mu_;
  std::vector<Session> sessions_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_REPLICATION_FANOUT_H_
