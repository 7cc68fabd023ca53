#include "serve/replication_fanout.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <utility>

#include "serve/replication_wire.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/net.h"

namespace simgraph {
namespace serve {
namespace {

/// SO_SNDTIMEO per send: a blocked send re-checks the lag cutoff at
/// this cadence instead of wedging the sender thread.
constexpr int64_t kSendTimeoutMs = 250;

}  // namespace

ReplicationFanout::ReplicationFanout(ReplicationFanoutOptions options)
    : options_(std::move(options)) {
  SIMGRAPH_CHECK_GT(options_.max_lag_events, 0);
  SIMGRAPH_CHECK_GT(options_.delta_log_capacity, 0);
}

ReplicationFanout::~ReplicationFanout() { Stop(); }

Status ReplicationFanout::Start() {
  StatusOr<int> fd = net::ListenLoopback(options_.port, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ReplicationFanout::Stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& replica : replicas_) {
      if (replica->fd >= 0) ::shutdown(replica->fd, SHUT_RDWR);
      replica->cv.notify_all();
    }
    ack_cv_.notify_all();
  }
  std::vector<Session> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (Session& session : sessions) {
    if (session.thread.joinable()) session.thread.join();
  }
  listen_fd_ = -1;
}

void ReplicationFanout::SeedGraphStats(uint64_t epoch, int64_t edges) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_graph_epoch_ = epoch;
  seed_graph_edges_ = edges;
}

void ReplicationFanout::ShipDelta(const SimGraphDelta& delta) {
  std::string payload;
  delta.SerializeTo(&payload);
  auto framed = std::make_shared<const std::string>(
      BuildReplicationFrame(ReplicationFrameType::kDelta, payload));

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t prev_built = built_seq_.load();
  if (delta.seq_end > prev_built) built_seq_.store(delta.seq_end);
  log_.push_back(LogEntry{delta.seq_begin, delta.seq_end, framed});
  log_bytes_ += static_cast<int64_t>(framed->size());
  while (static_cast<int64_t>(log_.size()) > options_.delta_log_capacity) {
    trimmed_through_seq_ = log_.front().seq_end;
    log_bytes_ -= static_cast<int64_t>(log_.front().framed->size());
    log_.pop_front();
  }
  SIMGRAPH_GAUGE_SET("serve.replication.log_bytes",
                     static_cast<double>(log_bytes_));
  SIMGRAPH_GAUGE_SET("serve.replication.log_deltas",
                     static_cast<double>(log_.size()));
  const uint64_t built = built_seq_.load();
  const auto now = std::chrono::steady_clock::now();
  for (const auto& replica : replicas_) {
    if (!replica->live) continue;
    // A replica with nothing outstanding was healthy right up to this
    // delta: restart its stall clock here. Without this, a publish-idle
    // gap longer than ack_stall_timeout_ms would read as an ack stall
    // the instant the stream resumes.
    if (replica->acked >= prev_built) replica->last_progress = now;
    // The bounded-lag cutoff: a replica that trails the builder by more
    // than max_lag_events is degraded here, on the builder's tap, so
    // ingest never waits on it (docs/replication.md).
    if (LagCutoffLocked(*replica, built)) {
      DegradeLocked(replica.get(), "lag cutoff exceeded");
      continue;
    }
    replica->outbox.push_back(framed);
    replica->cv.notify_all();
  }
  UpdateGaugesLocked();
}

uint64_t ReplicationFanout::MinAckedSeq() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t min_acked = UINT64_MAX;
  for (const auto& replica : replicas_) {
    if (replica->live) min_acked = std::min(min_acked, replica->acked);
  }
  return min_acked;
}

void ReplicationFanout::WaitForAcked(uint64_t seq) {
  const auto stall =
      std::chrono::milliseconds(options_.ack_stall_timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_.load()) return;
    bool outstanding = false;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& replica : replicas_) {
      if (!replica->live || replica->acked >= seq) continue;
      // The wall-clock backstop: lag in events cannot grow while the
      // stream is paused, so a replica that stalls right before the
      // pause would otherwise pin this wait forever. last_progress is
      // refreshed whenever the replica is caught up, so only time spent
      // sitting on outstanding work counts toward the stall.
      if (options_.ack_stall_timeout_ms > 0 &&
          now - replica->last_progress >= stall) {
        DegradeLocked(replica.get(), "ack stall timeout");
        UpdateGaugesLocked();
        continue;
      }
      outstanding = true;
    }
    if (!outstanding) return;
    ack_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

bool ReplicationFanout::WaitForReplicas(int32_t count,
                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    int32_t live = 0;
    for (const auto& replica : replicas_) {
      if (replica->live) ++live;
    }
    if (live >= count) return true;
    if (stopping_.load() ||
        ack_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return false;
    }
  }
}

int32_t ReplicationFanout::num_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  int32_t live = 0;
  for (const auto& replica : replicas_) {
    if (replica->live) ++live;
  }
  return live;
}

int64_t ReplicationFanout::num_degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_total_;
}

int64_t ReplicationFanout::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int64_t>(sessions_.size());
}

void ReplicationFanout::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Reap finished sessions before tracking a new one: a long-running
    // builder sees endless handshake rejects, disconnects, and rejoins,
    // and deferring every join to Stop would leak a thread per each.
    ReapSessionsLocked();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([this, fd, done] {
      RunSession(fd);
      done->store(true);
    });
    sessions_.push_back(Session{std::move(thread), std::move(done)});
  }
}

void ReplicationFanout::ReapSessionsLocked() {
  auto it = sessions_.begin();
  while (it != sessions_.end()) {
    if (it->done->load()) {
      it->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplicationFanout::RunSession(int fd) {
  // Handshake under a receive deadline: a connection that never says
  // HELLO (port scanner, wrong protocol) is shed, not collected.
  net::SetRecvTimeout(fd, options_.handshake_timeout_ms);
  ReplicationFrameType type;
  std::string payload;
  ReplicaHello hello;
  Status status = ReadReplicationFrame(fd, &type, &payload);
  if (status.ok() && type != ReplicationFrameType::kHello) {
    status = Status::InvalidArgument("expected HELLO");
  }
  if (status.ok()) status = ReplicaHello::Parse(payload, &hello);
  if (!status.ok()) {
    SIMGRAPH_COUNTER_ADD("serve.replication.handshake_rejects", 1);
    WriteReplicationFrame(fd, ReplicationFrameType::kError,
                          status.message());
    ::close(fd);
    return;
  }
  net::SetRecvTimeout(fd, 0);
  const uint64_t resume_seq = hello.applied_seq;

  auto replica = std::make_shared<Replica>();
  replica->fd = fd;
  replica->name = hello.name.empty() ? "replica" : hello.name;
  ReplicaHelloAck ack;
  int64_t backlog = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    if (trimmed_through_seq_ > resume_seq) {
      // The retained log no longer covers this replica's position, and
      // no retry can succeed: a replica's only other state is what it
      // trains from the dataset, which is seq 0.
      SIMGRAPH_COUNTER_ADD("serve.replication.handshake_rejects", 1);
      std::ostringstream msg;
      msg << "bootstrap gap: resume position " << resume_seq
          << " predates the retained delta log (trimmed through "
          << trimmed_through_seq_
          << "); this replica cannot join until the builder restarts";
      WriteReplicationFrame(fd, ReplicationFrameType::kError, msg.str());
      ::close(fd);
      return;
    }
    replica->acked = resume_seq;
    replica->last_progress = std::chrono::steady_clock::now();
    replica->join_built_seq = built_seq_.load();
    replica->live = true;
    ack.built_seq = built_seq_.load();
    ack.graph_epoch = seed_graph_epoch_;
    ack.graph_edges = seed_graph_edges_;
    // Registration and backlog replay under one lock hold: every delta
    // shipped before this point with seq_end past the replica's
    // position is replayed from the log, every later one lands in the
    // outbox — no gap, no duplicate.
    for (const LogEntry& entry : log_) {
      if (entry.seq_end <= resume_seq) continue;
      replica->outbox.push_back(entry.framed);
      ++backlog;
    }
    replicas_.push_back(replica);
    UpdateGaugesLocked();
    ack_cv_.notify_all();
  }
  SIMGRAPH_COUNTER_ADD("serve.replication.connects", 1);
  if (backlog > 0) {
    SIMGRAPH_COUNTER_ADD("serve.replication.bootstrap_deltas",
                         static_cast<double>(backlog));
  }
  SIMGRAPH_LOG(Info) << "replication: replica '" << replica->name
                     << "' joined at seq " << resume_seq << " ("
                     << backlog << " backlog deltas)";

  net::SetSendTimeout(fd, kSendTimeoutMs);
  std::string ack_payload;
  ack.SerializeTo(&ack_payload);
  bool session_ok =
      SendFrameChecked(replica, BuildReplicationFrame(
                                    ReplicationFrameType::kHelloAck,
                                    ack_payload));

  std::thread reader;
  if (session_ok) {
    reader = std::thread([this, replica] { ReadAcks(replica); });
  }

  // Sender loop: drain the outbox in ship order. Everything this
  // session sends goes through this one thread, so HELLO_ACK, the
  // backlog, and live deltas arrive strictly ordered.
  while (session_ok) {
    std::shared_ptr<const std::string> frame;
    {
      std::unique_lock<std::mutex> lock(mu_);
      replica->cv.wait(lock, [&] {
        return stopping_.load() || replica->degraded || !replica->live ||
               !replica->outbox.empty();
      });
      if (stopping_.load() || replica->degraded || !replica->live) break;
      frame = replica->outbox.front();
      replica->outbox.pop_front();
    }
    if (!SendFrameChecked(replica, *frame)) break;
    SIMGRAPH_COUNTER_ADD("serve.replication.deltas_sent", 1);
    SIMGRAPH_COUNTER_ADD("serve.replication.bytes_sent",
                         static_cast<double>(frame->size()));
  }

  if (stopping_.load() && !replica->degraded) {
    WriteReplicationFrame(fd, ReplicationFrameType::kBye, "");
  }
  ::shutdown(fd, SHUT_RDWR);
  if (reader.joinable()) reader.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (replica->live) {
      replica->live = false;
      if (!stopping_.load()) {
        SIMGRAPH_COUNTER_ADD("serve.replication.disconnects", 1);
      }
    }
    replicas_.erase(
        std::remove(replicas_.begin(), replicas_.end(), replica),
        replicas_.end());
    UpdateGaugesLocked();
    ack_cv_.notify_all();
  }
  ::close(fd);
}

void ReplicationFanout::ReadAcks(const std::shared_ptr<Replica>& replica) {
  for (;;) {
    ReplicationFrameType type;
    std::string payload;
    if (!ReadReplicationFrame(replica->fd, &type, &payload).ok()) break;
    if (type == ReplicationFrameType::kBye) break;
    if (type != ReplicationFrameType::kAck) continue;
    uint64_t acked = 0;
    if (!DecodeReplicationAck(payload, &acked).ok()) break;
    std::lock_guard<std::mutex> lock(mu_);
    if (acked > replica->acked) {
      replica->acked = acked;
      replica->last_progress = std::chrono::steady_clock::now();
      UpdateGaugesLocked();
      ack_cv_.notify_all();
    }
  }
  // Peer closed or misbehaved: end the session so the sender stops
  // queueing into a black hole.
  std::lock_guard<std::mutex> lock(mu_);
  if (replica->live && !replica->degraded && !stopping_.load()) {
    replica->live = false;
    SIMGRAPH_COUNTER_ADD("serve.replication.disconnects", 1);
    UpdateGaugesLocked();
  }
  replica->cv.notify_all();
  ack_cv_.notify_all();
}

bool ReplicationFanout::SendFrameChecked(
    const std::shared_ptr<Replica>& replica, const std::string& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(replica->fd, frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && net::LastErrorWasTimeout()) {
      // Socket buffer full past SO_SNDTIMEO: the replica is not
      // reading. Re-check the cutoff instead of blocking forever.
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load() || replica->degraded || !replica->live) {
        return false;
      }
      if (LagCutoffLocked(*replica, built_seq_.load())) {
        DegradeLocked(replica.get(), "lag cutoff exceeded (send stalled)");
        UpdateGaugesLocked();
        return false;
      }
      continue;
    }
    return false;
  }
  return true;
}

bool ReplicationFanout::LagCutoffLocked(const Replica& replica,
                                        uint64_t built) const {
  // A joiner still draining its handshake backlog is exempt: its lag IS
  // the join gap by construction and shrinks as it drains, so degrading
  // it would make bootstrap of a far-behind replica impossible while
  // the stream is live. The ack-stall backstop still covers a drainer
  // that stops making progress.
  if (replica.acked < replica.join_built_seq) return false;
  const uint64_t lag = built > replica.acked ? built - replica.acked : 0;
  return lag > static_cast<uint64_t>(options_.max_lag_events);
}

void ReplicationFanout::DegradeLocked(Replica* replica, const char* reason) {
  if (replica->degraded || !replica->live) return;
  replica->degraded = true;
  replica->live = false;
  replica->outbox.clear();
  ++degraded_total_;
  SIMGRAPH_COUNTER_ADD("serve.replication.degraded", 1);
  SIMGRAPH_LOG(Warning) << "replication: replica '" << replica->name
                        << "' degraded (" << reason << "): acked "
                        << replica->acked << " vs built "
                        << built_seq_.load();
  // Sever the socket so the sender/reader unblock; the replica process
  // sees EOF and can rejoin through the normal late-join handshake.
  if (replica->fd >= 0) ::shutdown(replica->fd, SHUT_RDWR);
  replica->cv.notify_all();
  ack_cv_.notify_all();
}

void ReplicationFanout::UpdateGaugesLocked() {
  int32_t live = 0;
  uint64_t min_acked = UINT64_MAX;
  for (const auto& replica : replicas_) {
    if (!replica->live) continue;
    ++live;
    min_acked = std::min(min_acked, replica->acked);
  }
  SIMGRAPH_GAUGE_SET("serve.replication.replicas",
                     static_cast<double>(live));
  if (live > 0) {
    const uint64_t built = built_seq_.load();
    SIMGRAPH_GAUGE_SET("serve.replication.min_acked_seq",
                       static_cast<double>(min_acked));
    SIMGRAPH_GAUGE_SET(
        "serve.replication.lag_events",
        static_cast<double>(built > min_acked ? built - min_acked : 0));
  }
}

}  // namespace serve
}  // namespace simgraph
