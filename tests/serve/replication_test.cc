#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/simgraph_delta.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/delta_applier.h"
#include "serve/replication_client.h"
#include "serve/replication_fanout.h"
#include "serve/replication_wire.h"
#include "serve/service.h"
#include "serve/sharded_service.h"
#include "util/metrics.h"
#include "util/net.h"

namespace simgraph {
namespace serve {
namespace {

// ---------------------------------------------------------------------
// SGRP frame codec: round trips plus hostile-input vetting. A
// socketpair stands in for the TCP connection — the codec only sees
// fds.

class ReplicationWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_ = fds[0];
    reader_ = fds[1];
  }
  void TearDown() override {
    ::close(writer_);
    ::close(reader_);
  }
  int writer_ = -1;
  int reader_ = -1;
};

TEST_F(ReplicationWireTest, FrameRoundTrip) {
  const std::string payload = "delta bytes \x00\x01\x02";
  ASSERT_TRUE(WriteReplicationFrame(writer_, ReplicationFrameType::kDelta,
                                    payload)
                  .ok());
  ReplicationFrameType type;
  std::string got;
  ASSERT_TRUE(ReadReplicationFrame(reader_, &type, &got).ok());
  EXPECT_EQ(type, ReplicationFrameType::kDelta);
  EXPECT_EQ(got, payload);
}

TEST_F(ReplicationWireTest, RejectsUnknownFrameType) {
  const char raw[] = {0, 0, 0, 0, 99};  // zero length, bogus type 99
  ASSERT_TRUE(net::SendAll(writer_, raw, sizeof(raw)));
  ReplicationFrameType type;
  std::string payload;
  const Status status = ReadReplicationFrame(reader_, &type, &payload);
  EXPECT_FALSE(status.ok());
}

TEST_F(ReplicationWireTest, RejectsFramePastSizeCap) {
  // A hostile 3 GiB length prefix must fail before any allocation.
  const uint32_t length = 3u << 30;
  char raw[5];
  std::memcpy(raw, &length, 4);
  raw[4] = static_cast<char>(ReplicationFrameType::kDelta);
  ASSERT_TRUE(net::SendAll(writer_, raw, sizeof(raw)));
  ReplicationFrameType type;
  std::string payload;
  EXPECT_FALSE(ReadReplicationFrame(reader_, &type, &payload).ok());
  // And a caller-tightened cap applies too.
  ASSERT_TRUE(
      WriteReplicationFrame(writer_, ReplicationFrameType::kDelta,
                            std::string(1024, 'x'))
          .ok());
  EXPECT_FALSE(
      ReadReplicationFrame(reader_, &type, &payload, /*max_bytes=*/512)
          .ok());
}

TEST_F(ReplicationWireTest, TruncatedFrameIsAnIoError) {
  const char raw[] = {16, 0, 0, 0,
                      static_cast<char>(ReplicationFrameType::kDelta),
                      'h', 'a', 'l', 'f'};
  ASSERT_TRUE(net::SendAll(writer_, raw, sizeof(raw)));
  ::shutdown(writer_, SHUT_WR);  // EOF mid-payload
  ReplicationFrameType type;
  std::string payload;
  EXPECT_FALSE(ReadReplicationFrame(reader_, &type, &payload).ok());
}

// Type 3 was v1's SNAPSHOT frame; v2 retired it, so it is as unknown as
// any other unassigned type.
TEST_F(ReplicationWireTest, RejectsRetiredSnapshotFrameType) {
  const char raw[] = {0, 0, 0, 0, 3};
  ASSERT_TRUE(net::SendAll(writer_, raw, sizeof(raw)));
  ReplicationFrameType type;
  std::string payload;
  const Status status = ReadReplicationFrame(reader_, &type, &payload);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(ReplicationHandshakeCodecTest, HelloRoundTrip) {
  ReplicaHello hello;
  hello.applied_seq = 12345;
  hello.dataset_fingerprint = 0x0123456789abcdefull;
  hello.name = "replica-7";
  std::string bytes;
  hello.SerializeTo(&bytes);
  ReplicaHello parsed;
  ASSERT_TRUE(ReplicaHello::Parse(bytes, &parsed).ok());
  EXPECT_EQ(parsed.version, kReplicationVersion);
  EXPECT_EQ(parsed.applied_seq, 12345u);
  EXPECT_EQ(parsed.dataset_fingerprint, 0x0123456789abcdefull);
  EXPECT_EQ(parsed.name, "replica-7");
}

TEST(ReplicationHandshakeCodecTest, HelloRejectsHostileInput) {
  ReplicaHello hello;
  hello.name = "x";
  std::string bytes;
  hello.SerializeTo(&bytes);
  ReplicaHello parsed;
  // Truncations at every boundary.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        ReplicaHello::Parse(std::string_view(bytes.data(), cut), &parsed)
            .ok())
        << "cut at " << cut;
  }
  // Wrong magic.
  std::string bad = bytes;
  bad[0] ^= 0x5a;
  EXPECT_FALSE(ReplicaHello::Parse(bad, &parsed).ok());
  // Unsupported version.
  bad = bytes;
  bad[4] = 99;
  EXPECT_FALSE(ReplicaHello::Parse(bad, &parsed).ok());
  // Name length pointing past the buffer.
  bad = bytes;
  bad[bad.size() - 2] = 0x7f;
  EXPECT_FALSE(ReplicaHello::Parse(bad, &parsed).ok());
  // Trailing garbage is not ignored.
  bad = bytes + "tail";
  EXPECT_FALSE(ReplicaHello::Parse(bad, &parsed).ok());
}

TEST(ReplicationHandshakeCodecTest, HelloAckRoundTripAndAck) {
  ReplicaHelloAck ack;
  ack.built_seq = 77;
  ack.graph_epoch = 3;
  ack.graph_edges = 4242;
  std::string bytes;
  ack.SerializeTo(&bytes);
  ReplicaHelloAck parsed;
  ASSERT_TRUE(ReplicaHelloAck::Parse(bytes, &parsed).ok());
  EXPECT_EQ(parsed.built_seq, 77u);
  EXPECT_EQ(parsed.graph_epoch, 3u);
  EXPECT_EQ(parsed.graph_edges, 4242);
  EXPECT_FALSE(ReplicaHelloAck::Parse("short", &parsed).ok());

  uint64_t seq = 0;
  ASSERT_TRUE(
      DecodeReplicationAck(EncodeReplicationAck(987654321), &seq).ok());
  EXPECT_EQ(seq, 987654321u);
  EXPECT_FALSE(DecodeReplicationAck("bad", &seq).ok());
}

// A v1 HELLO (version 1, then the retired snapshot-request byte) is turned
// away on its version word, whatever follows it.
TEST(ReplicationHandshakeCodecTest, RejectsV1Hello) {
  std::string v1;
  const uint32_t magic = kReplicationMagic;
  const uint16_t version = 1;
  const uint8_t snapshot_request = 1;
  const uint64_t applied_seq = 0;
  const std::string name = "old-replica";
  const uint64_t name_size = name.size();
  v1.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v1.append(reinterpret_cast<const char*>(&snapshot_request), 1);
  v1.append(reinterpret_cast<const char*>(&applied_seq),
            sizeof(applied_seq));
  v1.append(reinterpret_cast<const char*>(&name_size), sizeof(name_size));
  v1.append(name);
  ReplicaHello parsed;
  const Status status = ReplicaHello::Parse(v1, &parsed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported hello version"),
            std::string::npos)
      << status.ToString();
}

// A v2 HELLO (no dataset fingerprint) is turned away on its version
// word, so a replica that cannot prove its dataset never joins.
TEST(ReplicationHandshakeCodecTest, RejectsV2Hello) {
  ReplicaHello hello;
  hello.version = 2;
  hello.name = "old-replica";
  std::string current;
  hello.SerializeTo(&current);
  // The v2 layout: the same bytes without the fingerprint word, which
  // follows magic, version and applied_seq.
  const size_t fingerprint_at = 4 + 2 + 8;
  std::string v2 = current.substr(0, fingerprint_at) +
                   current.substr(fingerprint_at + 8);
  ReplicaHello parsed;
  const Status status = ReplicaHello::Parse(v2, &parsed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported hello version"),
            std::string::npos)
      << status.ToString();
}

// Every byte of a serialized HELLO, HELLO_ACK and ACK payload, XORed
// with 8 seeded nonzero masks: the decoder either rejects the payload
// or accepts exactly what it would itself have written, so no mutated
// byte is silently dropped or reinterpreted.
TEST(ReplicationHandshakeCodecTest, SingleByteMutationsParseExactlyOrFail) {
  // Parses `bytes` and, when that succeeds, reserializes into `out`.
  using Reparse = std::function<bool(const std::string&, std::string*)>;
  const auto mutate_all = [](const std::string& wire, const Reparse& reparse,
                             int64_t* accepted, int64_t* rejected) {
    std::mt19937 rng(20231);
    std::uniform_int_distribution<int> mask(1, 255);
    for (size_t offset = 0; offset < wire.size(); ++offset) {
      for (int trial = 0; trial < 8; ++trial) {
        std::string mutated = wire;
        mutated[offset] = static_cast<char>(
            static_cast<uint8_t>(mutated[offset]) ^ mask(rng));
        std::string reserialized;
        if (!reparse(mutated, &reserialized)) {
          ++*rejected;
          continue;
        }
        ++*accepted;
        ASSERT_EQ(reserialized, mutated) << "offset " << offset;
      }
    }
  };

  ReplicaHello hello;
  hello.applied_seq = 4096;
  hello.dataset_fingerprint = 0x5eed5eed5eed5eedull;
  hello.name = "fuzzed";
  std::string wire;
  hello.SerializeTo(&wire);
  int64_t accepted = 0;
  int64_t rejected = 0;
  mutate_all(
      wire,
      [](const std::string& bytes, std::string* out) {
        ReplicaHello parsed;
        if (!ReplicaHello::Parse(bytes, &parsed).ok()) return false;
        parsed.SerializeTo(out);
        return true;
      },
      &accepted, &rejected);
  // Sequence and name bytes change values; magic, version and the name
  // length break the parse.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);

  ReplicaHelloAck ack;
  ack.built_seq = 77;
  ack.graph_epoch = 3;
  ack.graph_edges = 4242;
  wire.clear();
  ack.SerializeTo(&wire);
  accepted = rejected = 0;
  mutate_all(
      wire,
      [](const std::string& bytes, std::string* out) {
        ReplicaHelloAck parsed;
        if (!ReplicaHelloAck::Parse(bytes, &parsed).ok()) return false;
        parsed.SerializeTo(out);
        return true;
      },
      &accepted, &rejected);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);

  // An ACK is one u64: every value is a valid sequence number.
  accepted = rejected = 0;
  mutate_all(
      EncodeReplicationAck(987654321),
      [](const std::string& bytes, std::string* out) {
        uint64_t seq = 0;
        if (!DecodeReplicationAck(bytes, &seq).ok()) return false;
        *out = EncodeReplicationAck(seq);
        return true;
      },
      &accepted, &rejected);
  EXPECT_EQ(accepted, 8 * 8);
  EXPECT_EQ(rejected, 0);
}

// ---------------------------------------------------------------------
// End-to-end replication over real sockets.

/// One in-process remote replica: its own RecommendationService around a
/// DeltaApplierRecommender, fed by a ReplicationClient over TCP —
/// exactly what tools/simgraph_shard_server runs, minus the process
/// boundary (scripts/replication_smoke.sh covers that).
struct RemoteReplica {
  std::unique_ptr<RecommendationService> service;
  DeltaApplierRecommender* applier = nullptr;
  std::unique_ptr<ReplicationClient> client;
  ReplicationBootstrap bootstrap;

  void Shutdown() {
    if (client != nullptr) client->Stop();
    if (service != nullptr) service->Stop();
  }
};

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 60809;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    num_test_ = dataset_.num_retweets() - protocol_.train_end;
    ASSERT_GT(num_test_, 10);
    sample_.assign(protocol_.panel.begin(),
                   protocol_.panel.begin() +
                       std::min<size_t>(protocol_.panel.size(), 32));
  }

  const RetweetEvent& TestEvent(int64_t i) const {
    return dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)];
  }

  /// Connects, trains, and starts one remote replica against the builder
  /// at `port`. `applied_seq` is the HELLO resume position.
  void StartRemote(uint16_t port, RemoteReplica* remote,
                   const std::string& name, uint64_t applied_seq = 0) {
    ReplicationClientOptions client_options;
    client_options.port = port;
    client_options.name = name;
    client_options.dataset_fingerprint =
        TrainingFingerprint(dataset_, protocol_.train_end);
    remote->client =
        std::make_unique<ReplicationClient>(client_options);
    ASSERT_TRUE(
        remote->client->Connect(applied_seq, &remote->bootstrap).ok());

    // Default options mirror the builder's.
    auto applier = std::make_unique<DeltaApplierRecommender>();
    remote->applier = applier.get();
    ServiceOptions service_options;
    service_options.cache_ttl = 0;
    remote->service = std::make_unique<RecommendationService>(
        std::move(applier), service_options);
    ASSERT_TRUE(
        remote->service->Train(dataset_, protocol_.train_end).ok());
    remote->applier->SeedRemoteGraphStats(remote->bootstrap.graph_epoch,
                                          remote->bootstrap.graph_edges);
    remote->service->Start();
    remote->client->Start(remote->service.get());
  }

  static void ExpectBitIdentical(const std::vector<ScoredTweet>& actual,
                                 const std::vector<ScoredTweet>& expected,
                                 UserId user) {
    ASSERT_EQ(actual.size(), expected.size()) << "user " << user;
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].tweet, expected[j].tweet) << "user " << user;
      // Exact equality: the replica replays the very doubles the
      // builder computed, across a real socket.
      EXPECT_EQ(actual[j].score, expected[j].score) << "user " << user;
    }
  }

  void ExpectRemoteMatchesService(ShardedService* service,
                                  RemoteReplica* remote, Timestamp now) {
    for (const UserId user : sample_) {
      const RecommendResponse served = service->Recommend({user, now, 10});
      const RecommendResponse replica =
          remote->service->Recommend({user, now, 10});
      ASSERT_TRUE(served.status.ok());
      ASSERT_TRUE(replica.status.ok());
      ExpectBitIdentical(replica.tweets, served.tweets, user);
    }
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::vector<UserId> sample_;
  int64_t num_test_ = 0;
};

// The tentpole equivalence claim: a replica fed SGDL frames over a real
// TCP socket — through the fanout's backlog/outbox machinery, the
// client pump, and PublishItem — answers bit-identically to the
// in-process shards at every checkpoint, INCLUDING across epoch
// snapshot swaps (refresh deltas carry the new epoch and edge count
// across the wire, and the replica must report both).
TEST_F(ReplicationTest, SocketFedReplicaMatchesShardsAcrossEpochSwaps) {
  ReplicationFanout fanout;
  ASSERT_TRUE(fanout.Start().ok());

  ServingSimGraphOptions simgraph_options;
  simgraph_options.snapshot_refresh_events = 16;  // force epoch swaps
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.replication = &fanout;
  ShardedService service(simgraph_options, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  RemoteReplica remote;
  StartRemote(fanout.port(), &remote, "epoch-swap-replica");
  ASSERT_TRUE(fanout.WaitForReplicas(1, std::chrono::milliseconds(5000)));

  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 3; ++i) checkpoints.push_back(num_test_ * i / 3);
  int64_t published = 0;
  for (const int64_t checkpoint : checkpoints) {
    uint64_t seq = 0;
    while (published < checkpoint) {
      seq = service.Publish(TestEvent(published));
      ++published;
    }
    // Waits on local shards AND the remote replica's acks.
    service.WaitForApplied(seq);
    EXPECT_EQ(service.AppliedSeq(), seq);
    ExpectRemoteMatchesService(&service, &remote,
                               TestEvent(published - 1).time);
    // The epoch swap crossed the wire: the remote replica reports the
    // same graph stats as the builder's shards, not the handshake's.
    const BackendStats stats = service.Stats();
    uint64_t remote_epoch = 0;
    int64_t remote_edges = 0;
    ASSERT_TRUE(remote.applier->GraphStats(&remote_epoch, &remote_edges));
    EXPECT_EQ(remote_epoch, stats.graph_epoch);
    EXPECT_EQ(remote_edges, stats.graph_edges);
  }
  EXPECT_GT(remote.applier->graph_epoch(), 1u);  // swaps happened
  // ...and they changed the edge count, so a stale handshake value
  // would have shown.
  EXPECT_NE(service.Stats().graph_edges, remote.bootstrap.graph_edges);
  EXPECT_EQ(fanout.num_degraded(), 0);

  remote.Shutdown();
  service.Stop();
  fanout.Stop();
}

// Kill-and-rejoin: a replica disconnects mid-stream (its client stops),
// the pipeline keeps going without it, and a rejoin at its old applied
// position receives exactly the missed tail from the retained log and
// converges bit-identically.
TEST_F(ReplicationTest, KillAndRejoinConverges) {
  ReplicationFanout fanout;
  ASSERT_TRUE(fanout.Start().ok());

  ShardedServiceOptions options;
  options.num_shards = 2;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  RemoteReplica remote;
  StartRemote(fanout.port(), &remote, "doomed");
  ASSERT_TRUE(fanout.WaitForReplicas(1, std::chrono::milliseconds(5000)));

  const int64_t third = num_test_ / 3;
  uint64_t seq = 0;
  for (int64_t i = 0; i < third; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);
  const uint64_t applied_at_kill = remote.service->AppliedSeq();
  EXPECT_EQ(applied_at_kill, seq);

  // Kill the connection. The fanout drops the replica from the live
  // set; publishing continues unimpeded.
  remote.client->Stop();
  for (int64_t i = third; i < 2 * third; ++i) {
    seq = service.Publish(TestEvent(i));
  }
  service.WaitForApplied(seq);  // remote is gone; must not block

  // Rejoin from the old position: only the missed deltas replay.
  ReplicationClientOptions rejoin_options;
  rejoin_options.port = fanout.port();
  rejoin_options.name = "reborn";
  auto rejoin = std::make_unique<ReplicationClient>(rejoin_options);
  ReplicationBootstrap bootstrap;
  ASSERT_TRUE(rejoin->Connect(applied_at_kill, &bootstrap).ok());
  remote.client = std::move(rejoin);
  remote.client->Start(remote.service.get());

  for (int64_t i = 2 * third; i < num_test_; ++i) {
    seq = service.Publish(TestEvent(i));
  }
  service.WaitForApplied(seq);
  EXPECT_EQ(remote.service->AppliedSeq(), seq);
  ExpectRemoteMatchesService(&service, &remote,
                             TestEvent(num_test_ - 1).time);
  EXPECT_EQ(fanout.num_degraded(), 0);

  remote.Shutdown();
  service.Stop();
  fanout.Stop();
}

// The bounded-lag cutoff: a replica that handshakes and then never acks
// is degraded once the builder runs ahead by more than max_lag_events —
// and WaitForApplied returns instead of hanging on it.
TEST_F(ReplicationTest, StalledReplicaTripsLagCutoffWithoutBlocking) {
  ReplicationFanoutOptions fanout_options;
  fanout_options.max_lag_events = 32;
  // Park the wall-clock backstop out of the way: this test pins the
  // event-lag trigger specifically.
  fanout_options.ack_stall_timeout_ms = 3600 * 1000;
  ReplicationFanout fanout(fanout_options);
  ASSERT_TRUE(fanout.Start().ok());

  ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  // A raw peer that speaks just enough SGRP to register, then goes
  // silent — the socket stays open (that is what distinguishes a stall
  // from a disconnect).
  StatusOr<int> peer = net::ConnectLoopback(fanout.port(), 2000);
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  ReplicaHello hello;
  hello.name = "stalled";
  std::string payload;
  hello.SerializeTo(&payload);
  ASSERT_TRUE(
      WriteReplicationFrame(*peer, ReplicationFrameType::kHello, payload)
          .ok());
  ReplicationFrameType type;
  ASSERT_TRUE(ReadReplicationFrame(*peer, &type, &payload).ok());
  ASSERT_EQ(type, ReplicationFrameType::kHelloAck);
  ASSERT_TRUE(fanout.WaitForReplicas(1, std::chrono::milliseconds(5000)));

  const int64_t to_publish =
      std::min<int64_t>(num_test_, 2 * fanout_options.max_lag_events + 16);
  ASSERT_GT(to_publish, fanout_options.max_lag_events);
  uint64_t seq = 0;
  for (int64_t i = 0; i < to_publish; ++i) {
    seq = service.Publish(TestEvent(i));
  }
  // Must return: the stalled peer is degraded out of the live set by
  // the cutoff, never waited on. (A hang here is the bug this guards.)
  service.WaitForApplied(seq);
  EXPECT_EQ(service.AppliedSeq(), seq);
  EXPECT_EQ(fanout.num_degraded(), 1);
  EXPECT_EQ(fanout.num_live(), 0);

  ::close(*peer);
  service.Stop();
  fanout.Stop();
}

// A peer that is not a replica at all: bad magic in HELLO gets an ERROR
// frame and no session; the fanout stays healthy for real replicas.
TEST_F(ReplicationTest, HostileHelloIsRejectedWithoutHarm) {
  ReplicationFanout fanout;
  ASSERT_TRUE(fanout.Start().ok());

  StatusOr<int> peer = net::ConnectLoopback(fanout.port(), 2000);
  ASSERT_TRUE(peer.ok());
  // Valid framing, garbage payload.
  ASSERT_TRUE(WriteReplicationFrame(*peer, ReplicationFrameType::kHello,
                                    "not a hello")
                  .ok());
  ReplicationFrameType type;
  std::string payload;
  ASSERT_TRUE(ReadReplicationFrame(*peer, &type, &payload).ok());
  EXPECT_EQ(type, ReplicationFrameType::kError);
  ::close(*peer);

  EXPECT_EQ(fanout.num_live(), 0);
  fanout.Stop();
}

// The ack-stall backstop must not misfire across publish-idle gaps: a
// healthy, fully caught-up replica sits through a pause longer than
// ack_stall_timeout_ms, the stream resumes, and the replica stays live
// (its stall clock restarts when the new delta ships — time with
// nothing outstanding never counts as a stall).
TEST_F(ReplicationTest, IdlePublishGapDoesNotTripAckStallBackstop) {
  ReplicationFanoutOptions fanout_options;
  fanout_options.ack_stall_timeout_ms = 200;
  ReplicationFanout fanout(fanout_options);
  ASSERT_TRUE(fanout.Start().ok());

  ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  RemoteReplica remote;
  StartRemote(fanout.port(), &remote, "patient");
  ASSERT_TRUE(fanout.WaitForReplicas(1, std::chrono::milliseconds(5000)));

  const int64_t half = num_test_ / 2;
  uint64_t seq = 0;
  for (int64_t i = 0; i < half; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);

  // Idle gap well past the stall timeout; nothing is outstanding.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  for (int64_t i = half; i < num_test_; ++i) {
    seq = service.Publish(TestEvent(i));
  }
  service.WaitForApplied(seq);
  EXPECT_EQ(fanout.num_degraded(), 0);
  EXPECT_EQ(fanout.num_live(), 1);
  ExpectRemoteMatchesService(&service, &remote,
                             TestEvent(num_test_ - 1).time);

  remote.Shutdown();
  service.Stop();
  fanout.Stop();
}

// A late joiner whose join gap already exceeds max_lag_events must be
// allowed to drain its handshake backlog: the event-lag cutoff is
// exempt until its acks pass the join-time built_seq, so bootstrap of
// a far-behind replica succeeds while the stream is live.
TEST_F(ReplicationTest, LateJoinerBacklogBeyondLagCutoffStillDrains) {
  ReplicationFanoutOptions fanout_options;
  fanout_options.max_lag_events = 8;
  ReplicationFanout fanout(fanout_options);
  ASSERT_TRUE(fanout.Start().ok());

  ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  // Run far past the cutoff with no replica attached.
  const int64_t half = num_test_ / 2;
  ASSERT_GT(half, fanout_options.max_lag_events);
  uint64_t seq = 0;
  for (int64_t i = 0; i < half; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);

  // Join at seq 0: the gap (~half events) dwarfs max_lag_events, and a
  // few live deltas ship while the backlog is still draining — the
  // cutoff must not fire on either.
  RemoteReplica remote;
  StartRemote(fanout.port(), &remote, "far-behind");
  for (int64_t i = half; i < half + fanout_options.max_lag_events; ++i) {
    seq = service.Publish(TestEvent(i));
  }
  service.WaitForApplied(seq);
  EXPECT_EQ(fanout.num_degraded(), 0);
  EXPECT_EQ(fanout.num_live(), 1);
  ExpectRemoteMatchesService(
      &service, &remote,
      TestEvent(half + fanout_options.max_lag_events - 1).time);

  remote.Shutdown();
  service.Stop();
  fanout.Stop();
}

// A replica whose resume position predates the retained delta log is
// rejected instead of silently diverging.
TEST_F(ReplicationTest, BootstrapGapIsRejected) {
  metrics::SetEnabled(true);
  metrics::Registry::Global().Reset();
  ReplicationFanoutOptions fanout_options;
  fanout_options.delta_log_capacity = 2;  // force trimming immediately
  ReplicationFanout fanout(fanout_options);
  ASSERT_TRUE(fanout.Start().ok());

  ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 1;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  uint64_t seq = 0;
  for (int64_t i = 0; i < 16; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);
  // The retained log is observable: trimmed to its capacity, and its
  // byte gauge follows the trim.
  metrics::Registry& registry = metrics::Registry::Global();
  EXPECT_EQ(registry.gauge("serve.replication.log_deltas").value(), 2.0);
  const double log_bytes =
      registry.gauge("serve.replication.log_bytes").value();
  EXPECT_GT(log_bytes, 0.0);
  metrics::SetEnabled(false);

  ReplicationClientOptions client_options;
  client_options.port = fanout.port();
  client_options.name = "too-late";
  ReplicationClient client(client_options);
  ReplicationBootstrap bootstrap;
  const Status status = client.Connect(/*applied_seq=*/0, &bootstrap);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bootstrap gap"), std::string::npos)
      << status.ToString();

  service.Stop();
  fanout.Stop();
}

// Once the log has trimmed past seq 0, a cold joiner (one that trained
// from the dataset, so its state is seq 0) is rejected with an HONEST
// message: no retry works until the builder restarts, since a replica
// has no other state to resume from. The message must not advise a
// snapshot bootstrap that no longer exists.
TEST_F(ReplicationTest, TrimmedLogColdJoinRejectionIsHonest) {
  ReplicationFanoutOptions fanout_options;
  fanout_options.delta_log_capacity = 2;  // force trimming immediately
  ReplicationFanout fanout(fanout_options);
  ASSERT_TRUE(fanout.Start().ok());

  ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 1;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  uint64_t seq = 0;
  for (int64_t i = 0; i < 16; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);

  ReplicationClientOptions client_options;
  client_options.port = fanout.port();
  client_options.name = "cold";
  ReplicationClient client(client_options);
  ReplicationBootstrap bootstrap;
  const Status status = client.Connect(/*applied_seq=*/0, &bootstrap);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cannot join until the builder restarts"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("snapshot"), std::string::npos)
      << status.ToString();

  service.Stop();
  fanout.Stop();
}

// A replica trained on another dataset of the same sizes (the generator
// at seed 1 against a builder at seed 60809) would pass every id check
// and answer from the wrong training state. Its training fingerprint
// gives it away: the builder rejects it in the handshake, before it
// trains, as it rejects a copy whose tweet times alone differ, and still
// admits a replica of the right dataset.
TEST_F(ReplicationTest, MismatchedDatasetIsRejectedAtHandshake) {
  DatasetConfig config = TinyConfig();
  config.seed = 1;
  const Dataset other = GenerateDataset(config);
  ASSERT_EQ(other.num_users(), dataset_.num_users());
  ASSERT_EQ(other.num_tweets(), dataset_.num_tweets());
  const int64_t other_train_end =
      MakeProtocol(other, ProtocolOptions{}).train_end;
  ASSERT_NE(TrainingFingerprint(other, other_train_end),
            TrainingFingerprint(dataset_, protocol_.train_end));

  metrics::SetEnabled(true);
  metrics::Registry::Global().Reset();
  ReplicationFanout fanout;
  ASSERT_TRUE(fanout.Start().ok());
  ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = 0;
  options.replication = &fanout;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  ReplicationClientOptions client_options;
  client_options.port = fanout.port();
  client_options.name = "wrong-dataset";
  client_options.dataset_fingerprint =
      TrainingFingerprint(other, other_train_end);
  ReplicationClient client(client_options);
  ReplicationBootstrap bootstrap;
  const Status status = client.Connect(/*applied_seq=*/0, &bootstrap);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("dataset mismatch"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(fanout.num_live(), 0);
  EXPECT_EQ(metrics::Registry::Global()
                .counter("serve.replication.handshake_rejects")
                .value(),
            1);

  // The same dataset with one tweet published a second later: training
  // copies tweet times into the candidate store, so this one differs too.
  Dataset shifted = dataset_;
  shifted.tweets.back().time += 1;
  client_options.name = "shifted-tweet-time";
  client_options.dataset_fingerprint =
      TrainingFingerprint(shifted, protocol_.train_end);
  ReplicationClient shifted_client(client_options);
  const Status shifted_status =
      shifted_client.Connect(/*applied_seq=*/0, &bootstrap);
  EXPECT_EQ(shifted_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(shifted_status.message().find("dataset mismatch"),
            std::string::npos)
      << shifted_status.ToString();
  EXPECT_EQ(metrics::Registry::Global()
                .counter("serve.replication.handshake_rejects")
                .value(),
            2);
  metrics::SetEnabled(false);

  RemoteReplica remote;
  StartRemote(fanout.port(), &remote, "right-dataset");
  EXPECT_TRUE(fanout.WaitForReplicas(1, std::chrono::milliseconds(5000)));

  remote.Shutdown();
  service.Stop();
  fanout.Stop();
}

// Finished session threads (handshake rejects, closed probes) are
// reaped as later connections arrive, not hoarded until Stop.
TEST_F(ReplicationTest, FinishedSessionsAreReaped) {
  ReplicationFanout fanout;
  ASSERT_TRUE(fanout.Start().ok());

  for (int i = 0; i < 5; ++i) {
    StatusOr<int> peer = net::ConnectLoopback(fanout.port(), 2000);
    ASSERT_TRUE(peer.ok());
    ASSERT_TRUE(WriteReplicationFrame(*peer, ReplicationFrameType::kHello,
                                      "not a hello")
                    .ok());
    ReplicationFrameType type;
    std::string payload;
    ASSERT_TRUE(ReadReplicationFrame(*peer, &type, &payload).ok());
    EXPECT_EQ(type, ReplicationFrameType::kError);
    ::close(*peer);
  }

  // Each probe connection triggers a reap on accept and then finishes
  // immediately (EOF before HELLO); the tracked set must settle to the
  // most recent probes only, not all 5 rejects plus every probe.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int64_t sessions = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    StatusOr<int> probe = net::ConnectLoopback(fanout.port(), 2000);
    ASSERT_TRUE(probe.ok());
    ::close(*probe);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sessions = fanout.num_sessions();
    if (sessions <= 2) break;
  }
  EXPECT_LE(sessions, 2) << "finished sessions were not reaped";

  fanout.Stop();
}

// A builder that ships an id outside the replica's trained population
// ends the session with InvalidArgument before any op of that delta is
// replayed: the replica goes degraded and keeps the answers it had,
// never a wrong one.
TEST_F(ReplicationTest, OutOfRangeDeltaIdEndsTheSession) {
  uint16_t port = 0;
  StatusOr<int> listener = net::ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok());
  // A fake builder that only answers the handshake.
  int builder = -1;
  std::thread handshake([&] {
    builder = ::accept(*listener, nullptr, nullptr);
    ReplicationFrameType type;
    std::string payload;
    if (builder < 0 ||
        !ReadReplicationFrame(builder, &type, &payload).ok()) {
      return;
    }
    std::string ack;
    ReplicaHelloAck{}.SerializeTo(&ack);
    (void)WriteReplicationFrame(builder, ReplicationFrameType::kHelloAck,
                                ack);
  });
  RemoteReplica remote;
  StartRemote(port, &remote, "victim");
  handshake.join();
  ASSERT_GE(builder, 0);

  const TweetId tweet = TestEvent(num_test_ - 1).tweet;
  const Timestamp now =
      dataset_.tweets[static_cast<size_t>(tweet)].time + 1;
  std::vector<UserId> sorted_sample = sample_;
  std::sort(sorted_sample.begin(), sorted_sample.end());
  const auto ship = [&](const SimGraphDelta& delta) {
    std::string payload;
    delta.SerializeTo(&payload);
    ASSERT_TRUE(
        WriteReplicationFrame(builder, ReplicationFrameType::kDelta, payload)
            .ok());
  };
  SimGraphDelta good;
  good.seq_begin = good.seq_end = 1;
  for (const UserId user : sorted_sample) {
    good.deposits.push_back({user, tweet, 0.5});
  }
  good.invalidated = sorted_sample;
  ship(good);
  remote.service->WaitForApplied(1);
  std::vector<std::vector<ScoredTweet>> before;
  bool any = false;
  for (const UserId user : sample_) {
    before.push_back(remote.service->Recommend({user, now, 10}).tweets);
    any = any || !before.back().empty();
  }
  ASSERT_TRUE(any);

  // Valid ops first, then one deposit for user == num_users.
  SimGraphDelta hostile;
  hostile.seq_begin = hostile.seq_end = 2;
  hostile.deposits.push_back({sample_[0], tweet, 0.9});
  hostile.deposits.push_back({dataset_.num_users(), tweet, 0.5});
  hostile.invalidated = {sample_[0]};
  ship(hostile);
  remote.client->WaitUntilClosed();
  EXPECT_EQ(remote.client->session_status().code(),
            StatusCode::kInvalidArgument)
      << remote.client->session_status().ToString();
  EXPECT_EQ(remote.service->AppliedSeq(), 1u);
  for (size_t i = 0; i < sample_.size(); ++i) {
    const RecommendResponse after =
        remote.service->Recommend({sample_[i], now, 10});
    ASSERT_TRUE(after.status.ok());
    ExpectBitIdentical(after.tweets, before[i], sample_[i]);
  }

  remote.Shutdown();
  ::close(builder);
  ::close(*listener);
}

// A peer that accepts the connection but never answers the handshake
// must fail Connect via the receive deadline instead of blocking the
// replica process forever.
TEST(ReplicationClientTimeoutTest, HandshakeTimesOutAgainstSilentPeer) {
  uint16_t port = 0;
  StatusOr<int> listener = net::ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok());

  ReplicationClientOptions options;
  options.port = port;
  options.name = "impatient";
  options.connect_timeout_ms = 2000;
  options.handshake_timeout_ms = 200;
  ReplicationClient client(options);
  ReplicationBootstrap bootstrap;
  const auto start = std::chrono::steady_clock::now();
  const Status status = client.Connect(/*applied_seq=*/0, &bootstrap);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(status.ok());
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  ::close(*listener);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
