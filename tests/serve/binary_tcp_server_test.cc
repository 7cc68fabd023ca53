// SGRQ binary protocol end-to-end against the sharded TCP front-end:
// hello negotiation, every op answered in binary frames, NDJSON-vs-
// binary answer identity over the full op set, pipelined recommends
// crossing the router as batches, and the hostile edges — a bad hello,
// an oversized frame (whole and streamed) — handled with exactly the
// NDJSON path's guarantees. Tests end with an event + wait_applied
// fan-out probe proving every shard's applier survived.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/binary_wire.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"
#include "serve/tcp_server.h"
#include "serve/wire_protocol.h"
#include "util/metrics.h"

namespace simgraph {
namespace serve {
namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAllBytes(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Binary client: handshakes on connect, then one frame per call.
class BinaryClient {
 public:
  explicit BinaryClient(uint16_t port) {
    fd_ = ConnectLoopback(port);
    if (fd_ >= 0) handshaken_ = SendBinaryHandshake(fd_).ok();
  }
  ~BinaryClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  BinaryClient(const BinaryClient&) = delete;
  BinaryClient& operator=(const BinaryClient&) = delete;

  bool ready() const { return fd_ >= 0 && handshaken_; }
  int fd() const { return fd_; }

  bool Send(const WireRequest& request) {
    std::string out;
    AppendBinaryRequest(&out, request);
    return SendAllBytes(fd_, out);
  }

  Status Read(BinaryOp* op, std::string* payload) {
    return ReadBinaryFrameBlocking(fd_, op, payload);
  }

  /// One request, one frame back.
  Status RoundTrip(const WireRequest& request, BinaryOp* op,
                   std::string* payload) {
    if (!Send(request)) return Status::IoError("send failed");
    return Read(op, payload);
  }

 private:
  int fd_ = -1;
  bool handshaken_ = false;
};

/// NDJSON client for the identity comparisons.
class LineClient {
 public:
  explicit LineClient(uint16_t port) { fd_ = ConnectLoopback(port); }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  std::string RoundTrip(const std::string& request) {
    if (!SendAllBytes(fd_, request + "\n")) return "";
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

WireRequest RecommendRequestFor(UserId user, Timestamp now, int32_t k) {
  WireRequest request;
  request.op = WireRequest::Op::kRecommend;
  request.user = user;
  request.now = now;
  request.k = k;
  return request;
}

class BinaryTcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 911;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});

    ShardedServiceOptions options;
    options.num_shards = 2;
    // Caching off: identity tests compare fresh computations, and a
    // second protocol's request must not be answered from the first's
    // cache entry (that would hide an encoding bug).
    options.shard_options.cache_ttl = -1;
    service_ =
        std::make_unique<ShardedService>(ServingSimGraphOptions{}, options);
    ASSERT_TRUE(service_->Train(dataset_, protocol_.train_end).ok());
    service_->Start();
    server_ = std::make_unique<TcpServer>(service_.get());
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
    if (server_ != nullptr) server_->Stop();
  }

  /// Publishes the next test event over binary and waits for fan-out:
  /// hangs (and times the test out) if any shard's applier died.
  void ExpectAppliersAlive() {
    const RetweetEvent& e = dataset_.retweets[static_cast<size_t>(
        protocol_.train_end + published_)];
    BinaryClient probe(server_->port());
    ASSERT_TRUE(probe.ready());
    WireRequest event;
    event.op = WireRequest::Op::kEvent;
    event.tweet = e.tweet;
    event.user = e.user;
    event.time = e.time;
    BinaryOp op;
    std::string payload;
    ASSERT_TRUE(probe.RoundTrip(event, &op, &payload).ok());
    ASSERT_EQ(op, BinaryOp::kEvent);
    uint64_t seq = 0;
    ASSERT_TRUE(ParseBinaryU64(payload, &seq).ok());
    ++published_;
    EXPECT_EQ(seq, static_cast<uint64_t>(published_));
    WireRequest wait;
    wait.op = WireRequest::Op::kWaitApplied;
    wait.seq = seq;
    ASSERT_TRUE(probe.RoundTrip(wait, &op, &payload).ok());
    EXPECT_EQ(op, BinaryOp::kWaitApplied);
    uint64_t applied = 0;
    ASSERT_TRUE(ParseBinaryU64(payload, &applied).ok());
    EXPECT_GE(applied, seq);
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::unique_ptr<ShardedService> service_;
  std::unique_ptr<TcpServer> server_;
  int64_t published_ = 0;
};

TEST_F(BinaryTcpServerTest, HandshakeThenEveryOpAnswersInBinary) {
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.ready());
  BinaryOp op;
  std::string payload;

  WireRequest ping;
  ping.op = WireRequest::Op::kPing;
  ASSERT_TRUE(client.RoundTrip(ping, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kPing);
  EXPECT_TRUE(payload.empty());

  WireRequest recommend = RecommendRequestFor(
      protocol_.panel.front(), protocol_.split_time, 5);
  ASSERT_TRUE(client.RoundTrip(recommend, &op, &payload).ok());
  ASSERT_EQ(op, BinaryOp::kRecommend);
  BinaryRecommendResponse response;
  ASSERT_TRUE(ParseBinaryRecommendResponse(payload, &response).ok());
  EXPECT_EQ(response.user, protocol_.panel.front());

  WireRequest stats;
  stats.op = WireRequest::Op::kStats;
  ASSERT_TRUE(client.RoundTrip(stats, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kStats);
  // The payload is the NDJSON stats object, verbatim.
  EXPECT_NE(payload.find("\"ok\":true,\"op\":\"stats\""), std::string::npos)
      << payload.substr(0, 120);
  EXPECT_NE(payload.find("\"num_shards\":2"), std::string::npos);

  WireRequest slow;
  slow.op = WireRequest::Op::kSlowLog;
  slow.limit = 4;
  ASSERT_TRUE(client.RoundTrip(slow, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kSlowLog);
  EXPECT_NE(payload.find("\"op\":\"slow-log\""), std::string::npos);

  // stats-window without a recorder: a structured error frame, exactly
  // like the NDJSON error reply.
  WireRequest window;
  window.op = WireRequest::Op::kStatsWindow;
  window.limit = 4;
  ASSERT_TRUE(client.RoundTrip(window, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kError);
  EXPECT_NE(payload.find("recorder"), std::string::npos);

  WireRequest metrics;
  metrics.op = WireRequest::Op::kMetrics;
  ASSERT_TRUE(client.RoundTrip(metrics, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kMetrics);
  EXPECT_NE(payload.find("# EOF"), std::string::npos);

  ExpectAppliersAlive();
}

TEST_F(BinaryTcpServerTest, BinaryAnswersMatchNdjsonOverFullOpSet) {
  // The same logical request through both protocols must produce the
  // same answer: identical tweet ids, BIT-identical scores (NDJSON
  // prints %.17g, which round-trips doubles exactly), same applied_seq,
  // and byte-identical JSON bodies for the text-frame ops.
  BinaryClient binary(server_->port());
  LineClient ndjson(server_->port());
  ASSERT_TRUE(binary.ready());
  ASSERT_TRUE(ndjson.connected());
  BinaryOp op;
  std::string payload;

  for (size_t i = 0; i < 8 && i < protocol_.panel.size(); ++i) {
    const UserId user = protocol_.panel[i];
    const WireRequest request =
        RecommendRequestFor(user, protocol_.split_time, 7);
    ASSERT_TRUE(binary.RoundTrip(request, &op, &payload).ok());
    ASSERT_EQ(op, BinaryOp::kRecommend);
    BinaryRecommendResponse got;
    ASSERT_TRUE(ParseBinaryRecommendResponse(payload, &got).ok());

    const std::string line = ndjson.RoundTrip(
        "{\"op\":\"recommend\",\"user\":" + std::to_string(user) +
        ",\"now\":" + std::to_string(protocol_.split_time) + ",\"k\":7}");
    ASSERT_NE(line.find("\"ok\":true"), std::string::npos) << line;

    // The NDJSON reply must embed exactly the binary reply's tweets, in
    // order, with scores that parse back to the same doubles. Rebuild
    // the expected tweets array with the shared formatter and look for
    // it verbatim.
    std::string expected = "\"tweets\":[";
    for (size_t t = 0; t < got.tweets.size(); ++t) {
      if (t > 0) expected += ",";
      expected += "{\"id\":" + std::to_string(got.tweets[t].tweet) + ",";
      char buf[64];
      snprintf(buf, sizeof(buf), "%.17g", got.tweets[t].score);
      expected += "\"score\":";
      expected += buf;
      expected += "}";
    }
    expected += "]";
    EXPECT_NE(line.find(expected), std::string::npos)
        << "binary and NDJSON disagree for user " << user << "\nwant "
        << expected << "\nline " << line;
    EXPECT_NE(
        line.find("\"applied_seq\":" + std::to_string(got.applied_seq)),
        std::string::npos)
        << line;
  }

  // Text-frame ops: the binary payload IS the NDJSON body.
  WireRequest slow;
  slow.op = WireRequest::Op::kSlowLog;
  slow.limit = 2;
  ASSERT_TRUE(binary.RoundTrip(slow, &op, &payload).ok());
  ASSERT_EQ(op, BinaryOp::kSlowLog);
  EXPECT_EQ(payload.substr(0, 32),
            ndjson.RoundTrip("{\"op\":\"slow-log\",\"n\":2}").substr(0, 32));

  ExpectAppliersAlive();
}

TEST_F(BinaryTcpServerTest, PipelinedRecommendsCrossRouterAsBatches) {
  metrics::SetEnabled(true);
  metrics::Registry::Global().Reset();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.ready());
  // 16 recommends in one write: the server decodes them in one pass and
  // serves them as one RecommendBatch (grouped per shard), answering in
  // request order.
  constexpr size_t kPipeline = 16;
  std::string burst;
  std::vector<UserId> users;
  for (size_t i = 0; i < kPipeline; ++i) {
    const UserId user =
        protocol_.panel[i % protocol_.panel.size()];
    users.push_back(user);
    AppendBinaryRequest(
        &burst, RecommendRequestFor(user, protocol_.split_time, 5));
  }
  ASSERT_TRUE(SendAllBytes(client.fd(), burst));
  for (size_t i = 0; i < kPipeline; ++i) {
    BinaryOp op;
    std::string payload;
    ASSERT_TRUE(client.Read(&op, &payload).ok()) << i;
    ASSERT_EQ(op, BinaryOp::kRecommend) << i;
    BinaryRecommendResponse response;
    ASSERT_TRUE(ParseBinaryRecommendResponse(payload, &response).ok()) << i;
    // Request order is preserved across the per-shard scatter/gather.
    EXPECT_EQ(response.user, users[i]) << i;
  }
  // The router really batched: requests were accounted to the batch
  // path (the exact flush count depends on how recv chunked the burst).
  const int64_t batched =
      metrics::Registry::Global()
          .counter("serve.router.batch.requests")
          .value();
  EXPECT_GT(batched, 0);
  metrics::SetEnabled(false);
  ExpectAppliersAlive();
}

TEST_F(BinaryTcpServerTest, BadHelloGetsErrorFrameAndClose) {
  const int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  // 'S' commits the connection to a binary hello; a wrong magic is a
  // client that can never be understood — error frame, then EOF.
  ASSERT_TRUE(SendAllBytes(fd, std::string("SGXX\x01\x00\x00\x00", 8)));
  BinaryOp op;
  std::string payload;
  ASSERT_TRUE(ReadBinaryFrameBlocking(fd, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kError);
  EXPECT_NE(payload.find("magic"), std::string::npos);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // clean EOF
  ::close(fd);
  ExpectAppliersAlive();
}

TEST_F(BinaryTcpServerTest, OversizedFrameRejectedConnectionContinues) {
  metrics::SetEnabled(true);
  metrics::Registry::Global().Reset();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.ready());
  // A frame whose length prefix is over the cap, payload included in
  // one write: one error frame, connection lives.
  const uint32_t huge = static_cast<uint32_t>(TcpServer::kMaxLineBytes) + 64;
  std::string frame;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  frame.push_back(static_cast<char>(BinaryOp::kPing));
  frame.append(huge, 'x');
  ASSERT_TRUE(SendAllBytes(client.fd(), frame));
  BinaryOp op;
  std::string payload;
  ASSERT_TRUE(client.Read(&op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kError);
  EXPECT_NE(payload.find("exceeds"), std::string::npos) << payload;

  WireRequest ping;
  ping.op = WireRequest::Op::kPing;
  ASSERT_TRUE(client.RoundTrip(ping, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kPing);
  EXPECT_EQ(metrics::Registry::Global()
                .counter("serve.tcp.oversized_frames")
                .value(),
            1);
  metrics::SetEnabled(false);
  ExpectAppliersAlive();
}

TEST_F(BinaryTcpServerTest, OversizedFrameStreamedInChunksStaysBounded) {
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.ready());
  // The oversized payload dribbles in over many writes with the header
  // first: the server must discard with bounded memory and answer with
  // exactly one error frame once the frame has fully streamed past.
  const uint32_t huge = static_cast<uint32_t>(TcpServer::kMaxLineBytes) * 3;
  std::string header;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  header.push_back(static_cast<char>(BinaryOp::kRecommend));
  ASSERT_TRUE(SendAllBytes(client.fd(), header));
  const std::string chunk(8192, 'y');
  uint32_t remaining = huge;
  while (remaining > 0) {
    const uint32_t now = std::min<uint32_t>(
        remaining, static_cast<uint32_t>(chunk.size()));
    ASSERT_TRUE(SendAllBytes(client.fd(), chunk.substr(0, now)));
    remaining -= now;
  }
  BinaryOp op;
  std::string payload;
  ASSERT_TRUE(client.Read(&op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kError);
  EXPECT_NE(payload.find("exceeds"), std::string::npos) << payload;
  // Framing intact: the next request is served normally.
  WireRequest ping;
  ping.op = WireRequest::Op::kPing;
  ASSERT_TRUE(client.RoundTrip(ping, &op, &payload).ok());
  EXPECT_EQ(op, BinaryOp::kPing);
  ExpectAppliersAlive();
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
