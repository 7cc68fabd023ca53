// Wire-protocol failure classes against the sharded TCP front-end: a
// malformed request line, an unknown op, and oversized lines (framed
// and unframed) must each produce a structured error without taking
// down the connection handling or — critically — any shard's applier
// thread. Every test ends by pushing a real event through the full
// fan-out and waiting for its ack, proving the appliers survived.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"
#include "serve/tcp_server.h"

namespace simgraph {
namespace serve {
namespace {

/// Line client with an unframed escape hatch (SendRaw) so tests can
/// ship a byte stream that never contains the newline terminator.
class EdgeClient {
 public:
  explicit EdgeClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~EdgeClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  EdgeClient(const EdgeClient&) = delete;
  EdgeClient& operator=(const EdgeClient&) = delete;

  bool connected() const { return connected_; }

  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one reply line; "" means the server closed the connection.
  std::string ReadLine() {
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

  std::string RoundTrip(const std::string& request) {
    if (!SendRaw(request + "\n")) return "";
    return ReadLine();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

class ShardedWireEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 4242;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});

    ShardedServiceOptions options;
    options.num_shards = 2;
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

  /// The applier-liveness probe: publishes the next test event through
  /// the wire and blocks on its fan-out ack. If any shard's applier had
  /// died, wait_applied would hang (and the test time out).
  void ExpectAppliersAlive() {
    const RetweetEvent& e = dataset_.retweets[static_cast<size_t>(
        protocol_.train_end + published_)];
    EdgeClient probe(server_->port());
    ASSERT_TRUE(probe.connected());
    const std::string ack = probe.RoundTrip(
        "{\"op\":\"event\",\"tweet\":" + std::to_string(e.tweet) +
        ",\"user\":" + std::to_string(e.user) +
        ",\"time\":" + std::to_string(e.time) + "}");
    ASSERT_NE(ack.find("\"ok\":true"), std::string::npos) << ack;
    ++published_;
    const std::string waited = probe.RoundTrip(
        "{\"op\":\"wait_applied\",\"seq\":" + std::to_string(published_) +
        "}");
    EXPECT_NE(waited.find("\"ok\":true"), std::string::npos) << waited;
    for (int32_t s = 0; s < service_->num_shards(); ++s) {
      EXPECT_GE(service_->shard(s).AppliedSeq(),
                static_cast<uint64_t>(published_))
          << "shard " << s;
    }
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::unique_ptr<ShardedService> service_;
  std::unique_ptr<TcpServer> server_;
  int64_t published_ = 0;
};

TEST_F(ShardedWireEdgeTest, MalformedJsonGetsStructuredErrorAndConnectionLives) {
  EdgeClient client(server_->port());
  ASSERT_TRUE(client.connected());
  for (const std::string& bad :
       {std::string("this is not json"), std::string(R"({"op":"recommend")"),
        std::string(R"({"op":{"nested":1}})"), std::string(R"({"user":7})")}) {
    const std::string reply = client.RoundTrip(bad);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"error\""), std::string::npos) << reply;
  }
  // Same connection still serves good requests.
  EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  ExpectAppliersAlive();
}

TEST_F(ShardedWireEdgeTest, UnknownOpGetsStructuredErrorAndConnectionLives) {
  EdgeClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string reply = client.RoundTrip(R"({"op":"teleport"})");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"error\""), std::string::npos) << reply;
  EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  ExpectAppliersAlive();
}

TEST_F(ShardedWireEdgeTest, OversizedFramedLineRejectedConnectionContinues) {
  EdgeClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // A complete (newline-terminated) line over the cap: framing is
  // intact, so only this request is rejected.
  const std::string huge(TcpServer::kMaxLineBytes + 100, 'x');
  const std::string reply = client.RoundTrip(huge);
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("exceeds"), std::string::npos) << reply;
  EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  ExpectAppliersAlive();
}

TEST_F(ShardedWireEdgeTest, OversizedStreamedLineDiscardedUntilNewline) {
  EdgeClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // The line streams in far past the cap with no newline: the server
  // must discard it with bounded memory and stay silent (no reply to
  // attribute to a request that has not ended yet)...
  const std::string huge(TcpServer::kMaxLineBytes * 4, 'y');
  ASSERT_TRUE(client.SendRaw(huge));
  // ...then answer with exactly one structured error once the line
  // finally ends, and keep serving the same connection.
  ASSERT_TRUE(client.SendRaw("\n"));
  const std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("exceeds"), std::string::npos) << reply;
  EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  ExpectAppliersAlive();
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
