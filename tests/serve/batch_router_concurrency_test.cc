// Hammers the batched router path from many threads at once: pipelined
// binary and NDJSON clients firing recommend bursts while a writer
// publishes events through the same server. Every response must come
// back in request order with the right user echoed — under TSan (this
// suite carries the concurrency label) this is the data-race gate for
// RecommendBatch's scatter/gather across shard locks.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/binary_wire.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"
#include "serve/tcp_server.h"

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

TEST(BatchRouterConcurrencyTest, PipelinedClientsAndWriterStayOrdered) {
  DatasetConfig config = TinyConfig();
  config.seed = 4242;
  Dataset dataset = GenerateDataset(config);
  EvalProtocol protocol = MakeProtocol(dataset, ProtocolOptions{});

  ShardedServiceOptions options;
  options.num_shards = 4;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset, protocol.train_end).ok());
  service.Start();
  TcpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  constexpr int kBinaryClients = 2;
  constexpr int kNdjsonClients = 2;
  constexpr int kBursts = 12;
  constexpr int kBurstSize = 16;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  // Binary pipelined clients: each burst is one write of kBurstSize
  // recommend frames; responses must echo the users in order.
  for (int c = 0; c < kBinaryClients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = ConnectLoopback(port);
      if (fd < 0 || !SendBinaryHandshake(fd).ok()) {
        failures.fetch_add(1);
        if (fd >= 0) ::close(fd);
        return;
      }
      for (int b = 0; b < kBursts; ++b) {
        std::string burst;
        std::vector<UserId> users;
        for (int i = 0; i < kBurstSize; ++i) {
          const UserId user = protocol.panel[static_cast<size_t>(
              (c * 131 + b * 17 + i) % static_cast<int>(
                  protocol.panel.size()))];
          users.push_back(user);
          WireRequest request;
          request.op = WireRequest::Op::kRecommend;
          request.user = user;
          request.now = protocol.split_time;
          request.k = 5;
          AppendBinaryRequest(&burst, request);
        }
        if (!SendAllBytes(fd, burst)) {
          failures.fetch_add(1);
          break;
        }
        for (int i = 0; i < kBurstSize; ++i) {
          BinaryOp op;
          std::string payload;
          BinaryRecommendResponse response;
          if (!ReadBinaryFrameBlocking(fd, &op, &payload).ok() ||
              op != BinaryOp::kRecommend ||
              !ParseBinaryRecommendResponse(payload, &response).ok() ||
              response.user != users[static_cast<size_t>(i)]) {
            failures.fetch_add(1);
            break;
          }
        }
      }
      ::close(fd);
    });
  }
  // NDJSON pipelined clients: same shape, line protocol.
  for (int c = 0; c < kNdjsonClients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = ConnectLoopback(port);
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buffer;
      for (int b = 0; b < kBursts; ++b) {
        std::string burst;
        std::vector<UserId> users;
        for (int i = 0; i < kBurstSize; ++i) {
          const UserId user = protocol.panel[static_cast<size_t>(
              (c * 37 + b * 29 + i) % static_cast<int>(
                  protocol.panel.size()))];
          users.push_back(user);
          burst += "{\"op\":\"recommend\",\"user\":" + std::to_string(user) +
                   ",\"now\":" + std::to_string(protocol.split_time) +
                   ",\"k\":5}\n";
        }
        if (!SendAllBytes(fd, burst)) {
          failures.fetch_add(1);
          break;
        }
        for (int i = 0; i < kBurstSize; ++i) {
          size_t newline;
          bool dead = false;
          while ((newline = buffer.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) {
              dead = true;
              break;
            }
            buffer.append(chunk, static_cast<size_t>(n));
          }
          if (dead) {
            failures.fetch_add(1);
            break;
          }
          const std::string line = buffer.substr(0, newline);
          buffer.erase(0, newline + 1);
          const std::string want =
              "\"user\":" + std::to_string(users[static_cast<size_t>(i)]);
          if (line.find("\"ok\":true") == std::string::npos ||
              line.find(want) == std::string::npos) {
            failures.fetch_add(1);
            break;
          }
        }
      }
      ::close(fd);
    });
  }
  // Writer: publishes the test tail through its own connection while the
  // readers hammer the batch path.
  threads.emplace_back([&] {
    const int fd = ConnectLoopback(port);
    if (fd < 0 || !SendBinaryHandshake(fd).ok()) {
      failures.fetch_add(1);
      if (fd >= 0) ::close(fd);
      return;
    }
    const int64_t available =
        static_cast<int64_t>(dataset.retweets.size()) - protocol.train_end;
    const int64_t to_publish = available < 64 ? available : 64;
    for (int64_t i = 0; i < to_publish; ++i) {
      const RetweetEvent& e =
          dataset.retweets[static_cast<size_t>(protocol.train_end + i)];
      WireRequest event;
      event.op = WireRequest::Op::kEvent;
      event.tweet = e.tweet;
      event.user = e.user;
      event.time = e.time;
      std::string out;
      AppendBinaryRequest(&out, event);
      BinaryOp op;
      std::string payload;
      if (!SendAllBytes(fd, out) ||
          !ReadBinaryFrameBlocking(fd, &op, &payload).ok() ||
          op != BinaryOp::kEvent) {
        failures.fetch_add(1);
        break;
      }
    }
    ::close(fd);
  });

  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  server.Stop();
  service.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
