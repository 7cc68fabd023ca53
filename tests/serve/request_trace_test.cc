// End-to-end request tracing through the TCP front-end: every wire
// request must export as one connected tree — a root span with the
// parse and serialize stages attached under the same request id — and
// cross-thread stages (queue wait, apply) must join the publishing
// request's tree. The acceptance bar mirrors the serving SLO: >= 99% of
// request roots have complete parse->serialize trees.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"
#include "serve/tcp_server.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {
namespace {

class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  std::string RoundTrip(const std::string& request) {
    const std::string framed = request + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) return "";
      sent += static_cast<size_t>(n);
    }
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
  bool connected_ = false;
  std::string buffer_;
};

std::string FieldAfter(const std::string& line, const std::string& key) {
  const size_t pos = line.find(key);
  if (pos == std::string::npos) return "";
  const size_t open = line.find('"', pos + key.size());
  if (open == std::string::npos) return "";
  const size_t close = line.find('"', open + 1);
  if (close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

TEST(RequestTraceTest, WireRequestsExportCompleteTrees) {
  trace::SetEnabled(false);
  trace::Clear();

  DatasetConfig config = TinyConfig();
  config.seed = 77;
  const Dataset dataset = GenerateDataset(config);
  const EvalProtocol protocol = MakeProtocol(dataset, ProtocolOptions{});

  ServiceOptions options;
  options.cache_ttl = kSecondsPerDay;
  auto service = std::make_unique<RecommendationService>(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service->Train(dataset, protocol.train_end).ok());
  service->Start();
  TcpServer server(service.get());
  ASSERT_TRUE(server.Start(0).ok());

  trace::SetEnabled(true);

  constexpr int kRecommends = 150;
  constexpr int kEvents = 30;
  {
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < kEvents; ++i) {
      const RetweetEvent& e = dataset.retweets[static_cast<size_t>(
          protocol.train_end + i)];
      const std::string reply = client.RoundTrip(
          "{\"op\":\"event\",\"tweet\":" + std::to_string(e.tweet) +
          ",\"user\":" + std::to_string(e.user) +
          ",\"time\":" + std::to_string(e.time) + "}");
      ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    }
    client.RoundTrip("{\"op\":\"wait_applied\",\"seq\":" +
                     std::to_string(kEvents) + "}");
    for (int i = 0; i < kRecommends; ++i) {
      const UserId user =
          protocol.panel[static_cast<size_t>(i) % protocol.panel.size()];
      const std::string reply = client.RoundTrip(
          "{\"op\":\"recommend\",\"user\":" + std::to_string(user) +
          ",\"now\":" + std::to_string(protocol.split_time) + ",\"k\":5}");
      ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
      // The reply carries the server-assigned request id.
      EXPECT_NE(reply.find("\"request_id\":"), std::string::npos) << reply;
    }
    client.RoundTrip("{\"op\":\"stats\"}");
    client.RoundTrip("{\"op\":\"ping\"}");
  }

  service->Stop();
  server.Stop();
  trace::SetEnabled(false);

  std::ostringstream out;
  trace::WriteJson(out);
  const std::string json = out.str();

  // Group begin-events by request id.
  std::map<std::string, std::set<std::string>> children;
  std::set<std::string> roots;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"b\"") == std::string::npos) continue;
    const std::string id = FieldAfter(line, "\"id\": ");
    const std::string name = FieldAfter(line, "\"name\": ");
    if (id.empty() || name.empty()) continue;
    children[id].insert(name);
    if (line.find("\"root\": true") != std::string::npos) roots.insert(id);
  }

  // Every request-scoped event belongs to a rooted request (no
  // dangling ids survive export).
  for (const auto& [id, names] : children) {
    EXPECT_TRUE(roots.count(id) > 0) << "dangling request id " << id;
  }

  // >= 99% of roots carry a complete parse -> serialize tree.
  ASSERT_GE(roots.size(), static_cast<size_t>(kRecommends));
  int complete = 0;
  for (const std::string& id : roots) {
    const std::set<std::string>& names = children[id];
    if (names.count("request/parse") > 0 &&
        names.count("request/serialize") > 0) {
      ++complete;
    }
  }
  EXPECT_GE(static_cast<double>(complete),
            0.99 * static_cast<double>(roots.size()))
      << complete << " of " << roots.size() << " trees complete";

  // Recommend trees carry the per-stage spans, and at least one event
  // request shows the cross-thread queue-wait + apply stages.
  int with_scoring = 0;
  int with_apply = 0;
  for (const std::string& id : roots) {
    const std::set<std::string>& names = children[id];
    if (names.count("request/candidate_scoring") > 0) ++with_scoring;
    if (names.count("request/queue_wait") > 0 &&
        names.count("request/apply_event") > 0) {
      ++with_apply;
    }
  }
  EXPECT_GT(with_scoring, 0) << json.substr(0, 2000);
  EXPECT_GT(with_apply, 0) << json.substr(0, 2000);

  trace::Clear();
}

// The sharded e2e variant: the same wire workload against a 4-shard
// ShardedService must still export one connected tree per request. The
// router hop shows up as a request/route span under the recommend
// request's id, and the delta a published event ships in is applied on
// *every* shard's applier, so those cross-thread apply stages all join
// the publishing request's tree.
TEST(RequestTraceTest, ShardedWireRequestsExportConnectedTrees) {
  trace::SetEnabled(false);
  trace::Clear();

  DatasetConfig config = TinyConfig();
  config.seed = 77;
  const Dataset dataset = GenerateDataset(config);
  const EvalProtocol protocol = MakeProtocol(dataset, ProtocolOptions{});

  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = kSecondsPerDay;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset, protocol.train_end).ok());
  service.Start();
  TcpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  trace::SetEnabled(true);

  constexpr int kRecommends = 80;
  constexpr int kEvents = 20;
  {
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < kEvents; ++i) {
      const RetweetEvent& e = dataset.retweets[static_cast<size_t>(
          protocol.train_end + i)];
      const std::string reply = client.RoundTrip(
          "{\"op\":\"event\",\"tweet\":" + std::to_string(e.tweet) +
          ",\"user\":" + std::to_string(e.user) +
          ",\"time\":" + std::to_string(e.time) + "}");
      ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    }
    client.RoundTrip("{\"op\":\"wait_applied\",\"seq\":" +
                     std::to_string(kEvents) + "}");
    for (int i = 0; i < kRecommends; ++i) {
      const UserId user =
          protocol.panel[static_cast<size_t>(i) % protocol.panel.size()];
      const std::string reply = client.RoundTrip(
          "{\"op\":\"recommend\",\"user\":" + std::to_string(user) +
          ",\"now\":" + std::to_string(protocol.split_time) + ",\"k\":5}");
      ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
      EXPECT_NE(reply.find("\"request_id\":"), std::string::npos) << reply;
    }
  }

  service.Stop();
  server.Stop();
  trace::SetEnabled(false);

  std::ostringstream out;
  trace::WriteJson(out);
  const std::string json = out.str();

  std::map<std::string, std::set<std::string>> children;
  std::map<std::string, int> apply_spans;
  std::set<std::string> roots;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"b\"") == std::string::npos) continue;
    const std::string id = FieldAfter(line, "\"id\": ");
    const std::string name = FieldAfter(line, "\"name\": ");
    if (id.empty() || name.empty()) continue;
    children[id].insert(name);
    if (name == "request/apply_event") ++apply_spans[id];
    if (line.find("\"root\": true") != std::string::npos) roots.insert(id);
  }

  // No dangling ids: every span joined a rooted request tree.
  for (const auto& [id, names] : children) {
    EXPECT_TRUE(roots.count(id) > 0) << "dangling request id " << id;
  }

  // Recommend trees stay complete across the router hop and carry the
  // routing span itself.
  ASSERT_GE(roots.size(), static_cast<size_t>(kRecommends));
  int complete = 0;
  int routed = 0;
  for (const std::string& id : roots) {
    const std::set<std::string>& names = children[id];
    if (names.count("request/parse") > 0 &&
        names.count("request/serialize") > 0) {
      ++complete;
    }
    if (names.count("request/route") > 0) ++routed;
  }
  EXPECT_GE(static_cast<double>(complete),
            0.99 * static_cast<double>(roots.size()))
      << complete << " of " << roots.size() << " trees complete";
  EXPECT_GT(routed, 0) << json.substr(0, 2000);

  // Fan-out joins the tree: at least one event request shows apply
  // stages from all four shards under its single id.
  int max_applies = 0;
  for (const auto& [id, count] : apply_spans) {
    max_applies = std::max(max_applies, count);
  }
  EXPECT_EQ(max_applies, 4) << json.substr(0, 2000);

  trace::Clear();
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
