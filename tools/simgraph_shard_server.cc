// simgraph_shard_server — standalone remote shard replica
// (docs/replication.md).
//
// Connects to a builder's replication port (simgraph_served
// --replication-port), trains its candidate state from its own copy of
// the dataset, then consumes SGDL delta frames over the socket (the
// builder's retained log first), applies them through the in-process
// DeltaApplier, and answers recommend requests over its own NDJSON
// front-end. Replay goes through the exact PublishItem path an
// in-process shard queue feeds, so the replica's answers are
// bit-identical to the builder's shards (tests/serve/replication_test.cc).
//
//   simgraph_shard_server --connect PORT     builder's replication port
//                   [--name NAME]            replica name in HELLO
//                   [--port P]               NDJSON front-end port
//                                            (default 0: ephemeral)
//                   [--data DIR | --users N --tweets N --seed S]
//                                            MUST match the builder's
//                                            dataset flags, or replay
//                                            diverges
//                   [--train F]              train fraction (default 0.9)
//                   [--ttl SECONDS] [--deadline-us N]
//                   [--metrics-json PATH]
//
// Prints "listening on port P" once ready (same convention as
// simgraph_served), preceded by one "replica ... joined ..." line and,
// on stderr, one "startup: load_s=L train_s=T total_s=S" line (the
// serve.startup.{load,train}_seconds gauges carry the same figures).
// Runs until stdin reaches EOF. The process stays up — still serving
// reads — if the builder goes away; that is what a replica is for.

#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "simgraph/simgraph.h"
#include "startup_report.h"

namespace simgraph {
namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << arg << "\n";
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      std::cerr << "missing value for " << arg << "\n";
    }
  }
  return flags;
}

int64_t FlagInt(const std::map<std::string, std::string>& flags,
                const std::string& name, int64_t fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stoll(it->second);
}

double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& name, double fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stod(it->second);
}

std::string FlagString(const std::map<std::string, std::string>& flags,
                       const std::string& name,
                       const std::string& fallback = "") {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

int Run(int argc, char** argv) {
  const WallTimer startup;
  const auto flags = ParseFlags(argc, argv);
  const std::string metrics_path = FlagString(flags, "metrics-json");
  if (!metrics_path.empty()) metrics::SetEnabled(true);

  if (flags.count("connect") == 0) {
    std::cerr << "--connect PORT is required (the builder's replication "
                 "port; docs/replication.md)\n";
    return 2;
  }

  WallTimer phase;
  Dataset dataset;
  const std::string data_dir = FlagString(flags, "data");
  if (!data_dir.empty()) {
    StatusOr<Dataset> loaded = LoadDataset(data_dir);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    dataset = *std::move(loaded);
  } else {
    DatasetConfig config = TinyConfig();
    config.num_users = FlagInt(flags, "users", config.num_users);
    config.num_tweets = FlagInt(flags, "tweets", config.num_tweets);
    config.seed = static_cast<uint64_t>(
        FlagInt(flags, "seed", static_cast<int64_t>(config.seed)));
    dataset = GenerateDataset(config);
  }
  const double load_s = phase.ElapsedSeconds();
  const int64_t train_end = dataset.SplitIndex(FlagDouble(flags, "train", 0.9));

  // Phase 1: handshake. A builder that rejects this replica fails it
  // before the training cost is paid.
  serve::ReplicationClientOptions client_options;
  client_options.port = static_cast<uint16_t>(FlagInt(flags, "connect", 0));
  client_options.name = FlagString(flags, "name", "replica");
  serve::ReplicationClient client(client_options);
  serve::ReplicationBootstrap bootstrap;
  const Status connected = client.Connect(/*applied_seq=*/0, &bootstrap);
  if (!connected.ok()) {
    std::cerr << connected.ToString() << "\n";
    return 1;
  }

  auto applier = std::make_unique<serve::DeltaApplierRecommender>();
  serve::DeltaApplierRecommender* applier_ptr = applier.get();
  serve::ServiceOptions service_options;
  service_options.cache_ttl = FlagInt(flags, "ttl", kSecondsPerDay);
  service_options.deadline =
      std::chrono::microseconds(FlagInt(flags, "deadline-us", 0));
  serve::RecommendationService service(std::move(applier), service_options);
  phase.Restart();
  const Status trained = service.Train(dataset, train_end);
  const double train_s = phase.ElapsedSeconds();
  if (!trained.ok()) {
    std::cerr << trained.ToString() << "\n";
    return 1;
  }
  applier_ptr->SeedRemoteGraphStats(bootstrap.graph_epoch,
                                    bootstrap.graph_edges);
  service.Start();

  // Phase 2: pump deltas into the live service and ack what it applied.
  client.Start(&service);

  serve::TcpServer server(&service);
  const Status started =
      server.Start(static_cast<uint16_t>(FlagInt(flags, "port", 0)));
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  ReportStartup(load_s, train_s, startup.ElapsedSeconds());
  std::cout << "replica " << client_options.name << " joined (builder seq "
            << bootstrap.built_seq << ", graph epoch "
            << bootstrap.graph_epoch << ", " << bootstrap.graph_edges
            << " edges)\n"
            << "listening on port " << server.port() << std::endl;

  std::string line;
  while (std::getline(std::cin, line)) {
  }

  // The client first (its ack thread waits on the service), then the
  // service, then the front-end.
  client.Stop();
  service.Stop();
  server.Stop();

  int rc = 0;
  if (!metrics_path.empty()) {
    const Status s = metrics::Registry::Global().WriteJsonFile(metrics_path);
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace simgraph

int main(int argc, char** argv) { return simgraph::Run(argc, argv); }
