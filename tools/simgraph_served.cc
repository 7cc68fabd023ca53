// simgraph_served — online recommendation service front-end.
//
// Trains a serving recommender, starts the in-process
// RecommendationService, and exposes it over a loopback TCP socket.
// Each connection auto-negotiates its protocol (docs/serving.md): the
// debuggable newline-delimited JSON wire format by default, or the SGRQ
// binary framing when the client leads with an SGRQ hello — same op
// set, same answers, no JSON cost on the hot path. Runs until stdin
// reaches EOF, then shuts down cleanly.
//
//   simgraph_served [--data DIR | --users N --tweets N --seed S]
//                   [--train F]          train fraction (default 0.9)
//                   [--port P]           0 picks an ephemeral port (default)
//                   [--method M]         simgraph | cf | bayes | graphjet.
//                                        simgraph serves through the
//                                        delta-shipping ingest pipeline
//                                        (one builder, delta-applying
//                                        shards; docs/ingest.md); the
//                                        baselines serve from one unsharded
//                                        RecommendationService
//                   [--shards N]         per-core service shards behind the
//                                        hash router (default 1; simgraph
//                                        only; see docs/serving.md
//                                        "Sharded serving")
//                   [--ttl SECONDS]      result-cache TTL in simulated
//                                        seconds; -1 disables the cache
//                                        (default 86400)
//                   [--deadline-us N]    per-request budget; 0 = unlimited
//                   [--refresh-events N] SimGraph snapshot refresh cadence
//                   [--metrics-json PATH] [--trace-json PATH]
//                   [--metrics-flush-ms N] flush --metrics-json every N ms
//                                        from a background thread (default
//                                        0: write once at shutdown)
//                   [--stats-window-ms N] windowed telemetry: rotate the
//                                        serve.window.* gauges, record one
//                                        timeseries window every N ms, and
//                                        serve the recent ring via the
//                                        "stats-window" wire op (default 0:
//                                        off; docs/observability.md)
//                   [--stats-window-ndjson PATH] also append each window
//                                        record as one NDJSON line
//                   [--flight-recorder-k N] slowest requests retained per
//                                        shard per window, dumpable via
//                                        "slow-log" (default 16; 0 disables)
//                   [--p99-spike-mult M] auto-dump the flight recorder when
//                                        a window's request p99 exceeds M x
//                                        the trailing median (default 4;
//                                        0 disables)
//                   [--replication-port P] accept remote shard replicas
//                                        (tools/simgraph_shard_server) on
//                                        this SGRP port; 0 picks ephemeral.
//                                        Requires --method simgraph
//                                        (docs/replication.md)
//                   [--replication-image PATH] write the follow graph as an
//                                        SGCS image to PATH and serve it to
//                                        replicas that bootstrap with
//                                        want_snapshot
//                   [--replication-max-lag N] bounded-lag cutoff in events
//                                        (default 65536)
//                   [--replication-stall-ms N] ack-stall degrade backstop
//                                        (default 10000)
//
// Prints "listening on port P" once ready — harnesses parse this line to
// find an ephemeral port. With --replication-port it also prints
// "replication on port R". Just before, it prints one line to stderr,
// "startup: load_s=L train_s=T total_s=S" (dataset load, Train, and
// main() to the listening socket; tools/startup_report.h), and sets the
// serve.startup.{load,train}_seconds gauges.

#include <chrono>
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
    // Both "--flag value" and "--flag=value" spellings are accepted.
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

// The paper's baselines, served through the generic adapter; null for
// an unknown method (and for simgraph, which has its own service).
std::unique_ptr<serve::ServingRecommender> MakeBaseline(
    const std::string& method) {
  if (method == "cf") {
    return serve::WrapForServing(std::make_unique<CfRecommender>());
  }
  if (method == "bayes") {
    return serve::WrapForServing(std::make_unique<BayesRecommender>());
  }
  if (method == "graphjet") {
    return serve::WrapForServing(std::make_unique<GraphJetRecommender>());
  }
  return nullptr;
}

int Run(int argc, char** argv) {
  const WallTimer startup;
  const auto flags = ParseFlags(argc, argv);
  const std::string metrics_path = FlagString(flags, "metrics-json");
  const std::string trace_path = FlagString(flags, "trace-json");
  if (!metrics_path.empty()) metrics::SetEnabled(true);
  if (!trace_path.empty()) trace::SetEnabled(true);
  const int64_t stats_window_ms = FlagInt(flags, "stats-window-ms", 0);
  if (stats_window_ms > 0) {
    // Windowed telemetry needs the registry live and per-request stage
    // timings for the flight recorder, even with tracing off.
    metrics::SetEnabled(true);
    trace::SetForceStageCollection(true);
  }
  const int64_t metrics_flush_ms = FlagInt(flags, "metrics-flush-ms", 0);
  std::unique_ptr<metrics::PeriodicFlusher> flusher;
  if (metrics_flush_ms > 0) {
    if (metrics_path.empty()) {
      std::cerr << "--metrics-flush-ms needs --metrics-json PATH\n";
      return 2;
    }
    flusher = std::make_unique<metrics::PeriodicFlusher>(
        metrics_path, std::chrono::milliseconds(metrics_flush_ms));
    flusher->Start();
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
  const double train_fraction = FlagDouble(flags, "train", 0.9);
  const int64_t train_end = dataset.SplitIndex(train_fraction);

  const std::string method = FlagString(flags, "method", "simgraph");
  const bool simgraph = method == "simgraph";
  std::unique_ptr<serve::ServingRecommender> baseline = MakeBaseline(method);
  if (!simgraph && baseline == nullptr) {
    std::cerr << "unknown --method " << method
              << " (want simgraph|cf|bayes|graphjet)\n";
    return 2;
  }

  serve::ShardedServiceOptions options;
  options.num_shards = static_cast<int32_t>(FlagInt(flags, "shards", 1));
  if (options.num_shards < 1) {
    std::cerr << "--shards must be >= 1\n";
    return 2;
  }
  if (!simgraph && options.num_shards > 1) {
    std::cerr << "--shards > 1 requires --method simgraph "
                 "(docs/serving.md)\n";
    return 2;
  }
  options.shard_options.cache_ttl = FlagInt(flags, "ttl", kSecondsPerDay);
  options.shard_options.deadline =
      std::chrono::microseconds(FlagInt(flags, "deadline-us", 0));
  options.shard_options.flight_recorder_capacity =
      static_cast<int32_t>(FlagInt(flags, "flight-recorder-k", 16));

  std::unique_ptr<serve::ReplicationFanout> fanout;
  if (flags.count("replication-port") > 0) {
    if (!simgraph) {
      std::cerr << "--replication-port requires --method simgraph "
                   "(docs/replication.md)\n";
      return 2;
    }
    serve::ReplicationFanoutOptions fanout_options;
    fanout_options.port =
        static_cast<uint16_t>(FlagInt(flags, "replication-port", 0));
    fanout_options.max_lag_events =
        FlagInt(flags, "replication-max-lag", 65536);
    fanout_options.ack_stall_timeout_ms =
        FlagInt(flags, "replication-stall-ms", 10000);
    fanout_options.snapshot_path = FlagString(flags, "replication-image");
    if (!fanout_options.snapshot_path.empty()) {
      const StatusOr<store::SnapshotBuildStats> written =
          store::WriteDigraphSnapshot(dataset.follow_graph,
                                      fanout_options.snapshot_path);
      if (!written.ok()) {
        std::cerr << written.status().ToString() << "\n";
        return 1;
      }
    }
    fanout = std::make_unique<serve::ReplicationFanout>(fanout_options);
    options.replication = fanout.get();
  }

  // SimGraph runs the delta-shipping pipeline: one builder recommender,
  // cheap delta-applying shards (docs/ingest.md). A baseline has no
  // delta form, so it serves from one unsharded RecommendationService.
  std::unique_ptr<serve::ShardedService> sharded;
  std::unique_ptr<serve::RecommendationService> single;
  serve::ServingBackend* service = nullptr;
  Status trained;
  phase.Restart();
  if (simgraph) {
    serve::ServingSimGraphOptions simgraph_options;
    simgraph_options.snapshot_refresh_events =
        FlagInt(flags, "refresh-events", 0);
    sharded = std::make_unique<serve::ShardedService>(simgraph_options,
                                                      options);
    trained = sharded->Train(dataset, train_end);
    service = sharded.get();
  } else {
    single = std::make_unique<serve::RecommendationService>(
        std::move(baseline), options.shard_options);
    trained = single->Train(dataset, train_end);
    service = single.get();
  }
  const double train_s = phase.ElapsedSeconds();
  if (!trained.ok()) {
    std::cerr << trained.ToString() << "\n";
    return 1;
  }
  if (fanout != nullptr) {
    // After Train (so the handshake reports the trained graph stats),
    // before Start (so no delta can ship before the fanout listens).
    const Status started = fanout->Start();
    if (!started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
  }
  if (sharded != nullptr) {
    sharded->Start();
  } else {
    single->Start();
  }

  std::unique_ptr<serve::WindowTelemetryPublisher> publisher;
  std::unique_ptr<timeseries::TimeseriesRecorder> recorder;
  if (stats_window_ms > 0) {
    serve::WindowTelemetryOptions telemetry_options;
    telemetry_options.p99_spike_multiplier =
        FlagDouble(flags, "p99-spike-mult", 4.0);
    publisher = std::make_unique<serve::WindowTelemetryPublisher>(
        service, telemetry_options);
    recorder = std::make_unique<timeseries::TimeseriesRecorder>(
        publisher->RecorderOptions(stats_window_ms,
                                   FlagString(flags, "stats-window-ndjson")));
    recorder->Start();
  }

  serve::TcpServer server(service);
  if (recorder != nullptr) server.set_timeseries_recorder(recorder.get());
  const Status started =
      server.Start(static_cast<uint16_t>(FlagInt(flags, "port", 0)));
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  ReportStartup(load_s, train_s, startup.ElapsedSeconds());
  const int32_t num_shards = sharded != nullptr ? sharded->num_shards() : 1;
  std::cout << "serving " << method << " over " << dataset.num_users()
            << " users (" << train_end << " train events, " << num_shards
            << " shard" << (num_shards == 1 ? "" : "s")
            << ", NDJSON + SGRQ binary)\n"
            << "listening on port " << server.port() << std::endl;
  if (fanout != nullptr) {
    std::cout << "replication on port " << fanout->port() << std::endl;
  }

  // Park until the parent closes stdin (the conventional way to stop a
  // child service without signal handling).
  std::string line;
  while (std::getline(std::cin, line)) {
  }

  // Stop the service first so wait_applied clients unblock; the server
  // then answers their final acks before closing. The fanout goes last:
  // its BYE tells replicas the builder is done, after every buffered
  // delta was shipped.
  if (sharded != nullptr) {
    sharded->Stop();
  } else {
    single->Stop();
  }
  server.Stop();
  if (fanout != nullptr) fanout->Stop();
  if (recorder != nullptr) {
    recorder->Stop();
    recorder->Tick();  // close the tail window into the NDJSON stream
  }
  if (flusher != nullptr) flusher->Stop();

  int rc = 0;
  if (!metrics_path.empty()) {
    const Status s = metrics::Registry::Global().WriteJsonFile(metrics_path);
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      rc = 1;
    }
  }
  if (!trace_path.empty()) {
    const Status s = trace::Export(trace_path);
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
