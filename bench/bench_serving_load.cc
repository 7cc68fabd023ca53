// bench_serving_load — in-process load legs for what perfbench does not
// cover: shard scaling, socket-fed replication and minute-scale drift.
//
// End-to-end serving speed (client -> TCP -> router -> shard -> reply,
// every answer checked against a cache-off replica) is measured by
// perfbench (perfbench/README.md) and committed as BENCH_perfbench.json.
// This bench runs the legs that perfbench has no counterpart for; at
// least one mode flag is required, otherwise it prints usage and exits 2:
//
//   --shard-sweep=1,2,4,8  one leg per shard count: the full test-period
//       retweet stream is replayed through a ShardedService while worker
//       threads issue recommendation requests in two phases:
//         1. closed-loop: each worker fires its next request as soon as
//            the previous one returns, concurrently with the event
//            replay — saturation throughput and on-CPU request latency;
//         2. open-loop: workers issue requests on a fixed arrival
//            schedule at ~80% of the measured closed-loop throughput —
//            scheduled-to-completion sojourn time, which includes
//            queueing delay and does not suffer coordinated omission.
//       Each leg reports its ingest cost; two or more counts add the
//       scaling ratios. Any failed request fails the run.
//   --remote-shards=N  a replication leg (docs/replication.md): N remote
//       replicas — each the full simgraph_shard_server stack, fed SGDL
//       frames over a real loopback socket — attach to the builder via
//       ReplicationFanout; the leg replays the test stream and reports
//       events/s to full remote acknowledgement, the drain tail and wire
//       throughput, plus a bit-identity spot check. Combines with
//       --shard-sweep.
//   --soak-seconds=N  a paced minute-scale run emitting a per-window
//       drift series with a clean and a hostile hot-key leg, gated by
//       tools/timeseries_diff.
//
// Environment:
//   SIMGRAPH_BENCH_SERVE_REQUESTS     requests per sweep leg, both phases
//                                     (60000)
//   SIMGRAPH_BENCH_SERVE_GRAPH_IMAGE  path of an SGCS graph image
//                                     (docs/store.md): the bench writes the
//                                     dataset's follow graph there, mmaps
//                                     it back, and serves every leg from
//                                     that ONE pinned image instead of the
//                                     in-RAM Digraph (empty = in-RAM path)
//   SIMGRAPH_BENCH_SERVE_SNAPSHOT     path of the sweep/remote summary
//                                     (BENCH_serving.json shape; empty =
//                                     not written — the bench never
//                                     rewrites an in-tree baseline on its
//                                     own); diff two with tools/metrics_diff
//   SIMGRAPH_BENCH_SOAK_SNAPSHOT      path of the soak series
//                                     (BENCH_soak.json shape; empty = not
//                                     written)
// plus the usual --metrics-json= / --trace-json= flags. Without
// --metrics-json the metrics snapshot is written to
// /tmp/simgraph_serving_load_metrics.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "simgraph/simgraph.h"

namespace simgraph {
namespace {

/// Request-issuing worker threads of every leg.
constexpr int32_t kWorkerThreads = 4;
/// Result-cache TTL in simulated seconds.
constexpr Timestamp kCacheTtl = kSecondsPerDay;
/// Snapshot refresh cadence of the builder, in events.
constexpr int64_t kRefreshEvents = 2000;

struct WorkerTally {
  int64_t requests = 0;
  int64_t failures = 0;
  int64_t degraded = 0;
  int64_t hits = 0;
};

/// One full two-phase run against a fixed shard count.
struct LoadConfig {
  int64_t total_requests = 60000;
  int32_t num_shards = 1;
  /// When set, every leg serves from this one pinned mmap'd graph image
  /// and `dataset_override` (the graph-stripped dataset) replaces
  /// bench::BenchDataset().
  std::shared_ptr<const store::GraphImage> graph_image;
  const Dataset* dataset_override = nullptr;
};

struct LoadResult {
  int32_t num_shards = 1;
  WorkerTally total;
  double hit_rate = 0;
  double closed_throughput = 0;
  double open_throughput = 0;
  double latency_p50_us = 0;
  double latency_p95_us = 0;
  double latency_p99_us = 0;
  double sojourn_p99_us = 0;
  double queue_depth_max = 0;
  double apply_p50_us = 0;
  double apply_p99_us = 0;
  double drain_wait_seconds = 0;
  /// Delta-ingest pipeline stats: one-time build cost on the builder
  /// thread, per-shard replay cost, wire size, and how many events each
  /// shipped delta covered.
  double build_p50_us = 0;
  double build_p99_us = 0;
  double delta_apply_p50_us = 0;
  double delta_apply_p99_us = 0;
  double delta_bytes_p50 = 0;
  double batch_events_mean = 0;
  /// Total ingest CPU per published event, summed over builder + every
  /// shard. Delta-shipping holds it ~flat in the shard count (one build
  /// plus N cheap replays) — the headline number of docs/ingest.md.
  double apply_per_event_us = 0;
};

serve::ServingSimGraphOptions BuilderOptions(const LoadConfig& config) {
  serve::ServingSimGraphOptions rec_options;
  rec_options.graph = bench::BenchSimGraphOptions();
  rec_options.snapshot_refresh_events = kRefreshEvents;
  rec_options.graph_image = config.graph_image;
  return rec_options;
}

std::unique_ptr<serve::ShardedService> MakeService(const LoadConfig& config) {
  serve::ShardedServiceOptions options;
  options.num_shards = config.num_shards;
  options.shard_options.cache_ttl = kCacheTtl;
  return std::make_unique<serve::ShardedService>(BuilderOptions(config),
                                                 options);
}

/// Runs both load phases against a freshly built ShardedService and
/// fills `out` from the (per-run; the caller resets it) metrics
/// registry. Returns non-zero on setup failure.
int RunLoadPhases(const LoadConfig& config, LoadResult* out) {
  const Dataset& dataset = config.dataset_override != nullptr
                               ? *config.dataset_override
                               : bench::BenchDataset();
  const EvalProtocol& protocol = bench::BenchProtocol();

  std::unique_ptr<serve::ShardedService> service_ptr = MakeService(config);
  serve::ShardedService& service = *service_ptr;

  std::cout << "training " << config.num_shards << " shard"
            << (config.num_shards == 1 ? "" : "s") << " (delta ingest) on "
            << protocol.train_end << " events...\n";
  const Status trained = service.Train(dataset, protocol.train_end);
  if (!trained.ok()) {
    std::cerr << trained.ToString() << "\n";
    return 1;
  }
  service.Start();

  const int64_t num_events = dataset.num_retweets() - protocol.train_end;
  const int64_t closed_requests = config.total_requests * 2 / 3;
  const int64_t open_requests = config.total_requests - closed_requests;

  // The simulated "now" tracks the last published event so requests ask
  // about the stream's current edge, like a live system would.
  std::atomic<Timestamp> sim_now{protocol.split_time};
  std::atomic<bool> replay_done{false};
  std::atomic<uint64_t> last_seq{0};

  // --- phase 1: closed loop concurrent with the full event replay -----
  std::thread producer([&] {
    for (int64_t i = protocol.train_end; i < dataset.num_retweets(); ++i) {
      const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
      last_seq.store(service.Publish(e), std::memory_order_relaxed);
      sim_now.store(e.time, std::memory_order_relaxed);
    }
    replay_done.store(true);
  });

  std::vector<WorkerTally> tallies(static_cast<size_t>(kWorkerThreads));
  std::atomic<int64_t> issued{0};
  const auto closed_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    for (int32_t t = 0; t < kWorkerThreads; ++t) {
      workers.emplace_back([&, t] {
        WorkerTally& tally = tallies[static_cast<size_t>(t)];
        Rng rng(0x5eed5 + static_cast<uint64_t>(t));
        while (true) {
          const int64_t i = issued.fetch_add(1);
          // Keep the load generator running until the replay finishes,
          // even past the request budget: the service must stay under
          // fire for the whole stream.
          if (i >= closed_requests && replay_done.load()) break;
          const UserId user =
              protocol.panel[static_cast<size_t>(rng.NextBounded(
                  static_cast<uint64_t>(protocol.panel.size())))];
          const Timestamp now = sim_now.load(std::memory_order_relaxed);
          const serve::RecommendResponse response =
              service.Recommend({user, now, 30});
          ++tally.requests;
          if (!response.status.ok()) ++tally.failures;
          if (response.degraded) ++tally.degraded;
          if (response.cache_hit) ++tally.hits;
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  producer.join();
  const double closed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    closed_start)
          .count();

  int64_t closed_done = 0;
  for (const WorkerTally& tally : tallies) closed_done += tally.requests;
  const double closed_throughput =
      closed_done / std::max(closed_seconds, 1e-9);

  // --- phase 2: open loop at ~80% of measured saturation --------------
  const double open_rate = std::max(1.0, 0.8 * closed_throughput);
  const auto open_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    for (int32_t t = 0; t < kWorkerThreads; ++t) {
      workers.emplace_back([&, t] {
        WorkerTally& tally = tallies[static_cast<size_t>(t)];
        Rng rng(0xfeed5 + static_cast<uint64_t>(t));
        const int64_t mine = open_requests / kWorkerThreads +
                             (t < open_requests % kWorkerThreads ? 1 : 0);
        const double interval_s = kWorkerThreads / open_rate;
        for (int64_t i = 0; i < mine; ++i) {
          // Fixed arrival schedule: sojourn time is measured from the
          // *scheduled* arrival, so a slow service accrues queueing
          // delay instead of silently slowing the generator down.
          const auto scheduled =
              open_start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   (i + static_cast<double>(t) /
                                            kWorkerThreads) *
                                   interval_s));
          std::this_thread::sleep_until(scheduled);
          const UserId user =
              protocol.panel[static_cast<size_t>(rng.NextBounded(
                  static_cast<uint64_t>(protocol.panel.size())))];
          const Timestamp now = sim_now.load(std::memory_order_relaxed);
          const serve::RecommendResponse response =
              service.Recommend({user, now, 30});
          const double sojourn =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - scheduled)
                  .count();
          SIMGRAPH_HISTOGRAM_RECORD("serve.open_loop.sojourn_seconds",
                                    sojourn);
          ++tally.requests;
          if (!response.status.ok()) ++tally.failures;
          if (response.degraded) ++tally.degraded;
          if (response.cache_hit) ++tally.hits;
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const double open_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    open_start)
          .count();
  // The request phases can finish while the applier is still draining
  // the replay burst; waiting here pins the residual ingest lag down as
  // its own number instead of letting it hide inside Stop().
  const auto drain_start = std::chrono::steady_clock::now();
  service.WaitForApplied(last_seq.load(std::memory_order_relaxed));
  const double drain_wait_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_start)
          .count();
  SIMGRAPH_GAUGE_SET("serve.bench.drain_wait_seconds", drain_wait_seconds);
  service.Stop();
  const double open_throughput =
      open_requests / std::max(open_seconds, 1e-9);
  SIMGRAPH_GAUGE_SET("serve.bench.closed_loop_req_per_s", closed_throughput);
  SIMGRAPH_GAUGE_SET("serve.bench.open_loop_req_per_s", open_throughput);

  WorkerTally total;
  for (const WorkerTally& tally : tallies) {
    total.requests += tally.requests;
    total.failures += tally.failures;
    total.degraded += tally.degraded;
    total.hits += tally.hits;
  }
  const double hit_rate =
      total.requests > 0
          ? static_cast<double>(total.hits) / total.requests
          : 0.0;
  SIMGRAPH_GAUGE_SET("serve.cache_hit_rate", hit_rate);

  auto& registry = metrics::Registry::Global();
  const auto& request_latency = registry.histogram("serve.request.seconds");
  const auto& sojourn = registry.histogram("serve.open_loop.sojourn_seconds");
  const auto& apply_latency =
      registry.histogram("serve.ingest.apply_seconds");
  const auto& delta_build = registry.histogram("serve.ingest.delta.build_us");
  const auto& delta_apply = registry.histogram("serve.ingest.delta.apply_us");
  const auto& delta_bytes = registry.histogram("serve.ingest.delta.bytes");
  const auto& delta_batch =
      registry.histogram("serve.ingest.delta.batch_events");

  TableWriter table("Serving load (" + std::to_string(config.num_shards) +
                    " shards, delta ingest, " + std::to_string(kWorkerThreads) +
                    " workers, " + std::to_string(num_events) +
                    " events replayed)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"requests", TableWriter::Cell(total.requests)});
  table.AddRow({"failed", TableWriter::Cell(total.failures)});
  table.AddRow({"degraded", TableWriter::Cell(total.degraded)});
  table.AddRow({"cache hit rate", TableWriter::Cell(hit_rate)});
  table.AddRow({"closed-loop req/s", TableWriter::Cell(closed_throughput)});
  table.AddRow({"open-loop req/s", TableWriter::Cell(open_throughput)});
  table.AddRow(
      {"latency p50 (ms)", TableWriter::Cell(request_latency.p50() * 1e3)});
  table.AddRow(
      {"latency p95 (ms)", TableWriter::Cell(request_latency.p95() * 1e3)});
  table.AddRow(
      {"latency p99 (ms)", TableWriter::Cell(request_latency.p99() * 1e3)});
  table.AddRow({"sojourn p99 (ms)", TableWriter::Cell(sojourn.p99() * 1e3)});
  table.AddRow(
      {"apply p50 (ms)", TableWriter::Cell(apply_latency.p50() * 1e3)});
  table.AddRow(
      {"apply p99 (ms)", TableWriter::Cell(apply_latency.p99() * 1e3)});
  table.AddRow({"delta build p50 (us)", TableWriter::Cell(delta_build.p50())});
  table.AddRow({"delta bytes p50", TableWriter::Cell(delta_bytes.p50())});
  table.AddRow({"delta batch mean",
                TableWriter::Cell(delta_batch.count() > 0
                                      ? delta_batch.sum() / delta_batch.count()
                                      : 0.0)});
  table.AddRow({"drain wait (s)", TableWriter::Cell(drain_wait_seconds)});
  table.Print(std::cout);

  const auto us = [](double seconds) { return seconds * 1e6; };
  out->num_shards = config.num_shards;
  out->total = total;
  out->hit_rate = hit_rate;
  out->closed_throughput = closed_throughput;
  out->open_throughput = open_throughput;
  out->latency_p50_us = us(request_latency.p50());
  out->latency_p95_us = us(request_latency.p95());
  out->latency_p99_us = us(request_latency.p99());
  out->sojourn_p99_us = us(sojourn.p99());
  out->queue_depth_max =
      registry.gauge("serve.ingest.queue_depth_max").value();
  out->apply_p50_us = us(apply_latency.p50());
  out->apply_p99_us = us(apply_latency.p99());
  out->drain_wait_seconds = drain_wait_seconds;
  // The delta histograms already record microseconds (and bytes/counts),
  // so no unit conversion here.
  out->build_p50_us = delta_build.p50();
  out->build_p99_us = delta_build.p99();
  out->delta_apply_p50_us = delta_apply.p50();
  out->delta_apply_p99_us = delta_apply.p99();
  out->delta_bytes_p50 = delta_bytes.p50();
  out->batch_events_mean =
      delta_batch.count() > 0 ? delta_batch.sum() / delta_batch.count() : 0.0;
  // apply_seconds sums every shard's replay work, build_us the builder's
  // one-time update — together the system's ingest cost per event.
  const double total_apply_us = apply_latency.sum() * 1e6 + delta_build.sum();
  out->apply_per_event_us =
      num_events > 0 ? total_apply_us / static_cast<double>(num_events) : 0.0;
  return 0;
}

// --- remote replica leg: replication fan-out over real sockets ---------
//
// Attaches N in-process remote replicas — each the stack that
// tools/simgraph_shard_server runs (a ReplicationClient pumping SGDL
// frames from a real loopback socket into its own RecommendationService),
// minus the process boundary — to a builder ShardedService through a
// ReplicationFanout, replays the whole test stream flat-out, and stops
// the clock only when every remote replica has ACKed the last event. A
// post-drain spot check asserts a replica answers bit-identically to
// the builder; mismatches count as request failures and fail the run.
struct RemoteLegResult {
  int32_t replicas = 0;
  int64_t events = 0;
  double events_per_s = 0;      ///< publish-to-remote-ack throughput
  double drain_seconds = 0;     ///< tail after the last Publish returned
  double wire_mb = 0;           ///< SGDL bytes shipped, summed over replicas
  double wire_mb_per_s = 0;
  int64_t deltas_sent = 0;
  int64_t degraded = 0;
  int64_t check_failures = 0;
};

int RunRemoteLeg(const LoadConfig& config, int32_t num_remote,
                 RemoteLegResult* out) {
  // Same per-leg registry epoch discipline as the other legs.
  metrics::Registry::Global().Reset();
  const Dataset& dataset = config.dataset_override != nullptr
                               ? *config.dataset_override
                               : bench::BenchDataset();
  const EvalProtocol& protocol = bench::BenchProtocol();

  serve::ReplicationFanout fanout;
  if (const Status started = fanout.Start(); !started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }

  serve::ShardedServiceOptions options;
  options.num_shards = config.num_shards;
  options.shard_options.cache_ttl = kCacheTtl;
  options.replication = &fanout;
  serve::ShardedService service(BuilderOptions(config), options);
  std::cout << "remote leg: training builder (" << config.num_shards
            << " local shard" << (config.num_shards == 1 ? "" : "s")
            << ") + " << num_remote << " socket-fed replicas...\n";
  if (const Status trained = service.Train(dataset, protocol.train_end);
      !trained.ok()) {
    std::cerr << trained.ToString() << "\n";
    return 1;
  }
  service.Start();

  struct Replica {
    std::unique_ptr<serve::ReplicationClient> client;
    std::unique_ptr<serve::RecommendationService> service;
  };
  std::vector<Replica> replicas(static_cast<size_t>(num_remote));
  for (int32_t i = 0; i < num_remote; ++i) {
    Replica& replica = replicas[static_cast<size_t>(i)];
    serve::ReplicationClientOptions client_options;
    client_options.port = fanout.port();
    client_options.name = "bench-replica-" + std::to_string(i);
    replica.client =
        std::make_unique<serve::ReplicationClient>(client_options);
    serve::ReplicationBootstrap bootstrap;
    if (const Status connected =
            replica.client->Connect(/*applied_seq=*/0, &bootstrap);
        !connected.ok()) {
      std::cerr << connected.ToString() << "\n";
      return 1;
    }
    auto applier = std::make_unique<serve::DeltaApplierRecommender>();
    serve::DeltaApplierRecommender* applier_ptr = applier.get();
    serve::ServiceOptions service_options;
    service_options.cache_ttl = kCacheTtl;
    replica.service = std::make_unique<serve::RecommendationService>(
        std::move(applier), service_options);
    if (const Status trained =
            replica.service->Train(dataset, protocol.train_end);
        !trained.ok()) {
      std::cerr << trained.ToString() << "\n";
      return 1;
    }
    applier_ptr->SeedRemoteGraphStats(bootstrap.graph_epoch,
                                      bootstrap.graph_edges);
    replica.service->Start();
    replica.client->Start(replica.service.get());
  }
  if (!fanout.WaitForReplicas(num_remote, std::chrono::seconds(10))) {
    std::cerr << "remote leg: replicas failed to register\n";
    return 1;
  }

  const int64_t num_events = dataset.num_retweets() - protocol.train_end;
  const auto replay_start = std::chrono::steady_clock::now();
  uint64_t last_seq = 0;
  for (int64_t i = protocol.train_end; i < dataset.num_retweets(); ++i) {
    last_seq = service.Publish(dataset.retweets[static_cast<size_t>(i)]);
  }
  const auto publish_end = std::chrono::steady_clock::now();
  // Waits on local shards AND every remote replica's acks.
  service.WaitForApplied(last_seq);
  const auto acked_end = std::chrono::steady_clock::now();
  const double total_seconds =
      std::chrono::duration<double>(acked_end - replay_start).count();
  const double drain_seconds =
      std::chrono::duration<double>(acked_end - publish_end).count();

  // Spot check: a socket-fed replica must answer exactly like the
  // builder it mirrors (the full claim is tests/serve/replication_test).
  const Timestamp now = dataset.retweets.back().time;
  int64_t check_failures = 0;
  const size_t check_users = std::min<size_t>(protocol.panel.size(), 32);
  for (size_t i = 0; i < check_users; ++i) {
    const UserId user = protocol.panel[i];
    const serve::RecommendResponse local = service.Recommend({user, now, 30});
    const serve::RecommendResponse remote =
        replicas.front().service->Recommend({user, now, 30});
    bool same = local.status.ok() && remote.status.ok() &&
                local.tweets.size() == remote.tweets.size();
    for (size_t j = 0; same && j < local.tweets.size(); ++j) {
      same = local.tweets[j].tweet == remote.tweets[j].tweet &&
             local.tweets[j].score == remote.tweets[j].score;
    }
    if (!same) ++check_failures;
  }
  if (check_failures > 0) {
    std::cerr << "remote leg: " << check_failures << "/" << check_users
              << " spot-checked users diverged from the builder\n";
  }

  auto& registry = metrics::Registry::Global();
  const double wire_bytes = static_cast<double>(
      registry.counter("serve.replication.bytes_sent").value());
  out->replicas = num_remote;
  out->events = num_events;
  out->events_per_s = num_events / std::max(total_seconds, 1e-9);
  out->drain_seconds = drain_seconds;
  out->wire_mb = wire_bytes / 1e6;
  out->wire_mb_per_s = out->wire_mb / std::max(total_seconds, 1e-9);
  out->deltas_sent =
      registry.counter("serve.replication.deltas_sent").value();
  out->degraded = fanout.num_degraded();
  out->check_failures = check_failures;

  // The client first (its ack thread waits on its service), then the
  // replica service; the builder drains before the fanout closes.
  for (Replica& replica : replicas) {
    replica.client->Stop();
    replica.service->Stop();
  }
  service.Stop();
  fanout.Stop();

  TableWriter table("Remote replication leg (" + std::to_string(num_remote) +
                    " socket-fed replicas, " + std::to_string(num_events) +
                    " events)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"events/s to remote ack", TableWriter::Cell(out->events_per_s)});
  table.AddRow({"drain tail (s)", TableWriter::Cell(out->drain_seconds)});
  table.AddRow({"wire MB shipped", TableWriter::Cell(out->wire_mb)});
  table.AddRow({"wire MB/s", TableWriter::Cell(out->wire_mb_per_s)});
  table.AddRow({"deltas sent", TableWriter::Cell(out->deltas_sent)});
  table.AddRow({"degraded replicas", TableWriter::Cell(out->degraded)});
  table.AddRow({"spot-check divergences", TableWriter::Cell(check_failures)});
  table.Print(std::cout);
  return 0;
}

std::vector<int32_t> ParseShardSweep(const std::string& spec) {
  std::vector<int32_t> counts;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const int32_t n = static_cast<int32_t>(std::stoll(item));
    if (n >= 1) counts.push_back(n);
  }
  return counts;
}

void WriteLegJson(std::ostream& out, const LoadResult& leg,
                  const std::string& indent) {
  out << indent << "\"requests\": " << leg.total.requests << ",\n"
      << indent << "\"degraded\": " << leg.total.degraded << ",\n"
      << indent << "\"hit_rate\": " << leg.hit_rate << ",\n"
      << indent << "\"closed_loop\": {\"req_per_s\": "
      << leg.closed_throughput << "},\n"
      << indent << "\"open_loop\": {\"req_per_s\": " << leg.open_throughput
      << "},\n"
      << indent << "\"latency_us\": {\"p50\": " << leg.latency_p50_us
      << ", \"p95\": " << leg.latency_p95_us
      << ", \"p99\": " << leg.latency_p99_us << "},\n"
      << indent << "\"sojourn_us\": {\"p99\": " << leg.sojourn_p99_us
      << "},\n"
      << indent << "\"ingest\": {\"apply_us\": {\"p50\": "
      << leg.apply_p50_us << ", \"p99\": " << leg.apply_p99_us
      // delta_mode is always 1 (delta shipping is the only ingest path);
      // the key stays so committed baselines keep their shape.
      << "}, \"delta_mode\": 1, \"build_us\": {\"p50\": " << leg.build_p50_us
      << ", \"p99\": " << leg.build_p99_us
      << "}, \"delta\": {\"apply_us_p50\": " << leg.delta_apply_p50_us
      << ", \"apply_us_p99\": " << leg.delta_apply_p99_us
      << ", \"bytes_p50\": " << leg.delta_bytes_p50
      << ", \"batch_events_mean\": " << leg.batch_events_mean
      // Flattens to ingest.apply_latency_us.mean: "latency" + ".mean"
      // makes it a lower-is-better gate in tools/metrics_diff.
      << "}, \"apply_latency_us\": {\"mean\": " << leg.apply_per_event_us
      << "}, \"drain_seconds\": " << leg.drain_wait_seconds << "},\n"
      << indent << "\"queue_depth_max\": " << leg.queue_depth_max;
}

// --- soak mode: minute-scale drift series with a hostile hot-key leg ---
//
// `--soak-seconds=N` runs a paced soak instead of the saturation legs: an
// open-loop request schedule plus a paced event replay run for N wall
// seconds, with a TimeseriesRecorder closing one telemetry window per
// kSoakWindowMs. Two legs run back to back:
//
//   clean  — uniform panel requests the whole run: the steady-state
//            reference series;
//   hotkey — the middle third of the run degenerates into hot-key skew
//            against the ResultCache (ROADMAP "hostile workloads"):
//            requests concentrate on kSoakHotUsers hot
//            panel users while the producer publishes a burst of events
//            authored by those same users, so their cache rows are
//            invalidated as fast as they are refilled — a per-window
//            hit-rate collapse and p99 excursion that cumulative
//            since-start metrics would average away.
//
// The per-window series plus a post-warmup summary per leg is written to
// SIMGRAPH_BENCH_SOAK_SNAPSHOT (BENCH_soak.json); tools/timeseries_diff
// gates its shape (clean leg must pass, hotkey leg must trip).
constexpr int64_t kSoakWindowMs = 1000;
constexpr double kSoakReqPerS = 2000;
constexpr double kSoakEventsPerS = 200;
constexpr int32_t kSoakHotUsers = 4;
/// Simulated seconds per wall second for the synthetic event clock.
constexpr double kSoakTimeScale = 60;

struct SoakParams {
  int64_t soak_seconds = 0;
  std::string snapshot_path;
};

struct SoakWindowRow {
  double t_s = 0;
  double requests = 0;
  double hit_rate = 0;
  double degraded_rate = 0;
  double p99_us = 0;
  double apply_p99_us = 0;
  double lag_events = 0;
};

struct SoakLegResult {
  std::string name;
  std::vector<SoakWindowRow> rows;
  int64_t warmup = 0;        ///< leading windows excluded from the summary
  int64_t post_windows = 0;  ///< windows the summary covers
  double requests_total = 0;
  double hit_rate_mean = 0;
  double hit_rate_min = 0;
  /// Largest fall of hit rate below its running post-warmup peak. A
  /// warming cache has a tiny drawdown even though mean-minus-min is
  /// large; a mid-run collapse (the hot-key storm) has a large one.
  double hit_rate_drawdown = 0;
  double hit_rate_slope = 0;  ///< least-squares, per window
  double degraded_max = 0;
  double p99_steady = 0;  ///< median post-warmup window p99 (us)
  double p99_max = 0;
  double p99_ratio = 0;       ///< p99_max / p99_steady
  double apply_p99_max = 0;   ///< worst per-window ingest-apply p99 (us)
  double lag_events_max = 0;  ///< worst per-window ingest backlog
};

int RunSoakLeg(const LoadConfig& config, const SoakParams& soak,
               bool hostile, SoakLegResult* out) {
  // Each leg reads per-window registry deltas, so it gets a clean epoch.
  metrics::Registry::Global().Reset();
  const Dataset& dataset = config.dataset_override != nullptr
                               ? *config.dataset_override
                               : bench::BenchDataset();
  const EvalProtocol& protocol = bench::BenchProtocol();

  std::unique_ptr<serve::ShardedService> service_ptr = MakeService(config);
  serve::ShardedService& service = *service_ptr;
  std::cout << "soak leg \"" << out->name << "\": training "
            << config.num_shards << " shard"
            << (config.num_shards == 1 ? "" : "s") << "...\n";
  const Status trained = service.Train(dataset, protocol.train_end);
  if (!trained.ok()) {
    std::cerr << trained.ToString() << "\n";
    return 1;
  }
  service.Start();

  serve::WindowTelemetryPublisher publisher(&service);
  timeseries::TimeseriesRecorder::Options rec_options =
      publisher.RecorderOptions(kSoakWindowMs);
  rec_options.ring_capacity = static_cast<int32_t>(
      soak.soak_seconds * 1000 / kSoakWindowMs + 16);
  timeseries::TimeseriesRecorder recorder(rec_options);
  recorder.Start();

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(soak.soak_seconds);
  const auto hostile_begin = start + (deadline - start) / 3;
  const auto hostile_end = start + 2 * ((deadline - start) / 3);
  const auto in_hostile =
      [&](std::chrono::steady_clock::time_point now) {
        return hostile && now >= hostile_begin && now < hostile_end;
      };

  std::vector<UserId> hot;
  for (size_t i = 0;
       i < std::min<size_t>(static_cast<size_t>(kSoakHotUsers),
                            protocol.panel.size());
       ++i) {
    hot.push_back(protocol.panel[i]);
  }

  std::atomic<Timestamp> sim_now{protocol.split_time};
  std::atomic<uint64_t> last_seq{0};
  std::atomic<int64_t> failures{0};

  // Paced event replay, cycling the test stream forever. Event times are
  // re-stamped onto a synthetic simulated clock advancing `time_scale`
  // simulated seconds per wall second: replaying raw event times at this
  // pace would compress months of simulated time into seconds and
  // TTL-expire every cache row many times per window, drowning the
  // series in churn that no real deployment would see. The hostile phase
  // publishes a 10x burst authored by the hot users, so propagation
  // keeps invalidating cache rows across the hot keys' whole similarity
  // neighborhood.
  std::thread producer([&] {
    const int64_t first = protocol.train_end;
    const int64_t count = dataset.num_retweets() - first;
    if (count <= 0) return;
    auto next = std::chrono::steady_clock::now();
    for (int64_t i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
      RetweetEvent e = dataset.retweets[static_cast<size_t>(first + i % count)];
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      e.time = protocol.split_time +
               static_cast<Timestamp>(elapsed_s * kSoakTimeScale);
      const bool hot_phase = in_hostile(std::chrono::steady_clock::now());
      if (hot_phase && !hot.empty()) {
        e.user = hot[static_cast<size_t>(i) % hot.size()];
      }
      last_seq.store(service.Publish(e), std::memory_order_relaxed);
      sim_now.store(e.time, std::memory_order_relaxed);
      const double rate =
          hot_phase ? kSoakEventsPerS * 10 : kSoakEventsPerS;
      next += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / std::max(rate, 1.0)));
      std::this_thread::sleep_until(next);
    }
  });

  // Open-loop paced workers (sojourn-style schedule): the request rate
  // is held constant across phases, so per-window hit rate and p99 are
  // comparable window to window — the whole point of the drift series.
  std::vector<std::thread> workers;
  for (int32_t t = 0; t < kWorkerThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x50a7 + static_cast<uint64_t>(t));
      const double interval_s = kWorkerThreads / kSoakReqPerS;
      auto next =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(t / kSoakReqPerS));
      while (std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_until(next);
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(interval_s));
        const bool hot_phase = in_hostile(std::chrono::steady_clock::now());
        // Hostile mix: half the requests hammer the hot keys, half keep
        // sampling the panel — so the storm's collateral invalidation of
        // panel rows shows up in the same windows as the skew itself.
        const bool pick_hot =
            hot_phase && !hot.empty() && rng.NextBounded(2) == 0;
        const UserId user =
            pick_hot
                ? hot[static_cast<size_t>(rng.NextBounded(hot.size()))]
                : protocol.panel[static_cast<size_t>(rng.NextBounded(
                      static_cast<uint64_t>(protocol.panel.size())))];
        const serve::RecommendResponse response =
            service.Recommend({user, sim_now.load(std::memory_order_relaxed),
                               30});
        if (!response.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  producer.join();
  // Stop the recorder before draining the ingest backlog: the drain can
  // take seconds after a burst, and its request-free windows are not
  // part of the soak. No final Tick either — the partial tail window
  // would skew the per-window rates, so the series ends on the last
  // full window.
  recorder.Stop();
  service.WaitForApplied(last_seq.load(std::memory_order_relaxed));
  service.Stop();

  const std::vector<timeseries::TimeseriesRecorder::Record> records =
      recorder.Recent(rec_options.ring_capacity);
  double t_s = 0;
  for (const auto& rec : records) {
    SoakWindowRow row;
    t_s += rec.dt_s;
    row.t_s = t_s;
    const auto gauge = [&rec](const char* name) {
      const auto it = rec.gauges.find(name);
      return it == rec.gauges.end() ? 0.0 : it->second;
    };
    row.requests = gauge("serve.window.requests");
    row.hit_rate = gauge("serve.window.hit_rate");
    row.degraded_rate = gauge("serve.window.degraded_rate");
    row.apply_p99_us = gauge("serve.window.apply_p99_us");
    row.lag_events = gauge("serve.window.lag_events");
    const auto hist = rec.histograms.find("serve.request.seconds");
    if (hist != rec.histograms.end() && hist->second.count > 0) {
      row.p99_us = hist->second.p99 * 1e6;
    }
    out->rows.push_back(row);
  }

  const int64_t n = static_cast<int64_t>(out->rows.size());
  out->warmup = std::min(n, std::max<int64_t>(3, n / 5));
  out->post_windows = n - out->warmup;
  if (out->post_windows <= 0) {
    std::cerr << "soak leg \"" << out->name << "\": only " << n
              << " windows — too short to summarize\n";
    return 1;
  }
  // Windows without a single request (an overloaded run's stalls) carry
  // no rate information; they stay in the series but not the summary.
  std::vector<double> p99s;
  std::vector<double> hits;
  double hit_sum = 0;
  double hit_peak = 0;
  out->hit_rate_min = 1.0;
  for (int64_t i = out->warmup; i < n; ++i) {
    const SoakWindowRow& row = out->rows[static_cast<size_t>(i)];
    if (row.requests <= 0) continue;
    out->requests_total += row.requests;
    hit_sum += row.hit_rate;
    hits.push_back(row.hit_rate);
    hit_peak = std::max(hit_peak, row.hit_rate);
    out->hit_rate_drawdown =
        std::max(out->hit_rate_drawdown, hit_peak - row.hit_rate);
    out->hit_rate_min = std::min(out->hit_rate_min, row.hit_rate);
    out->degraded_max = std::max(out->degraded_max, row.degraded_rate);
    out->p99_max = std::max(out->p99_max, row.p99_us);
    out->apply_p99_max = std::max(out->apply_p99_max, row.apply_p99_us);
    out->lag_events_max = std::max(out->lag_events_max, row.lag_events);
    p99s.push_back(row.p99_us);
  }
  out->post_windows = static_cast<int64_t>(p99s.size());
  if (out->post_windows <= 0) {
    std::cerr << "soak leg \"" << out->name
              << "\": no post-warmup windows saw requests\n";
    return 1;
  }
  const double m = static_cast<double>(out->post_windows);
  out->hit_rate_mean = hit_sum / m;
  // Least-squares slope of hit rate over the post-warmup window index —
  // a steady leak shows up here even when no single window collapses.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < hits.size(); ++i) {
    const double x = static_cast<double>(i);
    const double y = hits[i];
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = m * sxx - sx * sx;
  out->hit_rate_slope = denom > 0 ? (m * sxy - sx * sy) / denom : 0.0;
  std::nth_element(p99s.begin(), p99s.begin() + p99s.size() / 2, p99s.end());
  out->p99_steady = p99s[p99s.size() / 2];
  out->p99_ratio =
      out->p99_steady > 0 ? out->p99_max / out->p99_steady : 0.0;

  TableWriter table("Soak leg \"" + out->name + "\" (" +
                    std::to_string(n) + " windows, " +
                    std::to_string(out->warmup) + " warmup)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"requests", TableWriter::Cell(out->requests_total)});
  table.AddRow({"hit rate mean", TableWriter::Cell(out->hit_rate_mean)});
  table.AddRow({"hit rate min", TableWriter::Cell(out->hit_rate_min)});
  table.AddRow({"hit rate drawdown",
                TableWriter::Cell(out->hit_rate_drawdown)});
  table.AddRow({"hit rate slope/window",
                TableWriter::Cell(out->hit_rate_slope)});
  table.AddRow({"degraded rate max", TableWriter::Cell(out->degraded_max)});
  table.AddRow({"p99 steady (us)", TableWriter::Cell(out->p99_steady)});
  table.AddRow({"p99 max (us)", TableWriter::Cell(out->p99_max)});
  table.AddRow({"p99 max/steady", TableWriter::Cell(out->p99_ratio)});
  table.AddRow({"apply p99 max (us)", TableWriter::Cell(out->apply_p99_max)});
  table.AddRow({"lag events max", TableWriter::Cell(out->lag_events_max)});
  table.Print(std::cout);

  return failures.load() > 0 ? 1 : 0;
}

void WriteSoakLegJson(std::ostream& snapshot, const SoakLegResult& leg) {
  snapshot << "    \"" << leg.name << "\": {\n"
           << "      \"warmup_windows\": " << leg.warmup << ",\n"
           << "      \"summary\": {\n"
           << "        \"windows\": " << leg.post_windows << ",\n"
           << "        \"requests\": " << leg.requests_total << ",\n"
           << "        \"hit_rate_mean\": " << leg.hit_rate_mean << ",\n"
           << "        \"hit_rate_min\": " << leg.hit_rate_min << ",\n"
           << "        \"hit_rate_max_drawdown\": " << leg.hit_rate_drawdown
           << ",\n"
           << "        \"hit_rate_slope_per_window\": " << leg.hit_rate_slope
           << ",\n"
           << "        \"degraded_rate_max\": " << leg.degraded_max << ",\n"
           << "        \"p99_us\": {\"steady\": " << leg.p99_steady
           << ", \"max\": " << leg.p99_max
           << ", \"max_over_steady\": " << leg.p99_ratio << "},\n"
           << "        \"apply_p99_us_max\": " << leg.apply_p99_max << ",\n"
           << "        \"lag_events_max\": " << leg.lag_events_max << "\n"
           << "      },\n"
           << "      \"windows\": [\n";
  for (size_t i = 0; i < leg.rows.size(); ++i) {
    const SoakWindowRow& row = leg.rows[i];
    snapshot << "        {\"t_s\": " << row.t_s
             << ", \"requests\": " << row.requests
             << ", \"hit_rate\": " << row.hit_rate
             << ", \"degraded_rate\": " << row.degraded_rate
             << ", \"p99_us\": " << row.p99_us
             << ", \"apply_p99_us\": " << row.apply_p99_us
             << ", \"lag_events\": " << row.lag_events << "}"
             << (i + 1 < leg.rows.size() ? "," : "") << "\n";
  }
  snapshot << "      ]\n    }";
}

int RunSoak(const LoadConfig& config, const SoakParams& soak) {
  // The flight recorder needs per-request stage timings even though
  // tracing is off for the run.
  trace::SetForceStageCollection(true);
  SoakLegResult clean;
  clean.name = "clean";
  if (const int rc = RunSoakLeg(config, soak, /*hostile=*/false, &clean);
      rc != 0) {
    return rc;
  }
  SoakLegResult hotkey;
  hotkey.name = "hotkey";
  if (const int rc = RunSoakLeg(config, soak, /*hostile=*/true, &hotkey);
      rc != 0) {
    return rc;
  }

  if (!soak.snapshot_path.empty()) {
    std::ofstream snapshot(soak.snapshot_path);
    if (!snapshot) {
      std::cerr << "cannot write " << soak.snapshot_path << "\n";
      return 1;
    }
    snapshot << "{\n"
             << "  \"bench\": \"serving_soak\",\n"
             << "  \"soak_seconds\": " << soak.soak_seconds << ",\n"
             << "  \"window_ms\": " << kSoakWindowMs << ",\n"
             << "  \"num_shards\": " << config.num_shards << ",\n"
             << "  \"req_per_s\": " << kSoakReqPerS << ",\n"
             << "  \"events_per_s\": " << kSoakEventsPerS << ",\n"
             << "  \"hot_users\": " << kSoakHotUsers << ",\n"
             << "  \"legs\": {\n";
    WriteSoakLegJson(snapshot, clean);
    snapshot << ",\n";
    WriteSoakLegJson(snapshot, hotkey);
    snapshot << "\n  }\n}\n";
    std::cout << "soak snapshot written to " << soak.snapshot_path << "\n";
  }
  return 0;
}

int Usage() {
  std::cerr << "usage: bench_serving_load [--shard-sweep=N[,N...]] "
               "[--remote-shards=N] | --soak-seconds=N\n"
               "  (at least one mode; end-to-end serving speed is "
               "perfbench's, see perfbench/README.md)\n";
  return 2;
}

int Run(int argc, char** argv) {
  const bench::ObservabilityGuard observability(argc, argv);
  // This bench reports through the metrics registry, so collection is
  // always on here regardless of SIMGRAPH_METRICS.
  metrics::SetEnabled(true);

  std::string sweep_spec;
  int32_t remote_shards = 0;
  SoakParams soak;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--shard-sweep=";
    if (arg.rfind(prefix, 0) == 0) sweep_spec = arg.substr(prefix.size());
    const std::string soak_prefix = "--soak-seconds=";
    if (arg.rfind(soak_prefix, 0) == 0) {
      soak.soak_seconds = std::stoll(arg.substr(soak_prefix.size()));
    }
    const std::string remote_prefix = "--remote-shards=";
    if (arg.rfind(remote_prefix, 0) == 0) {
      remote_shards = static_cast<int32_t>(
          std::max<int64_t>(0, std::stoll(arg.substr(remote_prefix.size()))));
    }
  }
  const std::vector<int32_t> shard_counts = ParseShardSweep(sweep_spec);
  if (soak.soak_seconds <= 0 && shard_counts.empty() && remote_shards <= 0) {
    return Usage();
  }

  LoadConfig config;
  config.total_requests =
      std::max<int64_t>(1, GetEnvInt64("SIMGRAPH_BENCH_SERVE_REQUESTS", 60000));
  const std::string snapshot_path =
      GetEnvString("SIMGRAPH_BENCH_SERVE_SNAPSHOT", "");
  soak.snapshot_path = GetEnvString("SIMGRAPH_BENCH_SOAK_SNAPSHOT", "");

  // Graph-image mode: snapshot the bench follow graph once, mmap it
  // back, and hand every leg the same pinned image plus a dataset that
  // carries no in-RAM graph at all.
  const std::string image_path =
      GetEnvString("SIMGRAPH_BENCH_SERVE_GRAPH_IMAGE", "");
  Dataset image_dataset;
  if (!image_path.empty()) {
    const Dataset& dataset = bench::BenchDataset();
    const StatusOr<store::SnapshotBuildStats> written =
        store::WriteDigraphSnapshot(dataset.follow_graph, image_path);
    if (!written.ok()) {
      std::cerr << written.status().ToString() << "\n";
      return 1;
    }
    const StatusOr<std::shared_ptr<const store::GraphImage>> image =
        store::GraphImage::Load(image_path);
    if (!image.ok()) {
      std::cerr << image.status().ToString() << "\n";
      return 1;
    }
    config.graph_image = *image;
    image_dataset.tweets = dataset.tweets;
    image_dataset.retweets = dataset.retweets;
    image_dataset.num_users_hint = dataset.num_users();
    config.dataset_override = &image_dataset;
    std::cout << "serving from graph image " << image_path << " ("
              << (*image)->file_bytes() << " bytes mapped)\n";
  }

  if (soak.soak_seconds > 0) {
    bench::PrintPreamble("serving soak");
    return RunSoak(config, soak);
  }
  bench::PrintPreamble("serving load");

  std::vector<LoadResult> legs;
  for (const int32_t shards : shard_counts) {
    // Each leg reads its own percentiles, so the shared registry must
    // start clean (values are zeroed; instruments stay registered).
    metrics::Registry::Global().Reset();
    LoadConfig leg_config = config;
    leg_config.num_shards = shards;
    LoadResult result;
    if (const int rc = RunLoadPhases(leg_config, &result); rc != 0) {
      return rc;
    }
    legs.push_back(result);
  }

  const bool scaling = legs.size() > 1;
  if (scaling) {
    // Scaling relative to the first (fewest-shard) leg. The metric names
    // carry the better-direction for tools/metrics_diff: throughput
    // speedup is higher-better, the p99 latency ratio lower-better.
    const LoadResult& base = legs.front();
    const LoadResult& top = legs.back();
    const double speedup =
        top.closed_throughput / std::max(base.closed_throughput, 1e-9);
    const double latency_ratio =
        top.latency_p99_us / std::max(base.latency_p99_us, 1e-9);
    // This ratio must stay ~1: per-event ingest cost is one build plus
    // cheap replays, not one full update per shard, so it does not grow
    // with the shard count.
    const double apply_ratio =
        top.apply_per_event_us / std::max(base.apply_per_event_us, 1e-9);
    SIMGRAPH_GAUGE_SET("serve.bench.scaling_speedup_throughput", speedup);
    SIMGRAPH_GAUGE_SET("serve.bench.scaling_ingest_apply_ratio", apply_ratio);
    TableWriter table("Shard sweep scaling (vs " +
                      std::to_string(base.num_shards) + " shard baseline)");
    table.SetHeader({"shards", "closed req/s", "speedup", "p99 (us)"});
    for (const LoadResult& leg : legs) {
      table.AddRow({TableWriter::Cell(static_cast<int64_t>(leg.num_shards)),
                    TableWriter::Cell(leg.closed_throughput),
                    TableWriter::Cell(leg.closed_throughput /
                                      std::max(base.closed_throughput, 1e-9)),
                    TableWriter::Cell(leg.latency_p99_us)});
    }
    table.Print(std::cout);
    std::cout << "scaling: " << top.num_shards << " shards reach " << speedup
              << "x closed-loop throughput, " << latency_ratio
              << "x p99 latency, " << apply_ratio
              << "x per-event ingest cost of the " << base.num_shards
              << "-shard baseline\n";
  }

  RemoteLegResult remote;
  const bool has_remote = remote_shards > 0;
  if (has_remote) {
    if (const int rc = RunRemoteLeg(config, remote_shards, &remote);
        rc != 0) {
      return rc;
    }
  }

  int64_t failures = 0;
  for (const LoadResult& leg : legs) failures += leg.total.failures;
  if (has_remote) failures += remote.check_failures;

  if (!snapshot_path.empty()) {
    // Machine-readable summary for tools/metrics_diff: numeric leaves
    // flatten to e.g. shard_sweep.s4.closed_loop.req_per_s and
    // shard_sweep.s4.latency_us.p99, whose names carry the
    // better-direction (see the metrics_diff header): one
    // "shard_sweep.sN" section per leg, the "scaling" ratios when two or
    // more legs ran, and the "remote" leg.
    std::ofstream snapshot(snapshot_path);
    if (!snapshot) {
      std::cerr << "cannot write " << snapshot_path << "\n";
    } else {
      snapshot << "{\n  \"bench\": \"serving_load\"";
      if (!legs.empty()) {
        snapshot << ",\n  \"shard_sweep\": {\n";
        for (size_t i = 0; i < legs.size(); ++i) {
          snapshot << "    \"s" << legs[i].num_shards << "\": {\n";
          WriteLegJson(snapshot, legs[i], "      ");
          snapshot << "\n    }" << (i + 1 < legs.size() ? "," : "") << "\n";
        }
        snapshot << "  }";
      }
      if (scaling) {
        const LoadResult& base = legs.front();
        const LoadResult& top = legs.back();
        snapshot << ",\n  \"scaling\": {\n"
                 << "    \"shards\": " << top.num_shards << ",\n"
                 << "    \"closed_loop_speedup_throughput\": "
                 << top.closed_throughput /
                        std::max(base.closed_throughput, 1e-9)
                 << ",\n"
                 << "    \"latency_ratio_p99\": "
                 << top.latency_p99_us / std::max(base.latency_p99_us, 1e-9)
                 << ",\n"
                 // Flattens to scaling.ingest_apply_latency_ratio.mean —
                 // lower-is-better in tools/metrics_diff: the gate that
                 // proves per-event ingest cost stopped growing with the
                 // shard count.
                 << "    \"ingest_apply_latency_ratio\": {\"mean\": "
                 << top.apply_per_event_us /
                        std::max(base.apply_per_event_us, 1e-9)
                 << "}\n  }";
      }
      if (has_remote) {
        // events_per_s / wire_mb_per_s flatten to higher-is-better gates
        // in tools/metrics_diff; the rest is informational.
        snapshot << ",\n  \"remote\": {\n"
                 << "    \"replicas\": " << remote.replicas << ",\n"
                 << "    \"events\": " << remote.events << ",\n"
                 << "    \"events_per_s\": " << remote.events_per_s << ",\n"
                 << "    \"drain_seconds\": " << remote.drain_seconds
                 << ",\n"
                 << "    \"wire_mb\": " << remote.wire_mb << ",\n"
                 << "    \"wire_mb_per_s\": " << remote.wire_mb_per_s
                 << ",\n"
                 << "    \"deltas_sent\": " << remote.deltas_sent << ",\n"
                 << "    \"degraded\": " << remote.degraded << "\n  }";
      }
      snapshot << "\n}\n";
      std::cout << "bench snapshot written to " << snapshot_path << "\n";
    }
  }
  if (observability.metrics_path().empty()) {
    const std::string fallback = "/tmp/simgraph_serving_load_metrics.json";
    const Status written =
        metrics::Registry::Global().WriteJsonFile(fallback);
    if (written.ok()) {
      std::cout << "metrics written to " << fallback << "\n";
    } else {
      std::cerr << written.ToString() << "\n";
    }
  }
  if (failures > 0) {
    std::cerr << failures << " requests failed\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace simgraph

int main(int argc, char** argv) { return simgraph::Run(argc, argv); }
