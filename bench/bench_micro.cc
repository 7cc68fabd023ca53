// Micro-benchmarks (google-benchmark): the hot kernels of the system.
//
//   BM_Bfs*, BM_TwoHop* - graph-library traversal (BFS distances, N2(u))
//   BM_Similarity*     - Definition 3.1 on profile pairs / batched
//   BM_SimGraphBuild*  - full SimGraph construction, both candidate modes
//                        (the DESIGN.md ablation 3 cost comparison)
//   BM_Propagation     - Algorithm 1 on a live SimGraph
//   BM_Solver*         - Jacobi / Gauss-Seidel / SOR on a propagation system
//   BM_LoadDataset     - text load of a generated dataset (LoadDataset:
//                        one read per file, in-place parse, Validate)
//   BM_Snapshot*       - SGCS store (docs/store.md): serialize the follow
//                        graph, mmap+validate it back, per-node varint
//                        decode, and full rematerialization
//
// Propagation kernel sweep (seeds x fan-out, plus one SimGraph build leg
// per fan-out), gated on an env var in the same explicit-only convention
// as the serving snapshot:
//
//   SIMGRAPH_BENCH_PROP_SNAPSHOT  path of a machine-readable JSON summary
//                                 of the sweep (runs/s, updates/s,
//                                 ns/update, mean latency per leg;
//                                 builds/s, mean build latency and
//                                 edges per build leg) for
//                                 tools/metrics_diff; unset = no sweep
//   SIMGRAPH_BENCH_PROP_SECONDS   measured wall-time per sweep leg (0.25)
//
// The sweep runs before the google-benchmark suite; pass
// --benchmark_filter=^$ to run only the sweep.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <iostream>

#include "simgraph/simgraph.h"

namespace simgraph {
namespace {

DatasetConfig MicroConfig() {
  DatasetConfig c = TinyConfig();
  c.num_users = 2000;
  c.num_tweets = 16000;
  c.horizon_days = 60;
  c.base_retweet_prob = 0.8;
  return c;
}

const Dataset& MicroDataset() {
  static const Dataset* d = new Dataset(GenerateDataset(MicroConfig()));
  return *d;
}

const ProfileStore& MicroProfiles() {
  static const ProfileStore* p =
      new ProfileStore(MicroDataset(), MicroDataset().num_retweets());
  return *p;
}

const SimGraph& MicroSimGraph() {
  static const SimGraph* sg = [] {
    SimGraphOptions opts;
    opts.tau = 0.002;
    return new SimGraph(
        BuildSimGraph(MicroDataset().follow_graph, MicroProfiles(), opts));
  }();
  return *sg;
}

void BM_BfsFullGraph(benchmark::State& state) {
  const Digraph& g = MicroDataset().follow_graph;
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BfsDistances(g, src, TraversalDirection::kOut));
    src = (src + 97) % g.num_nodes();
  }
}
BENCHMARK(BM_BfsFullGraph);

void BM_TwoHopNeighborhood(benchmark::State& state) {
  const Digraph& g = MicroDataset().follow_graph;
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KHopNeighborhood(g, src, 2, TraversalDirection::kOut));
    src = (src + 97) % g.num_nodes();
  }
}
BENCHMARK(BM_TwoHopNeighborhood);

void BM_SimilarityPair(benchmark::State& state) {
  const ProfileStore& p = MicroProfiles();
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Similarity(u, (u + 13) % p.num_users()));
    u = (u + 7) % p.num_users();
  }
}
BENCHMARK(BM_SimilarityPair);

void BM_SimilarityBatch(benchmark::State& state) {
  const ProfileStore& p = MicroProfiles();
  SimilarityScratch scratch;
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.SimilaritiesOf(u, scratch));
    u = (u + 7) % p.num_users();
  }
}
BENCHMARK(BM_SimilarityBatch);

void BM_SimGraphBuild(benchmark::State& state) {
  SimGraphOptions opts;
  opts.tau = 0.002;
  opts.mode = state.range(0) == 0 ? CandidateMode::kTwoHopBfs
                                  : CandidateMode::kInvertedIndex;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildSimGraph(MicroDataset().follow_graph, MicroProfiles(), opts));
  }
  state.SetLabel(state.range(0) == 0 ? "two-hop-bfs" : "inverted-index");
}
BENCHMARK(BM_SimGraphBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Propagation(benchmark::State& state) {
  const SimGraph& sg = MicroSimGraph();
  Propagator propagator(sg);
  // Seeds: a few present users.
  std::vector<UserId> seeds;
  for (NodeId u = 0; u < sg.graph.num_nodes() && seeds.size() < 5; ++u) {
    if (sg.graph.InDegree(u) > 0) seeds.push_back(u);
  }
  PropagationOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        propagator.Propagate(seeds, static_cast<int64_t>(seeds.size()), opts));
  }
}
BENCHMARK(BM_Propagation);

void BM_Solver(benchmark::State& state) {
  const SimGraph& sg = MicroSimGraph();
  std::vector<UserId> seeds;
  for (NodeId u = 0; u < sg.graph.num_nodes() && seeds.size() < 5; ++u) {
    if (sg.graph.InDegree(u) > 0) seeds.push_back(u);
  }
  std::vector<UserId> users;
  std::vector<double> b;
  const SparseMatrix a = BuildPropagationSystem(sg, seeds, &users, &b);
  SolverOptions opts;
  opts.method = static_cast<SolverMethod>(state.range(0));
  opts.tolerance = 1e-10;
  opts.max_iterations = 10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAllowDivergence(a, b, opts));
  }
  state.SetLabel(std::string(SolverMethodName(opts.method)));
}
BENCHMARK(BM_Solver)->Arg(0)->Arg(1)->Arg(2);

const std::string& MicroSnapshotPath() {
  static const std::string* path = [] {
    auto* p = new std::string("/tmp/simgraph_bench_micro.sgcs");
    const StatusOr<store::SnapshotBuildStats> written =
        store::WriteDigraphSnapshot(MicroDataset().follow_graph, *p);
    SIMGRAPH_CHECK(written.ok()) << written.status().ToString();
    return p;
  }();
  return *path;
}

// The text dataset the servers load at start-up (SaveDataset's three
// files), written once per process.
const std::string& MicroDatasetDir() {
  static const std::string* dir = [] {
    auto* d = new std::string("/tmp/simgraph_bench_micro_dataset");
    std::filesystem::create_directories(*d);
    const Status saved = SaveDataset(MicroDataset(), *d);
    SIMGRAPH_CHECK(saved.ok()) << saved.ToString();
    return d;
  }();
  return *dir;
}

void BM_LoadDataset(benchmark::State& state) {
  const std::string& dir = MicroDatasetDir();
  int64_t bytes = 0;
  for (const char* file : {"/graph.txt", "/tweets.txt", "/retweets.txt"}) {
    bytes += static_cast<int64_t>(std::filesystem::file_size(dir + file));
  }
  for (auto _ : state) {
    StatusOr<Dataset> loaded = LoadDataset(dir);
    SIMGRAPH_CHECK(loaded.ok()) << loaded.status().ToString();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_LoadDataset)->Unit(benchmark::kMillisecond);

void BM_SnapshotWrite(benchmark::State& state) {
  const Digraph& g = MicroDataset().follow_graph;
  const std::string path = "/tmp/simgraph_bench_micro_write.sgcs";
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::WriteDigraphSnapshot(g, path));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotWrite)->Unit(benchmark::kMillisecond);

void BM_SnapshotOpenValidated(benchmark::State& state) {
  const std::string& path = MicroSnapshotPath();
  store::SnapshotOpenOptions options;  // checksums verified, the default
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::MappedSnapshot::Open(path, options));
  }
}
BENCHMARK(BM_SnapshotOpenValidated);

void BM_SnapshotDecodeNode(benchmark::State& state) {
  const StatusOr<std::shared_ptr<const store::MappedSnapshot>> snapshot =
      store::MappedSnapshot::Open(MicroSnapshotPath());
  SIMGRAPH_CHECK(snapshot.ok()) << snapshot.status().ToString();
  std::vector<NodeId> scratch;
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*snapshot)->OutNeighbors(u, &scratch));
    u = (u + 97) % (*snapshot)->num_nodes();
  }
}
BENCHMARK(BM_SnapshotDecodeNode);

void BM_SnapshotMaterialize(benchmark::State& state) {
  const StatusOr<std::shared_ptr<const store::MappedSnapshot>> snapshot =
      store::MappedSnapshot::Open(MicroSnapshotPath());
  SIMGRAPH_CHECK(snapshot.ok()) << snapshot.status().ToString();
  for (auto _ : state) {
    benchmark::DoNotOptimize((*snapshot)->Materialize());
  }
}
BENCHMARK(BM_SnapshotMaterialize)->Unit(benchmark::kMillisecond);

void BM_CandidateStoreTopK(benchmark::State& state) {
  const Dataset& d = MicroDataset();
  std::vector<Timestamp> times;
  for (const Tweet& t : d.tweets) times.push_back(t.time);
  CandidateStore store(d.num_users(), std::move(times),
                       72 * kSecondsPerHour);
  Rng rng(3);
  const Timestamp now = d.EndTime();
  for (int i = 0; i < 20000; ++i) {
    store.Deposit(static_cast<UserId>(rng.NextBounded(
                      static_cast<uint64_t>(d.num_users()))),
                  static_cast<TweetId>(rng.NextBounded(
                      static_cast<uint64_t>(d.num_tweets()))),
                  rng.NextDouble());
  }
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TopK(u, now, 30));
    u = (u + 1) % d.num_users();
  }
}
BENCHMARK(BM_CandidateStoreTopK);

}  // namespace

// One measured leg of the propagation sweep.
struct PropagationLegResult {
  std::string name;
  double runs_per_s = 0.0;
  double updates_per_s = 0.0;
  double ns_per_update = 0.0;
  double mean_latency_us = 0.0;
  double mean_iterations = 0.0;
  double mean_updates = 0.0;
};

namespace {

// Measures PropagateInto over `num_seeds`-sized seed sets on `sg`,
// rotating through 16 deterministic seed sets so the numbers are not an
// artefact of one lucky frontier. The scratch/result pair is reused, so
// this measures the allocation-free steady state of the serving path.
PropagationLegResult RunPropagationLeg(const std::string& name,
                                       const SimGraph& sg, int32_t num_seeds,
                                       double measure_seconds) {
  PropagationLegResult leg;
  leg.name = name;

  std::vector<UserId> present;
  for (NodeId u = 0; u < sg.graph.num_nodes(); ++u) {
    if (sg.graph.InDegree(u) > 0) present.push_back(u);
  }
  if (present.empty()) return leg;

  constexpr int kNumSets = 16;
  std::vector<std::vector<UserId>> seed_sets(kNumSets);
  for (int i = 0; i < kNumSets; ++i) {
    for (int32_t j = 0; j < num_seeds; ++j) {
      seed_sets[static_cast<size_t>(i)].push_back(
          present[static_cast<size_t>(i * num_seeds + j * 7) %
                  present.size()]);
    }
  }

  Propagator prop(sg);
  const PropagationOptions opts;
  PropagationScratch scratch;
  PropagationResult result;
  for (const auto& seeds : seed_sets) {  // warm the scratch
    prop.PropagateInto(seeds, static_cast<int64_t>(seeds.size()), opts,
                       scratch, &result);
  }

  int64_t runs = 0, updates = 0, iterations = 0;
  WallTimer timer;
  double elapsed = 0.0;
  while (elapsed < measure_seconds) {
    for (const auto& seeds : seed_sets) {
      prop.PropagateInto(seeds, static_cast<int64_t>(seeds.size()), opts,
                         scratch, &result);
      ++runs;
      updates += result.updates;
      iterations += result.iterations;
    }
    elapsed = timer.ElapsedSeconds();
  }

  const double n_runs = static_cast<double>(runs);
  leg.runs_per_s = n_runs / elapsed;
  leg.updates_per_s = static_cast<double>(updates) / elapsed;
  leg.ns_per_update =
      updates > 0 ? elapsed * 1e9 / static_cast<double>(updates) : 0.0;
  leg.mean_latency_us = elapsed * 1e6 / n_runs;
  leg.mean_iterations = static_cast<double>(iterations) / n_runs;
  leg.mean_updates = static_cast<double>(updates) / n_runs;
  return leg;
}

// One measured SimGraph build leg of the sweep.
struct BuildLegResult {
  std::string name;
  double builds_per_s = 0.0;
  double mean_latency_us = 0.0;
  int64_t edges = 0;
};

// Times back-to-back BuildSimGraph calls (default candidate mode) on the
// micro dataset, so a slower candidate kernel shows up as fewer builds/s
// and a higher mean latency (the leaf a 2.0 threshold can trip).
BuildLegResult RunBuildLeg(const std::string& name,
                           const SimGraphOptions& opts,
                           double measure_seconds) {
  // Each build logs one Info line; keep the sweep output readable.
  const LogLevel saved =
      internal_logging::SetMinLogLevel(LogLevel::kWarning);
  BuildLegResult leg;
  leg.name = name;
  int64_t builds = 0;
  WallTimer timer;
  double elapsed = 0.0;
  do {
    leg.edges =
        BuildSimGraph(MicroDataset().follow_graph, MicroProfiles(), opts)
            .graph.num_edges();
    ++builds;
    elapsed = timer.ElapsedSeconds();
  } while (elapsed < measure_seconds);
  internal_logging::SetMinLogLevel(saved);
  leg.builds_per_s = static_cast<double>(builds) / elapsed;
  leg.mean_latency_us = elapsed * 1e6 / static_cast<double>(builds);
  return leg;
}

}  // namespace

// Seeds x fan-out sweep of the propagation kernel, plus one SimGraph build
// leg per fan-out, written as JSON for tools/metrics_diff. Fan-out varies
// via tau: the micro graph at tau=0.002 ("fanhi") is ~4x denser than at
// tau=0.008 ("fanlo").
int RunPropagationSweep(const std::string& snapshot_path) {
  const double measure_seconds =
      std::max(0.01, GetEnvDouble("SIMGRAPH_BENCH_PROP_SECONDS", 0.25));

  struct GraphSpec {
    const char* label;
    double tau;
  };
  const GraphSpec graph_specs[] = {{"fanhi", 0.002}, {"fanlo", 0.008}};
  const int32_t seed_counts[] = {1, 4, 16, 64};

  std::vector<PropagationLegResult> legs;
  std::vector<BuildLegResult> build_legs;
  std::cout << "propagation kernel sweep (" << measure_seconds
            << " s/leg)\n";
  for (const GraphSpec& spec : graph_specs) {
    SimGraphOptions opts;
    opts.tau = spec.tau;
    BuildLegResult build = RunBuildLeg(
        std::string("build_") + spec.label, opts, measure_seconds);
    std::cout << "  " << build.name << ": " << build.builds_per_s
              << " builds/s, " << build.edges << " edges\n";
    build_legs.push_back(std::move(build));
    const SimGraph sg =
        BuildSimGraph(MicroDataset().follow_graph, MicroProfiles(), opts);
    for (const int32_t seeds : seed_counts) {
      PropagationLegResult leg = RunPropagationLeg(
          std::string(spec.label) + "_seeds" + std::to_string(seeds), sg,
          seeds, measure_seconds);
      std::cout << "  " << leg.name << ": " << leg.runs_per_s << " runs/s, "
                << leg.ns_per_update << " ns/update, "
                << leg.mean_latency_us << " us/run\n";
      legs.push_back(std::move(leg));
    }
  }

  std::ofstream snapshot(snapshot_path);
  if (!snapshot) {
    std::cerr << "cannot write " << snapshot_path << "\n";
    return 1;
  }
  // Leaf names carry the better-direction for tools/metrics_diff:
  // *_per_s is higher-better, latency_us.mean lower-better, the rest
  // neutral shape descriptors. Only the latency leaf can trip a threshold
  // of 2.0 or more: a higher-better metric cannot drop by more than 100%.
  snapshot << "{\n  \"bench\": \"propagation_micro\",\n  \"legs\": {\n";
  for (size_t i = 0; i < legs.size(); ++i) {
    const PropagationLegResult& leg = legs[i];
    snapshot << "    \"" << leg.name << "\": {\n"
             << "      \"runs_per_s\": " << leg.runs_per_s << ",\n"
             << "      \"updates_per_s\": " << leg.updates_per_s << ",\n"
             << "      \"ns_per_update\": " << leg.ns_per_update << ",\n"
             << "      \"latency_us\": {\"mean\": " << leg.mean_latency_us
             << "},\n"
             << "      \"iterations_per_run\": " << leg.mean_iterations
             << ",\n"
             << "      \"updates_per_run\": " << leg.mean_updates << "\n"
             << "    },\n";
  }
  for (size_t i = 0; i < build_legs.size(); ++i) {
    const BuildLegResult& leg = build_legs[i];
    snapshot << "    \"" << leg.name << "\": {\"builds_per_s\": "
             << leg.builds_per_s << ", \"latency_us\": {\"mean\": "
             << leg.mean_latency_us << "}, \"edges\": " << leg.edges << "}"
             << (i + 1 < build_legs.size() ? "," : "") << "\n";
  }
  snapshot << "  }\n}\n";
  std::cout << "propagation sweep snapshot written to " << snapshot_path
            << "\n";
  return 0;
}

}  // namespace simgraph

int main(int argc, char** argv) {
  const std::string prop_snapshot =
      simgraph::GetEnvString("SIMGRAPH_BENCH_PROP_SNAPSHOT", "");
  if (!prop_snapshot.empty()) {
    if (const int rc = simgraph::RunPropagationSweep(prop_snapshot); rc != 0) {
      return rc;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
