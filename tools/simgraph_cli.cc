// simgraph_cli — command-line front end to the library.
//
//   simgraph_cli generate --out DIR [--users N] [--tweets N] [--seed S]
//       Generate a synthetic microblogging trace and save it to DIR.
//
//   simgraph_cli stats --data DIR
//       Print dataset statistics (Table 1 / Figures 2-4 style).
//
//   simgraph_cli build --data DIR [--tau T] [--out FILE]
//       Build the SimGraph from the full trace; optionally save the
//       weighted edge list to FILE.
//
//   simgraph_cli recommend --data DIR --user U [--k K] [--train F]
//       Train on the oldest F (default 0.9) of retweets, stream the rest,
//       and print user U's final top-k.
//
//   simgraph_cli evaluate --data DIR [--k K] [--train F]
//       Run the four-method comparison under the paper's protocol.
//
//   simgraph_cli snapshot-write --data DIR --out FILE [--no-in 1]
//       Serialize DIR's follow graph into an mmap-able SGCS snapshot
//       (docs/store.md). --no-in 1 drops the in-adjacency sections.
//
//   simgraph_cli snapshot-generate --out FILE [--users N] [--seed S]
//       [--threads T]
//       Stream a synthetic follow graph straight into an SGCS snapshot
//       with the bounded-memory multi-threaded generator — the only
//       path that reaches millions of users.
//
//   simgraph_cli snapshot-info --snapshot FILE [--verify-adjacency 1]
//       Validate FILE and dump its header, section table and checksums.
//
// Every command additionally accepts the observability flags
// (docs/observability.md):
//   --metrics-json PATH   enable the metrics registry; dump the JSON
//                         snapshot to PATH before exiting.
//   --trace-json PATH     enable trace spans; export Chrome trace JSON
//                         (loadable in chrome://tracing) to PATH.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "simgraph/simgraph.h"

namespace simgraph {
namespace {

// Minimal --flag value parser: flags["users"] = "6000".
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
    }
  }
  return flags;
}

int64_t FlagInt(const std::map<std::string, std::string>& flags,
                const std::string& name, int64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return std::stoll(it->second);
}

double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& name, double fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return std::stod(it->second);
}

std::string FlagString(const std::map<std::string, std::string>& flags,
                       const std::string& name,
                       const std::string& fallback = "") {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagString(flags, "out");
  if (out.empty()) {
    std::cerr << "generate requires --out DIR (must exist)\n";
    return 2;
  }
  DatasetConfig config = DefaultConfig();
  config.num_users = FlagInt(flags, "users", config.num_users);
  config.num_tweets = FlagInt(flags, "tweets", config.num_tweets);
  config.seed = static_cast<uint64_t>(
      FlagInt(flags, "seed", static_cast<int64_t>(config.seed)));
  const Dataset dataset = GenerateDataset(config);
  const Status saved = SaveDataset(dataset, out);
  if (!saved.ok()) {
    std::cerr << saved.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << dataset.num_users() << " users, "
            << dataset.follow_graph.num_edges() << " edges, "
            << dataset.num_tweets() << " tweets, " << dataset.num_retweets()
            << " retweets to " << out << "\n";
  return 0;
}

StatusOr<Dataset> LoadFromFlags(
    const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagString(flags, "data");
  if (dir.empty()) return Status::InvalidArgument("missing --data DIR");
  return LoadDataset(dir);
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  StatusOr<Dataset> dataset = LoadFromFlags(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  const Dataset& d = *dataset;
  PathStatsOptions popts;
  popts.num_sources = 64;
  const GraphSummary s = Summarize(d.follow_graph, popts);
  TableWriter table("Dataset statistics");
  table.SetHeader({"feature", "value"});
  table.AddRow({"users", TableWriter::Cell(s.num_nodes)});
  table.AddRow({"follow edges", TableWriter::Cell(s.num_edges)});
  table.AddRow({"tweets", TableWriter::Cell(d.num_tweets())});
  table.AddRow({"retweets", TableWriter::Cell(d.num_retweets())});
  table.AddRow({"avg out-degree", TableWriter::Cell(s.avg_out_degree)});
  table.AddRow({"max in-degree", TableWriter::Cell(s.max_in_degree)});
  table.AddRow({"diameter (est)", TableWriter::Cell(int64_t{s.diameter_estimate})});
  table.AddRow({"avg path length", TableWriter::Cell(s.avg_path_length)});
  table.AddRow({"never retweeted", TableWriter::Cell(FractionNeverRetweeted(d))});
  table.AddRow(
      {"dead within 72h", TableWriter::Cell(FractionDeadWithinHours(d, 72))});
  table.Print(std::cout);
  return 0;
}

int CmdBuild(const std::map<std::string, std::string>& flags) {
  StatusOr<Dataset> dataset = LoadFromFlags(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  SimGraphOptions opts;
  opts.tau = FlagDouble(flags, "tau", opts.tau);
  ProfileStore profiles(*dataset, dataset->num_retweets());
  WallTimer timer;
  const SimGraph sg =
      BuildSimGraph(dataset->follow_graph, profiles, opts);
  std::cout << "SimGraph: " << sg.NumPresentNodes() << " present users, "
            << sg.graph.num_edges() << " edges, mean similarity "
            << TableWriter::Cell(sg.MeanSimilarity()) << ", built in "
            << FormatDuration(timer.ElapsedSeconds()) << "\n";
  const std::string out = FlagString(flags, "out");
  if (!out.empty()) {
    const Status saved = WriteEdgeList(sg.graph, out);
    if (!saved.ok()) {
      std::cerr << saved.ToString() << "\n";
      return 1;
    }
    std::cout << "edge list written to " << out << "\n";
  }
  return 0;
}

int CmdRecommend(const std::map<std::string, std::string>& flags) {
  StatusOr<Dataset> dataset = LoadFromFlags(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  const UserId user = static_cast<UserId>(FlagInt(flags, "user", -1));
  if (user < 0 || user >= dataset->num_users()) {
    std::cerr << "recommend requires --user U in [0, "
              << dataset->num_users() << ")\n";
    return 2;
  }
  const int32_t k = static_cast<int32_t>(FlagInt(flags, "k", 10));
  const double train_fraction = FlagDouble(flags, "train", 0.9);
  serve::ServingSimGraphOptions ropts;
  ropts.cold_start_fallback = true;
  serve::SimGraphServingRecommender rec(ropts);
  const int64_t train_end = dataset->SplitIndex(train_fraction);
  const Status trained = rec.Train(*dataset, train_end);
  if (!trained.ok()) {
    std::cerr << trained.ToString() << "\n";
    return 1;
  }
  for (int64_t i = train_end; i < dataset->num_retweets(); ++i) {
    rec.Observe(dataset->retweets[static_cast<size_t>(i)]);
  }
  const auto recs = rec.Recommend(user, dataset->EndTime(), k);
  std::cout << "top-" << k << " for user " << user
            << (rec.IsColdUser(user) ? " (cold-start fallback)" : "")
            << ":\n";
  if (recs.empty()) std::cout << "  (no fresh candidates)\n";
  for (const ScoredTweet& st : recs) {
    const Tweet& t = dataset->tweets[static_cast<size_t>(st.tweet)];
    std::cout << "  tweet#" << st.tweet << " by user " << t.author
              << " (topic " << t.topic << ", score "
              << TableWriter::Cell(st.score) << ")\n";
  }
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  StatusOr<Dataset> dataset = LoadFromFlags(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  ProtocolOptions popts;
  popts.train_fraction = FlagDouble(flags, "train", 0.9);
  const EvalProtocol protocol = MakeProtocol(*dataset, popts);
  HarnessOptions hopts;
  hopts.k = static_cast<int32_t>(FlagInt(flags, "k", 30));

  std::vector<std::unique_ptr<Recommender>> methods;
  methods.push_back(std::make_unique<serve::SimGraphServingRecommender>());
  methods.push_back(std::make_unique<CfRecommender>());
  methods.push_back(std::make_unique<GraphJetRecommender>());
  methods.push_back(std::make_unique<BayesRecommender>());
  TableWriter table("Evaluation at k = " + std::to_string(hopts.k));
  table.SetHeader({"method", "hits", "precision", "recall", "F1", "total time"});
  for (auto& method : methods) {
    const EvalResult r = RunEvaluation(*dataset, protocol, *method, hopts);
    table.AddRow({r.method, TableWriter::Cell(r.hits_total),
                  TableWriter::Cell(r.precision),
                  TableWriter::Cell(r.recall), TableWriter::Cell(r.f1),
                  FormatDuration(r.train_seconds + r.observe_seconds +
                                 r.recommend_seconds)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdSnapshotWrite(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagString(flags, "out");
  if (out.empty()) {
    std::cerr << "snapshot-write requires --out FILE\n";
    return 2;
  }
  StatusOr<Dataset> dataset = LoadFromFlags(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  store::SnapshotWriterOptions options;
  options.include_in_adjacency = FlagInt(flags, "no-in", 0) == 0;
  const StatusOr<store::SnapshotBuildStats> stats =
      store::WriteDigraphSnapshot(dataset->follow_graph, out, options);
  if (!stats.ok()) {
    std::cerr << stats.status().ToString() << "\n";
    return 1;
  }
  std::cout << "wrote snapshot " << out << ": " << stats->num_nodes
            << " nodes, " << stats->num_edges << " edges, "
            << stats->file_bytes << " bytes in "
            << FormatDuration(stats->build_seconds) << "\n";
  return 0;
}

int CmdSnapshotGenerate(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagString(flags, "out");
  if (out.empty()) {
    std::cerr << "snapshot-generate requires --out FILE\n";
    return 2;
  }
  DatasetConfig config = DefaultConfig();
  config.num_users = FlagInt(flags, "users", config.num_users);
  config.seed = static_cast<uint64_t>(
      FlagInt(flags, "seed", static_cast<int64_t>(config.seed)));
  StreamingGraphOptions options;
  options.num_threads = static_cast<int>(FlagInt(flags, "threads", 0));
  const StatusOr<StreamingGraphStats> stats =
      StreamSocialGraphSnapshot(config, out, options);
  if (!stats.ok()) {
    std::cerr << stats.status().ToString() << "\n";
    return 1;
  }
  std::cout << "streamed snapshot " << out << ": " << stats->num_users
            << " users, " << stats->num_edges << " edges ("
            << stats->reciprocal_edges << " reciprocal), "
            << stats->file_bytes << " bytes in "
            << FormatDuration(stats->generate_seconds) << "\n";
  return 0;
}

int CmdSnapshotInfo(const std::map<std::string, std::string>& flags) {
  const std::string path = FlagString(flags, "snapshot");
  if (path.empty()) {
    std::cerr << "snapshot-info requires --snapshot FILE\n";
    return 2;
  }
  store::SnapshotOpenOptions options;
  options.verify_adjacency = FlagInt(flags, "verify-adjacency", 0) != 0;
  const StatusOr<std::shared_ptr<const store::MappedSnapshot>> snapshot =
      store::MappedSnapshot::Open(path, options);
  if (!snapshot.ok()) {
    std::cerr << snapshot.status().ToString() << "\n";
    return 1;
  }
  const store::MappedSnapshot& s = **snapshot;
  TableWriter header("SGCS snapshot " + path);
  header.SetHeader({"field", "value"});
  header.AddRow({"format version",
                 TableWriter::Cell(int64_t{s.header().version})});
  header.AddRow({"nodes", TableWriter::Cell(s.num_nodes())});
  header.AddRow({"edges", TableWriter::Cell(s.num_edges())});
  header.AddRow({"tweets", TableWriter::Cell(s.num_tweets())});
  header.AddRow(
      {"file bytes", TableWriter::Cell(static_cast<int64_t>(s.file_bytes()))});
  header.AddRow({"in-adjacency", s.has_in() ? "yes" : "no"});
  header.AddRow({"weighted", s.weighted() ? "yes" : "no"});
  header.AddRow({"profiles", s.has_profiles() ? "yes" : "no"});
  header.AddRow({"adjacency verified", options.verify_adjacency ? "yes" : "no"});
  header.Print(std::cout);

  TableWriter sections("Sections");
  sections.SetHeader({"section", "offset", "bytes", "checksum"});
  for (const store::MappedSnapshot::SectionInfo& info : s.Sections()) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(info.checksum));
    sections.AddRow({std::string(info.name),
                     TableWriter::Cell(static_cast<int64_t>(info.offset)),
                     TableWriter::Cell(static_cast<int64_t>(info.bytes)),
                     checksum});
  }
  sections.Print(std::cout);
  return 0;
}

int Usage() {
  std::cerr
      << "usage: simgraph_cli <generate|stats|build|recommend|evaluate|"
         "snapshot-write|snapshot-generate|snapshot-info> "
         "[--flag value ...]\n"
         "see the header of tools/simgraph_cli.cc for details\n";
  return 2;
}

int Dispatch(const std::string& command,
             const std::map<std::string, std::string>& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "recommend") return CmdRecommend(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "snapshot-write") return CmdSnapshotWrite(flags);
  if (command == "snapshot-generate") return CmdSnapshotGenerate(flags);
  if (command == "snapshot-info") return CmdSnapshotInfo(flags);
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);

  const std::string metrics_path = FlagString(flags, "metrics-json");
  const std::string trace_path = FlagString(flags, "trace-json");
  if (!metrics_path.empty()) metrics::SetEnabled(true);
  if (!trace_path.empty()) trace::SetEnabled(true);

  int rc = Dispatch(command, flags);

  if (!metrics_path.empty()) {
    const Status s = metrics::Registry::Global().WriteJsonFile(metrics_path);
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      if (rc == 0) rc = 1;
    }
  }
  if (!trace_path.empty()) {
    const Status s = trace::Export(trace_path);
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace simgraph

int main(int argc, char** argv) { return simgraph::Run(argc, argv); }
