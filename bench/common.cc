#include "bench/common.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

namespace simgraph {
namespace bench {
namespace {

std::string CacheDir() {
  return GetEnvString("SIMGRAPH_BENCH_CACHE", "/tmp/simgraph_bench");
}

// A key identifying everything that affects the sweep results.
std::string ConfigKey(const DatasetConfig& c) {
  std::ostringstream key;
  key << "v8_u" << c.num_users << "_t" << c.num_tweets << "_h"
      << c.horizon_days << "_s" << c.seed << "_b" << c.base_retweet_prob
      << "_hl" << c.freshness_halflife_hours;
  for (int32_t k : KGrid()) key << "_k" << k;
  return key.str();
}

std::string SweepCachePath() {
  return CacheDir() + "/sweep_" + ConfigKey(BenchConfig()) + ".txt";
}

bool LoadSweeps(const std::string& path, std::vector<MethodSweep>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::vector<MethodSweep> sweeps;
  std::string tag;
  while (in >> tag) {
    if (tag == "METHOD") {
      MethodSweep sweep;
      if (!(in >> sweep.method)) return false;
      sweeps.push_back(std::move(sweep));
    } else if (tag == "K") {
      if (sweeps.empty()) return false;
      EvalResult r;
      r.method = sweeps.back().method;
      int64_t num_hits = 0;
      if (!(in >> r.k >> r.hits_total >> r.hits_low >> r.hits_moderate >>
            r.hits_intensive >> r.recommendations_issued >>
            r.distinct_recommendations >> r.avg_recs_per_day_user >>
            r.avg_hit_popularity >> r.precision >> r.recall >> r.f1 >>
            r.avg_advance_seconds >> r.panel_test_retweets >>
            r.train_seconds >> r.observe_seconds >> r.recommend_seconds >>
            r.num_test_events >> r.num_recommend_calls >> num_hits)) {
        return false;
      }
      r.hits.resize(static_cast<size_t>(num_hits));
      for (Hit& h : r.hits) {
        int64_t user = 0;
        if (!(in >> user >> h.tweet >> h.recommended_at >> h.retweeted_at)) {
          return false;
        }
        h.user = static_cast<UserId>(user);
      }
      sweeps.back().per_k.push_back(std::move(r));
    } else {
      return false;
    }
  }
  if (sweeps.empty()) return false;
  *out = std::move(sweeps);
  return true;
}

void SaveSweeps(const std::string& path,
                const std::vector<MethodSweep>& sweeps) {
  std::error_code ec;
  std::filesystem::create_directories(CacheDir(), ec);
  std::ofstream out(path);
  if (!out) return;  // cache is best-effort
  out.precision(17);
  for (const MethodSweep& sweep : sweeps) {
    out << "METHOD " << sweep.method << "\n";
    for (const EvalResult& r : sweep.per_k) {
      out << "K " << r.k << " " << r.hits_total << " " << r.hits_low << " "
          << r.hits_moderate << " " << r.hits_intensive << " "
          << r.recommendations_issued << " " << r.distinct_recommendations
          << " " << r.avg_recs_per_day_user << " " << r.avg_hit_popularity
          << " " << r.precision << " " << r.recall << " " << r.f1 << " "
          << r.avg_advance_seconds << " " << r.panel_test_retweets << " "
          << r.train_seconds << " " << r.observe_seconds << " "
          << r.recommend_seconds << " " << r.num_test_events << " "
          << r.num_recommend_calls << " " << r.hits.size() << "\n";
      for (const Hit& h : r.hits) {
        out << h.user << " " << h.tweet << " " << h.recommended_at << " "
            << h.retweeted_at << "\n";
      }
    }
  }
}

}  // namespace

DatasetConfig BenchConfig() {
  DatasetConfig c;
  c.num_users = GetEnvInt64("SIMGRAPH_BENCH_USERS", 6000);
  c.num_tweets = GetEnvInt64("SIMGRAPH_BENCH_TWEETS",
                             static_cast<int64_t>(c.num_users) * 8);
  c.horizon_days = 120;
  c.base_retweet_prob = 0.6;
  c.max_cascade_size = 5000;
  c.num_communities = 40;
  // Keep the follow graph at a realistic sparsity for this node count:
  // with the full-crawl tail (max 1500) a 6k-node graph collapses to
  // diameter ~3 and cascades go super-critical.
  c.out_degree_alpha = 1.8;
  c.max_out_degree = 300;
  c.seed = static_cast<uint64_t>(GetEnvInt64("SIMGRAPH_BENCH_SEED", 42));
  return c;
}

SimGraphOptions BenchSimGraphOptions() {
  SimGraphOptions o;
  o.tau = 0.002;
  return o;
}

ProtocolOptions BenchProtocolOptions() {
  ProtocolOptions o;
  o.users_per_class = 500;
  o.low_max = 4;
  o.moderate_max = 20;
  return o;
}

std::unique_ptr<Recommender> MakeBenchSimGraph() {
  serve::ServingSimGraphOptions options;
  options.graph = BenchSimGraphOptions();
  // The paper evaluates SimGraph with its propagation thresholds active
  // (Section 6.2 credits the capacity cap to "thresholds during the
  // propagation").
  options.propagation.dynamic.enabled = true;
  // Score floor: propagated probabilities below this are bookkeeping,
  // not recommendations (keeps precision honest without starving hits;
  // see bench_ablation_deposit_floor for the full trade-off curve).
  options.min_deposit_score = 3e-5;
  return std::make_unique<serve::SimGraphServingRecommender>(options);
}

std::vector<int32_t> KGrid() {
  return {10, 20, 30, 40, 60, 80, 120, 160, 200};
}

const Dataset& BenchDataset() {
  static const Dataset* dataset = [] {
    auto* d = new Dataset(GenerateDataset(BenchConfig()));
    return d;
  }();
  return *dataset;
}

const EvalProtocol& BenchProtocol() {
  static const EvalProtocol* protocol = [] {
    return new EvalProtocol(MakeProtocol(BenchDataset(),
                                         BenchProtocolOptions()));
  }();
  return *protocol;
}

const std::vector<MethodSweep>& EvalSweeps() {
  static const std::vector<MethodSweep>* sweeps = [] {
    auto* out = new std::vector<MethodSweep>();
    const std::string cache_path = SweepCachePath();
    // An observability run must execute the real training/propagation
    // work — a cached sweep would produce an empty metrics snapshot —
    // so the cache is only consulted when neither collector is on.
    const bool observing = metrics::Enabled() || trace::Enabled();
    if (observing && !CacheDir().empty()) {
      std::cerr << "[bench] metrics/trace collection on: ignoring any "
                   "cached evaluation sweep\n";
    }
    if (!observing && !CacheDir().empty() && LoadSweeps(cache_path, out)) {
      std::cerr << "[bench] reusing cached evaluation sweep: " << cache_path
                << "\n";
      return out;
    }
    const Dataset& dataset = BenchDataset();
    const EvalProtocol& protocol = BenchProtocol();
    SweepOptions sopts;
    sopts.k_grid = KGrid();

    std::vector<std::unique_ptr<Recommender>> methods;
    methods.push_back(MakeBenchSimGraph());
    CfOptions cf_opts;
    cf_opts.init_mode = CfInitMode::kAllPairs;  // the paper's |V|^2 init
    // The paper's CF keeps every similar user, not a top-M cut — that
    // network-unconstrained pool is what makes its capacity linear in k
    // (Figure 7).
    cf_opts.neighborhood_size = 2000;
    methods.push_back(std::make_unique<CfRecommender>(cf_opts));
    GraphJetOptions gj_opts;
    gj_opts.num_walks = 1500;  // enough Monte-Carlo mass to fill top-200
    gj_opts.walk_depth = 4;
    // GraphJet keeps several days of engagements (VLDB'16 reports O(10^8)
    // recent edges); at this trace's sparsity a 48h window starves the
    // walks, so hold a week.
    gj_opts.window = 7 * kSecondsPerDay;
    gj_opts.segment_span = 12 * kSecondsPerHour;
    methods.push_back(std::make_unique<GraphJetRecommender>(gj_opts));
    methods.push_back(std::make_unique<BayesRecommender>());

    for (auto& method : methods) {
      std::cerr << "[bench] sweeping " << method->name() << "...\n";
      MethodSweep sweep;
      sweep.method = method->name();
      sweep.per_k = RunSweepEvaluation(dataset, protocol, *method, sopts);
      out->push_back(std::move(sweep));
    }
    if (!CacheDir().empty()) SaveSweeps(cache_path, *out);
    return out;
  }();
  return *sweeps;
}

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = "--" + flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

ObservabilityGuard::ObservabilityGuard(int argc, char** argv) {
  metrics_path_ = FlagValue(argc, argv, "metrics-json");
  if (metrics_path_.empty()) {
    metrics_path_ = GetEnvString("SIMGRAPH_METRICS_JSON", "");
  }
  trace_path_ = FlagValue(argc, argv, "trace-json");
  if (trace_path_.empty()) {
    trace_path_ = GetEnvString("SIMGRAPH_TRACE_JSON", "");
  }
  if (!metrics_path_.empty()) metrics::SetEnabled(true);
  if (!trace_path_.empty()) trace::SetEnabled(true);
}

ObservabilityGuard::~ObservabilityGuard() {
  if (!metrics_path_.empty()) {
    const Status s =
        metrics::Registry::Global().WriteJsonFile(metrics_path_);
    if (s.ok()) {
      std::cerr << "[bench] metrics snapshot written to " << metrics_path_
                << "\n";
    } else {
      std::cerr << "[bench] " << s.ToString() << "\n";
    }
  }
  if (!trace_path_.empty()) {
    const Status s = trace::Export(trace_path_);
    if (s.ok()) {
      std::cerr << "[bench] trace (chrome://tracing) written to "
                << trace_path_ << "\n";
    } else {
      std::cerr << "[bench] " << s.ToString() << "\n";
    }
  }
}

void PrintPreamble(const std::string& experiment) {
  const DatasetConfig config = BenchConfig();
  const Dataset& d = BenchDataset();
  std::cout << "### " << experiment << "\n"
            << "dataset: " << d.num_users() << " users, "
            << d.follow_graph.num_edges() << " follow edges, "
            << d.num_tweets() << " tweets, " << d.num_retweets()
            << " retweets over " << config.horizon_days
            << " days (seed " << config.seed << ")\n\n";
}

}  // namespace bench
}  // namespace simgraph
