#include "core/simgraph.h"

#include <algorithm>
#include <atomic>

#include "core/hop_ball.h"
#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {
namespace {

struct WeightedEdge {
  NodeId src;
  NodeId dst;
  double weight;
};

// Dense per-worker scratch indexed by user id. Both members clear in O(1),
// so once warm the per-user candidate step allocates nothing.
struct CandidateScratch {
  SimilarityScratch similarity;
  HopBall ball;
};

// Candidate edges for one source user under the literal 2-hop procedure.
// Returns the number of candidates scored (the kept/scored ratio is the
// tau pruning rate, exported as simgraph.build.candidates_pruned).
int64_t CandidatesTwoHop(const Digraph& follow_graph,
                         const ProfileStore& profiles, UserId u,
                         const SimGraphOptions& options,
                         CandidateScratch& scratch,
                         std::vector<WeightedEdge>& out) {
  int64_t scored = 0;
  scratch.ball.Fill(follow_graph, u, options.hops);
  for (const UserId w : scratch.ball.members()) {
    if (profiles.ProfileSize(w) == 0) continue;
    const double sim = profiles.Similarity(u, w);
    ++scored;
    if (sim >= options.tau) out.push_back(WeightedEdge{u, w, sim});
  }
  return scored;
}

// Candidate edges via the inverted index intersected with N2(u). Each
// weight is bit-identical to the two-hop mode's Similarity(u, w) (see
// ProfileStore::SimilaritiesOf), and GraphBuilder sorts the edges, so the
// emission order does not matter.
int64_t CandidatesInvertedIndex(const Digraph& follow_graph,
                                const ProfileStore& profiles, UserId u,
                                const SimGraphOptions& options,
                                CandidateScratch& scratch,
                                std::vector<WeightedEdge>& out) {
  const auto sims = profiles.SimilaritiesOf(u, scratch.similarity);
  if (sims.empty()) return 0;
  scratch.ball.Fill(follow_graph, u, options.hops);
  for (const auto& [w, sim] : sims) {
    if (sim >= options.tau && scratch.ball.Contains(w)) {
      out.push_back(WeightedEdge{u, w, sim});
    }
  }
  return static_cast<int64_t>(sims.size());
}

}  // namespace

int64_t SimGraph::NumPresentNodes() const {
  const int64_t cached = CachedPresentNodes();
  if (cached >= 0) return cached;
  int64_t present = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (graph.OutDegree(u) > 0 || graph.InDegree(u) > 0) ++present;
  }
  present_nodes_.store(present, std::memory_order_relaxed);
  return present;
}

double SimGraph::MeanSimilarity() const {
  if (graph.num_edges() == 0) return 0.0;
  double total = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (double w : graph.OutWeights(u)) total += w;
  }
  return total / static_cast<double>(graph.num_edges());
}

double SimGraph::MeanOutDegreePresent() const {
  const int64_t present = NumPresentNodes();
  if (present == 0) return 0.0;
  return static_cast<double>(graph.num_edges()) /
         static_cast<double>(present);
}

SimGraph BuildSimGraph(const Digraph& follow_graph,
                       const ProfileStore& profiles,
                       const SimGraphOptions& options) {
  SIMGRAPH_CHECK_GT(options.tau, 0.0)
      << "tau must be positive; tau == 0 would connect all user pairs";
  SIMGRAPH_CHECK_GE(options.hops, 1);
  SIMGRAPH_TRACE_SPAN("SimGraph::Build", "build");
  SIMGRAPH_SCOPED_LATENCY("simgraph.build.seconds");
  WallTimer timer;

  const NodeId n = follow_graph.num_nodes();
  ThreadPool pool(options.num_threads);
  std::vector<std::vector<WeightedEdge>> shards(
      static_cast<size_t>(pool.num_threads() * 4));
  std::atomic<size_t> shard_counter{0};
  std::atomic<int64_t> candidates_scored{0};
  // One dense scratch per pool worker (chunks on the same worker run
  // sequentially, so no synchronisation is needed); freed on return.
  std::vector<CandidateScratch> scratches(
      static_cast<size_t>(pool.num_threads()));

  {
    SIMGRAPH_TRACE_SPAN("SimGraph::Build/candidates", "build");
    SIMGRAPH_SCOPED_LATENCY("simgraph.build.candidates_seconds");
    ParallelFor(pool, n, [&](int64_t begin, int64_t end) {
      const size_t shard = shard_counter.fetch_add(1) % shards.size();
      auto& local = shards[shard];
      const int worker = ThreadPool::CurrentWorkerIndex();
      CandidateScratch fallback;
      CandidateScratch& scratch =
          worker >= 0 ? scratches[static_cast<size_t>(worker)] : fallback;
      int64_t scored = 0;
      for (int64_t i = begin; i < end; ++i) {
        const UserId u = static_cast<UserId>(i);
        if (profiles.ProfileSize(u) == 0) continue;
        switch (options.mode) {
          case CandidateMode::kTwoHopBfs:
            scored += CandidatesTwoHop(follow_graph, profiles, u, options,
                                       scratch, local);
            break;
          case CandidateMode::kInvertedIndex:
            scored += CandidatesInvertedIndex(follow_graph, profiles, u,
                                              options, scratch, local);
            break;
        }
      }
      candidates_scored.fetch_add(scored, std::memory_order_relaxed);
    });
  }

  SimGraph sg;
  {
    SIMGRAPH_TRACE_SPAN("SimGraph::Build/assemble", "build");
    SIMGRAPH_SCOPED_LATENCY("simgraph.build.assemble_seconds");
    GraphBuilder builder(n);
    for (const auto& shard : shards) {
      for (const WeightedEdge& e : shard) {
        builder.AddEdge(e.src, e.dst, e.weight);
      }
    }
    sg.graph = builder.Build(/*weighted=*/true);
  }
  const int64_t scored = candidates_scored.load(std::memory_order_relaxed);
  SIMGRAPH_COUNTER_ADD("simgraph.build.count", 1);
  SIMGRAPH_COUNTER_ADD("simgraph.build.candidates_scored", scored);
  SIMGRAPH_COUNTER_ADD("simgraph.build.edges_kept", sg.graph.num_edges());
  SIMGRAPH_COUNTER_ADD("simgraph.build.candidates_pruned",
                       scored - sg.graph.num_edges());
  SIMGRAPH_GAUGE_SET("simgraph.build.last_edges",
                     static_cast<double>(sg.graph.num_edges()));
  SIMGRAPH_LOG(Info) << "SimGraph built: " << sg.NumPresentNodes()
                     << " present nodes, " << sg.graph.num_edges()
                     << " edges (tau=" << options.tau << ") in "
                     << FormatDuration(timer.ElapsedSeconds());
  return sg;
}

GraphSummary SummarizeSimGraph(const SimGraph& sg,
                               const PathStatsOptions& path_options) {
  GraphSummary s = Summarize(sg.graph, path_options);
  // Report degree means over present nodes, matching Table 4.
  const int64_t present = sg.NumPresentNodes();
  if (present > 0) {
    s.avg_out_degree = static_cast<double>(sg.graph.num_edges()) /
                       static_cast<double>(present);
    s.avg_in_degree = s.avg_out_degree;
  }
  return s;
}

}  // namespace simgraph
