#include "core/topic_similarity.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "core/hop_ball.h"
#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {

TopicProfileStore::TopicProfileStore(const Dataset& dataset,
                                     int64_t event_end) {
  SIMGRAPH_CHECK_GE(event_end, 0);
  SIMGRAPH_CHECK_LE(event_end, dataset.num_retweets());
  const size_t num_users = static_cast<size_t>(dataset.num_users());

  // Per-user topic counts, gathered in sorted maps then flattened to CSR.
  std::vector<std::map<int32_t, int32_t>> counts(num_users);
  for (int64_t i = 0; i < event_end; ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    const int32_t topic = dataset.tweets[static_cast<size_t>(e.tweet)].topic;
    ++counts[static_cast<size_t>(e.user)][topic];
  }

  offsets_.assign(num_users + 1, 0);
  for (size_t u = 0; u < num_users; ++u) {
    offsets_[u + 1] = offsets_[u] + static_cast<int64_t>(counts[u].size());
  }
  entries_.reserve(static_cast<size_t>(offsets_.back()));
  for (size_t u = 0; u < num_users; ++u) {
    for (const auto& [topic, count] : counts[u]) {
      entries_.push_back(TopicCount{topic, count});
      if (static_cast<size_t>(topic) >= topic_popularity_.size()) {
        topic_popularity_.resize(static_cast<size_t>(topic) + 1, 0);
      }
      topic_popularity_[static_cast<size_t>(topic)] += count;
    }
  }
}

int64_t TopicProfileStore::TopicPopularity(int32_t topic) const {
  if (topic < 0 ||
      static_cast<size_t>(topic) >= topic_popularity_.size()) {
    return 0;
  }
  return topic_popularity_[static_cast<size_t>(topic)];
}

double TopicProfileStore::TopicSimilarity(UserId u, UserId v) const {
  if (u == v) return 1.0;
  const auto pu = Profile(u);
  const auto pv = Profile(v);
  if (pu.empty() || pv.empty()) return 0.0;
  // Definition 3.1 on topic tweets: shared topics weighted by inverse log
  // popularity, normalised by the topic-set union.
  double inter_weight = 0.0;
  int64_t inter_count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < pu.size() && j < pv.size()) {
    if (pu[i].topic < pv[j].topic) {
      ++i;
    } else if (pv[j].topic < pu[i].topic) {
      ++j;
    } else {
      const int64_t m = TopicPopularity(pu[i].topic);
      if (m > 0) {
        inter_weight += 1.0 / std::log(1.0 + static_cast<double>(m));
      }
      ++inter_count;
      ++i;
      ++j;
    }
  }
  if (inter_count == 0) return 0.0;
  const int64_t union_size =
      static_cast<int64_t>(pu.size() + pv.size()) - inter_count;
  return inter_weight / static_cast<double>(union_size);
}

double HybridSimilarity(const ProfileStore& profiles,
                        const TopicProfileStore& topics, UserId u, UserId v,
                        double alpha) {
  SIMGRAPH_CHECK_GE(alpha, 0.0);
  SIMGRAPH_CHECK_LE(alpha, 1.0);
  const double jaccard = profiles.Similarity(u, v);
  if (alpha == 0.0) return jaccard;
  return (1.0 - alpha) * jaccard + alpha * topics.TopicSimilarity(u, v);
}

SimGraph BuildHybridSimGraph(const Digraph& follow_graph,
                             const ProfileStore& profiles,
                             const TopicProfileStore& topics,
                             const HybridSimGraphOptions& options) {
  SIMGRAPH_CHECK_GT(options.base.tau, 0.0);
  SIMGRAPH_TRACE_SPAN("SimGraph::BuildHybrid", "build");
  SIMGRAPH_SCOPED_LATENCY("simgraph.hybrid.build_seconds");
  WallTimer timer;

  struct WeightedEdge {
    NodeId src;
    NodeId dst;
    double weight;
  };
  const NodeId n = follow_graph.num_nodes();
  ThreadPool pool(options.base.num_threads);
  std::vector<std::vector<WeightedEdge>> shards(
      static_cast<size_t>(pool.num_threads() * 4));
  std::atomic<size_t> shard_counter{0};
  // One ball per pool worker, as in BuildSimGraph.
  std::vector<HopBall> balls(static_cast<size_t>(pool.num_threads()));

  ParallelFor(pool, n, [&](int64_t begin, int64_t end) {
    auto& local = shards[shard_counter.fetch_add(1) % shards.size()];
    const int worker = ThreadPool::CurrentWorkerIndex();
    HopBall fallback;
    HopBall& ball = worker >= 0 ? balls[static_cast<size_t>(worker)] : fallback;
    for (int64_t i = begin; i < end; ++i) {
      const UserId u = static_cast<UserId>(i);
      // A user needs some signal — a retweet profile or a topic profile.
      if (profiles.ProfileSize(u) == 0 && topics.Profile(u).empty()) {
        continue;
      }
      ball.Fill(follow_graph, u, options.base.hops);
      for (const UserId w : ball.members()) {
        if (profiles.ProfileSize(w) == 0 && topics.Profile(w).empty()) {
          continue;
        }
        const double sim =
            HybridSimilarity(profiles, topics, u, w, options.alpha);
        if (sim >= options.base.tau) {
          local.push_back(WeightedEdge{u, w, sim});
        }
      }
    }
  });

  GraphBuilder builder(n);
  for (const auto& shard : shards) {
    for (const WeightedEdge& e : shard) {
      builder.AddEdge(e.src, e.dst, e.weight);
    }
  }
  SimGraph sg;
  sg.graph = builder.Build(/*weighted=*/true);
  SIMGRAPH_COUNTER_ADD("simgraph.hybrid.build.count", 1);
  SIMGRAPH_COUNTER_ADD("simgraph.hybrid.edges_kept", sg.graph.num_edges());
  SIMGRAPH_LOG(Info) << "hybrid SimGraph built: " << sg.NumPresentNodes()
                     << " present nodes, " << sg.graph.num_edges()
                     << " edges (alpha=" << options.alpha << ", tau="
                     << options.base.tau << ") in "
                     << FormatDuration(timer.ElapsedSeconds());
  return sg;
}

}  // namespace simgraph
