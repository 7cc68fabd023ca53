#include "core/update.h"

#include "graph/graph_builder.h"
#include "util/logging.h"

namespace simgraph {

std::string_view UpdateStrategyName(UpdateStrategy strategy) {
  switch (strategy) {
    case UpdateStrategy::kFromScratch:
      return "from scratch";
    case UpdateStrategy::kOldSimGraph:
      return "old SimGraph";
    case UpdateStrategy::kCrossfold:
      return "crossfold";
    case UpdateStrategy::kWeightUpdate:
      return "SimGraph updated";
  }
  return "unknown";
}

SimGraph RecomputeWeights(const SimGraph& graph,
                          const ProfileStore& profiles) {
  const Digraph& g = graph.graph;
  GraphBuilder builder(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      builder.AddEdge(u, v, profiles.Similarity(u, v));
    }
  }
  SimGraph out;
  out.graph = builder.Build(/*weighted=*/true);
  return out;
}

SimGraph BuildWithStrategy(UpdateStrategy strategy, const Dataset& dataset,
                           int64_t old_end, int64_t new_end,
                           const SimGraphOptions& options) {
  SIMGRAPH_CHECK_LE(old_end, new_end);
  switch (strategy) {
    case UpdateStrategy::kFromScratch: {
      ProfileStore profiles(dataset, new_end);
      return BuildSimGraph(dataset.follow_graph, profiles, options);
    }
    case UpdateStrategy::kOldSimGraph: {
      ProfileStore profiles(dataset, old_end);
      return BuildSimGraph(dataset.follow_graph, profiles, options);
    }
    case UpdateStrategy::kCrossfold: {
      ProfileStore old_profiles(dataset, old_end);
      const SimGraph old_graph =
          BuildSimGraph(dataset.follow_graph, old_profiles, options);
      ProfileStore new_profiles(dataset, new_end);
      // Construction re-run over the old similarity graph: candidates come
      // from 2-hop exploration of the old graph, scores from the fresh
      // profiles.
      return BuildSimGraph(old_graph.graph, new_profiles, options);
    }
    case UpdateStrategy::kWeightUpdate: {
      ProfileStore old_profiles(dataset, old_end);
      const SimGraph old_graph =
          BuildSimGraph(dataset.follow_graph, old_profiles, options);
      ProfileStore new_profiles(dataset, new_end);
      return RecomputeWeights(old_graph, new_profiles);
    }
  }
  SIMGRAPH_CHECK(false) << "unreachable";
  return SimGraph{};
}

}  // namespace simgraph
