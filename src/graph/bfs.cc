#include "graph/bfs.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/logging.h"

namespace simgraph {
namespace {

// Invokes `fn(v)` for every neighbour v of u in the requested direction.
template <typename Fn>
void ForEachNeighbor(const Digraph& g, NodeId u, TraversalDirection dir,
                     Fn&& fn) {
  if (dir == TraversalDirection::kOut || dir == TraversalDirection::kBoth) {
    for (NodeId v : g.OutNeighbors(u)) fn(v);
  }
  if (dir == TraversalDirection::kIn || dir == TraversalDirection::kBoth) {
    for (NodeId v : g.InNeighbors(u)) fn(v);
  }
}

}  // namespace

std::vector<int32_t> BfsDistances(const Digraph& g, NodeId source,
                                  TraversalDirection dir) {
  return BfsDistancesBounded(g, source, dir,
                             std::max<int32_t>(1, g.num_nodes()));
}

std::vector<int32_t> BfsDistancesBounded(const Digraph& g, NodeId source,
                                         TraversalDirection dir,
                                         int32_t max_depth) {
  SIMGRAPH_CHECK_GE(source, 0);
  SIMGRAPH_CHECK_LT(source, g.num_nodes());
  std::vector<int32_t> dist(static_cast<size_t>(g.num_nodes()), -1);
  std::deque<NodeId> frontier;
  dist[static_cast<size_t>(source)] = 0;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    const int32_t du = dist[static_cast<size_t>(u)];
    if (du >= max_depth) continue;
    ForEachNeighbor(g, u, dir, [&](NodeId v) {
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = du + 1;
        frontier.push_back(v);
      }
    });
  }
  return dist;
}

std::vector<HopNode> KHopNeighborhood(const Digraph& g, NodeId source,
                                      int32_t k, TraversalDirection dir) {
  SIMGRAPH_CHECK_GE(source, 0);
  SIMGRAPH_CHECK_LT(source, g.num_nodes());
  SIMGRAPH_CHECK_GE(k, 0);
  // Hash-set based visitation so cost is proportional to the explored ball,
  // not to |V|.
  std::unordered_map<NodeId, int32_t> dist;
  dist.emplace(source, 0);
  std::deque<NodeId> frontier{source};
  std::vector<HopNode> out;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    const int32_t du = dist[u];
    if (du >= k) continue;
    ForEachNeighbor(g, u, dir, [&](NodeId v) {
      if (dist.emplace(v, du + 1).second) {
        out.push_back(HopNode{v, du + 1});
        frontier.push_back(v);
      }
    });
  }
  std::sort(out.begin(), out.end(),
            [](const HopNode& a, const HopNode& b) { return a.node < b.node; });
  return out;
}

int32_t ShortestPathLength(const Digraph& g, NodeId source, NodeId target,
                           TraversalDirection dir) {
  SIMGRAPH_CHECK_GE(target, 0);
  SIMGRAPH_CHECK_LT(target, g.num_nodes());
  if (source == target) return 0;
  std::vector<int32_t> dist(static_cast<size_t>(g.num_nodes()), -1);
  std::deque<NodeId> frontier;
  dist[static_cast<size_t>(source)] = 0;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    const int32_t du = dist[static_cast<size_t>(u)];
    bool found = false;
    ForEachNeighbor(g, u, dir, [&](NodeId v) {
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = du + 1;
        if (v == target) found = true;
        frontier.push_back(v);
      }
    });
    if (found) return du + 1;
  }
  return -1;
}

}  // namespace simgraph
