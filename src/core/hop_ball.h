#ifndef SIMGRAPH_CORE_HOP_BALL_H_
#define SIMGRAPH_CORE_HOP_BALL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/stamped_set.h"

namespace simgraph {

/// The candidate ball N_k(u) of the SimGraph builds (Definition 4.1 uses
/// k = 2): every node reachable from u within k out-hops, u excluded.
/// It holds the same node set as KHopNeighborhood(g, u, k, kOut), but is
/// filled level by level into reusable stamped scratch, so after the first
/// Fill on a graph it allocates nothing and a refill costs only the ball.
/// Reuse one HopBall per thread.
class HopBall {
 public:
  /// Replaces the ball with N_hops(source) in `g`. Precondition: hops >= 0
  /// and 0 <= source < g.num_nodes().
  void Fill(const Digraph& g, NodeId source, int32_t hops);

  bool Contains(NodeId v) const {
    return v != source_ && seen_.Contains(static_cast<size_t>(v));
  }

  /// The ball's nodes in BFS order (not sorted), source excluded.
  std::span<const NodeId> members() const { return members_; }

 private:
  StampedSet seen_;  // the ball plus the source
  std::vector<NodeId> members_;
  NodeId source_ = kInvalidNode;
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_HOP_BALL_H_
