#ifndef SIMGRAPH_GRAPH_GRAPH_BUILDER_H_
#define SIMGRAPH_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"

namespace simgraph {

/// Accumulates edges and produces an immutable CSR Digraph. Self-loops are
/// rejected; duplicate edges are deduplicated at Build time (for weighted
/// graphs the last-added weight wins).
class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id space [0, num_nodes).
  explicit GraphBuilder(NodeId num_nodes);

  /// Adds the directed edge u->v with optional weight.
  /// Preconditions: 0 <= u,v < num_nodes, u != v.
  void AddEdge(NodeId u, NodeId v, double weight = 1.0);

  /// Reserves room for `num_edges` pending edges (a hint; never shrinks).
  void Reserve(int64_t num_edges) {
    edges_.reserve(static_cast<size_t>(num_edges));
  }

  /// Number of edges added so far (before deduplication).
  int64_t num_pending_edges() const {
    return static_cast<int64_t>(edges_.size());
  }

  /// Builds the graph. `weighted` controls whether per-edge weights are
  /// stored. Edges added already in (src, dst) order skip the sort.
  /// Consumes the builder's buffers; the builder is empty afterwards.
  Digraph Build(bool weighted = false);

 private:
  struct Edge {
    NodeId src;
    NodeId dst;
    double weight;
  };

  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace simgraph

#endif  // SIMGRAPH_GRAPH_GRAPH_BUILDER_H_
