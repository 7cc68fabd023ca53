#ifndef SIMGRAPH_GRAPH_DIGRAPH_H_
#define SIMGRAPH_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace simgraph {

/// Node identifier; nodes are dense integers [0, num_nodes).
using NodeId = int32_t;

/// An invalid node marker.
inline constexpr NodeId kInvalidNode = -1;

/// Immutable directed graph in compressed-sparse-row form, with both
/// out-adjacency (followees: edges u->v mean "u follows v") and the
/// transposed in-adjacency (followers). Optionally carries one double
/// weight per out-edge (used by the similarity graph).
///
/// Construction goes through GraphBuilder, which sorts and deduplicates
/// edges; neighbour spans are therefore sorted by target id, enabling
/// binary-searched HasEdge and linear-merge set intersections. Arrays
/// already in that form can be adopted as they are with FromCsr.
class Digraph {
 public:
  /// An empty graph.
  Digraph() = default;

  /// Adopts a CSR in GraphBuilder::Build's output form: both offset
  /// arrays hold num_nodes + 1 entries from 0 to the edge count, each
  /// out-row is ascending by target without repeats, each in-row is
  /// ascending by source, and the in-adjacency is the exact transpose of
  /// the out-adjacency. `out_weights` is empty or parallel to
  /// `out_targets`. Only the sizes are checked; the order is the
  /// caller's promise.
  static Digraph FromCsr(std::vector<int64_t> out_offsets,
                         std::vector<NodeId> out_targets,
                         std::vector<double> out_weights,
                         std::vector<int64_t> in_offsets,
                         std::vector<NodeId> in_sources);

  NodeId num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return static_cast<int64_t>(out_targets_.size()); }
  bool has_weights() const { return !out_weights_.empty(); }

  /// Out-neighbours of `u`, sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// In-neighbours of `u`, sorted ascending.
  std::span<const NodeId> InNeighbors(NodeId u) const {
    return {in_sources_.data() + in_offsets_[u],
            in_sources_.data() + in_offsets_[u + 1]};
  }

  /// Weights parallel to OutNeighbors(u). Precondition: has_weights().
  std::span<const double> OutWeights(NodeId u) const {
    return {out_weights_.data() + out_offsets_[u],
            out_weights_.data() + out_offsets_[u + 1]};
  }

  int64_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  int64_t InDegree(NodeId u) const {
    return in_offsets_[u + 1] - in_offsets_[u];
  }

  /// True when the edge u->v exists (binary search, O(log deg)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Weight of edge u->v, or 0.0 when absent. Precondition: has_weights().
  double EdgeWeight(NodeId u, NodeId v) const;

  /// Memory footprint of the adjacency arrays in bytes.
  int64_t MemoryBytes() const;

 private:
  friend class GraphBuilder;

  NodeId num_nodes_ = 0;
  std::vector<int64_t> out_offsets_{0};
  std::vector<NodeId> out_targets_;
  std::vector<double> out_weights_;  // empty when unweighted
  std::vector<int64_t> in_offsets_{0};
  std::vector<NodeId> in_sources_;
};

}  // namespace simgraph

#endif  // SIMGRAPH_GRAPH_DIGRAPH_H_
