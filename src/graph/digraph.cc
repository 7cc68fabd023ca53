#include "graph/digraph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace simgraph {

Digraph Digraph::FromCsr(std::vector<int64_t> out_offsets,
                         std::vector<NodeId> out_targets,
                         std::vector<double> out_weights,
                         std::vector<int64_t> in_offsets,
                         std::vector<NodeId> in_sources) {
  SIMGRAPH_CHECK(!out_offsets.empty());
  SIMGRAPH_CHECK_EQ(in_offsets.size(), out_offsets.size());
  SIMGRAPH_CHECK_EQ(out_offsets.front(), 0);
  SIMGRAPH_CHECK_EQ(in_offsets.front(), 0);
  const int64_t m = static_cast<int64_t>(out_targets.size());
  SIMGRAPH_CHECK_EQ(out_offsets.back(), m);
  SIMGRAPH_CHECK_EQ(in_offsets.back(), m);
  SIMGRAPH_CHECK_EQ(static_cast<int64_t>(in_sources.size()), m);
  SIMGRAPH_CHECK(out_weights.empty() ||
                 static_cast<int64_t>(out_weights.size()) == m);
  Digraph g;
  g.num_nodes_ = static_cast<NodeId>(out_offsets.size() - 1);
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  g.out_weights_ = std::move(out_weights);
  g.in_offsets_ = std::move(in_offsets);
  g.in_sources_ = std::move(in_sources);
  return g;
}

bool Digraph::HasEdge(NodeId u, NodeId v) const {
  const auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Digraph::EdgeWeight(NodeId u, NodeId v) const {
  SIMGRAPH_CHECK(has_weights());
  const auto nbrs = OutNeighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  const int64_t idx = out_offsets_[u] + (it - nbrs.begin());
  return out_weights_[static_cast<size_t>(idx)];
}

int64_t Digraph::MemoryBytes() const {
  return static_cast<int64_t>(
      out_offsets_.size() * sizeof(int64_t) +
      out_targets_.size() * sizeof(NodeId) +
      out_weights_.size() * sizeof(double) +
      in_offsets_.size() * sizeof(int64_t) +
      in_sources_.size() * sizeof(NodeId));
}

}  // namespace simgraph
