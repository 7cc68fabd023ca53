#include "graph/graph_builder.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace simgraph {

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {
  SIMGRAPH_CHECK_GE(num_nodes, 0);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  SIMGRAPH_CHECK_GE(u, 0);
  SIMGRAPH_CHECK_LT(u, num_nodes_);
  SIMGRAPH_CHECK_GE(v, 0);
  SIMGRAPH_CHECK_LT(v, num_nodes_);
  SIMGRAPH_CHECK_NE(u, v) << "self-loops are not allowed";
  edges_.push_back(Edge{u, v, weight});
}

Digraph GraphBuilder::Build(bool weighted) {
  // Stable sort by (src, dst); for duplicates the last-added edge wins, so
  // we keep the final occurrence of each (src, dst) pair. Input already in
  // order (a loaded edge list, a single-threaded SimGraph build) skips the
  // sort: equal pairs then sit in insertion order, exactly where the
  // stable sort would leave them.
  const auto by_src_dst = [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  };
  if (!std::is_sorted(edges_.begin(), edges_.end(), by_src_dst)) {
    std::stable_sort(edges_.begin(), edges_.end(), by_src_dst);
  }
  // Deduplicate, keeping the last occurrence within each equal range.
  size_t out = 0;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i + 1 < edges_.size() && edges_[i].src == edges_[i + 1].src &&
        edges_[i].dst == edges_[i + 1].dst) {
      continue;  // a later duplicate supersedes this one
    }
    edges_[out++] = edges_[i];
  }
  edges_.resize(out);

  Digraph g;
  g.num_nodes_ = num_nodes_;
  const size_t m = edges_.size();
  g.out_offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  g.out_targets_.resize(m);
  if (weighted) g.out_weights_.resize(m);

  for (const Edge& e : edges_) ++g.out_offsets_[static_cast<size_t>(e.src) + 1];
  for (size_t i = 1; i < g.out_offsets_.size(); ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
  }
  // Edges are sorted, so we can fill sequentially.
  for (size_t i = 0; i < m; ++i) {
    g.out_targets_[i] = edges_[i].dst;
    if (weighted) g.out_weights_[i] = edges_[i].weight;
  }

  // Transpose for in-adjacency.
  g.in_offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  g.in_sources_.resize(m);
  for (const Edge& e : edges_) ++g.in_offsets_[static_cast<size_t>(e.dst) + 1];
  for (size_t i = 1; i < g.in_offsets_.size(); ++i) {
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }
  std::vector<int64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const Edge& e : edges_) {
    g.in_sources_[static_cast<size_t>(cursor[static_cast<size_t>(e.dst)]++)] =
        e.src;
  }
  // Sources were appended in (src-sorted) order per destination, so each
  // in-neighbour span is already ascending.

  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

}  // namespace simgraph
