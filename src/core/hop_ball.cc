#include "core/hop_ball.h"

#include "util/logging.h"

namespace simgraph {

void HopBall::Fill(const Digraph& g, NodeId source, int32_t hops) {
  SIMGRAPH_CHECK_GE(source, 0);
  SIMGRAPH_CHECK_LT(source, g.num_nodes());
  SIMGRAPH_CHECK_GE(hops, 0);
  seen_.Reserve(static_cast<size_t>(g.num_nodes()));
  seen_.Clear();
  seen_.Insert(static_cast<size_t>(source));
  source_ = source;
  members_.clear();
  if (hops == 0) return;
  for (NodeId v : g.OutNeighbors(source)) {
    if (seen_.Insert(static_cast<size_t>(v))) members_.push_back(v);
  }
  // members_[level_begin, level_end) is the frontier at the current depth.
  size_t level_begin = 0;
  for (int32_t depth = 2; depth <= hops; ++depth) {
    const size_t level_end = members_.size();
    if (level_begin == level_end) break;
    for (size_t i = level_begin; i < level_end; ++i) {
      for (NodeId v : g.OutNeighbors(members_[i])) {
        if (seen_.Insert(static_cast<size_t>(v))) members_.push_back(v);
      }
    }
    level_begin = level_end;
  }
}

}  // namespace simgraph
