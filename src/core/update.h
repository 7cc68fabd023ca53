#ifndef SIMGRAPH_CORE_UPDATE_H_
#define SIMGRAPH_CORE_UPDATE_H_

#include <string_view>

#include "core/simgraph.h"
#include "core/similarity.h"
#include "dataset/dataset.h"

namespace simgraph {

/// The four graph-maintenance strategies compared in Figure 16. The graph
/// is initially built after `old_end` retweet actions; the strategies
/// differ in how it is refreshed once `new_end` actions are known.
enum class UpdateStrategy {
  /// Rebuild entirely from the follow graph with profiles at new_end
  /// (best quality, full cost).
  kFromScratch,
  /// Keep the graph built at old_end untouched.
  kOldSimGraph,
  /// Re-run the SimGraph construction, but explore the *old SimGraph*
  /// (2-hop) instead of the follow graph, scoring with profiles at
  /// new_end. Densifies the graph and refreshes weights at a fraction of
  /// the from-scratch cost.
  kCrossfold,
  /// Keep the old topology; recompute only the edge weights with profiles
  /// at new_end.
  kWeightUpdate,
};

std::string_view UpdateStrategyName(UpdateStrategy strategy);

/// Builds the similarity graph according to `strategy`. `old_end` and
/// `new_end` are retweet-event indices (old_end <= new_end); `options`
/// configures tau/hops exactly as for BuildSimGraph.
SimGraph BuildWithStrategy(UpdateStrategy strategy, const Dataset& dataset,
                           int64_t old_end, int64_t new_end,
                           const SimGraphOptions& options);

/// Recomputes the weights of `graph`'s edges using `profiles` while
/// keeping the topology fixed (the kWeightUpdate primitive, exposed for
/// testing).
SimGraph RecomputeWeights(const SimGraph& graph, const ProfileStore& profiles);

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_UPDATE_H_
