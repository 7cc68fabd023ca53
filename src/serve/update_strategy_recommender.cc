#include "serve/update_strategy_recommender.h"

namespace simgraph {
namespace serve {

UpdateStrategyRecommender::UpdateStrategyRecommender(
    UpdateStrategy strategy, int64_t old_end, ServingSimGraphOptions options)
    : SimGraphServingRecommender(options),
      strategy_(strategy),
      old_end_(old_end),
      graph_options_(options.graph) {}

std::string UpdateStrategyRecommender::name() const {
  return "SimGraph[" + std::string(UpdateStrategyName(strategy_)) + "]";
}

Status UpdateStrategyRecommender::Train(const Dataset& dataset,
                                        int64_t train_end) {
  SIMGRAPH_RETURN_IF_ERROR(
      SimGraphServingRecommender::Train(dataset, train_end));
  if (old_end_ > train_end) {
    return Status::InvalidArgument(
        "update strategy old_end is later than train_end");
  }
  ReplaceSimGraph(BuildWithStrategy(strategy_, dataset, old_end_, train_end,
                                    graph_options_));
  return Status::Ok();
}

}  // namespace serve
}  // namespace simgraph
