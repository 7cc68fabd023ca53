#ifndef SIMGRAPH_SERVE_UPDATE_STRATEGY_RECOMMENDER_H_
#define SIMGRAPH_SERVE_UPDATE_STRATEGY_RECOMMENDER_H_

#include <string>

#include "core/update.h"
#include "serve/simgraph_serving_recommender.h"

namespace simgraph {
namespace serve {

/// A SimGraph recommender whose similarity graph is produced by an update
/// strategy instead of a plain from-scratch build: Train(dataset, end)
/// first trains normally, then swaps in BuildWithStrategy(strategy,
/// dataset, old_end, end). Lets the Figure 16 study run through the
/// standard evaluation harness (which owns the Train call).
class UpdateStrategyRecommender : public SimGraphServingRecommender {
 public:
  UpdateStrategyRecommender(UpdateStrategy strategy, int64_t old_end,
                            ServingSimGraphOptions options);

  std::string name() const override;
  Status Train(const Dataset& dataset, int64_t train_end) override;

 private:
  UpdateStrategy strategy_;
  int64_t old_end_;
  SimGraphOptions graph_options_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_UPDATE_STRATEGY_RECOMMENDER_H_
