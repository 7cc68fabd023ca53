#ifndef SIMGRAPH_SIMGRAPH_SIMGRAPH_H_
#define SIMGRAPH_SIMGRAPH_SIMGRAPH_H_

/// \file
/// Umbrella header: the full public API of the SimGraph library.
///
/// Quick start:
///
///   #include "simgraph/simgraph.h"
///
///   simgraph::Dataset data = simgraph::GenerateDataset(simgraph::TinyConfig());
///   simgraph::EvalProtocol protocol =
///       simgraph::MakeProtocol(data, simgraph::ProtocolOptions{});
///   simgraph::serve::SimGraphServingRecommender recommender;
///   simgraph::HarnessOptions harness;
///   harness.k = 30;
///   simgraph::EvalResult result =
///       simgraph::RunEvaluation(data, protocol, recommender, harness);

#include "analysis/distribution_fit.h"
#include "analysis/homophily.h"
#include "analysis/retweet_stats.h"
#include "baselines/bayes_recommender.h"
#include "baselines/cf_recommender.h"
#include "baselines/graphjet_recommender.h"
#include "core/bubbles.h"
#include "core/candidate_store.h"
#include "core/incremental.h"
#include "core/propagation.h"
#include "core/recommender.h"
#include "core/simgraph.h"
#include "core/simgraph_delta.h"
#include "core/similarity.h"
#include "core/topic_similarity.h"
#include "core/update.h"
#include "dataset/cascade_generator.h"
#include "dataset/config.h"
#include "dataset/dataset.h"
#include "dataset/generator.h"
#include "dataset/interest_model.h"
#include "dataset/social_graph_generator.h"
#include "dataset/streaming_generator.h"
#include "dataset/types.h"
#include "eval/harness.h"
#include "eval/sweep.h"
#include "eval/protocol.h"
#include "graph/bfs.h"
#include "graph/digraph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/union_find.h"
#include "serve/backend.h"
#include "serve/binary_wire.h"
#include "serve/candidate_state.h"
#include "serve/delta_applier.h"
#include "serve/delta_builder.h"
#include "serve/replication_client.h"
#include "serve/replication_fanout.h"
#include "serve/replication_wire.h"
#include "serve/result_cache.h"
#include "serve/service.h"
#include "serve/serving_recommender.h"
#include "serve/shard_router.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"
#include "serve/tcp_server.h"
#include "serve/update_strategy_recommender.h"
#include "serve/window_telemetry.h"
#include "serve/wire_protocol.h"
#include "solver/iterative_solvers.h"
#include "solver/sparse_matrix.h"
#include "store/graph_image.h"
#include "store/snapshot_format.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "util/env.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/mpmc_queue.h"
#include "util/random.h"
#include "util/stamped_set.h"
#include "util/status.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/timeseries.h"
#include "util/trace.h"

#endif  // SIMGRAPH_SIMGRAPH_SIMGRAPH_H_
