#include "core/incremental.h"

#include <algorithm>
#include <cmath>

#include "core/similarity.h"
#include "graph/graph_builder.h"
#include "util/logging.h"

namespace simgraph {

MutableProfileStore::MutableProfileStore(int32_t num_users,
                                         int64_t num_tweets)
    : profiles_(static_cast<size_t>(num_users)),
      retweeters_(static_cast<size_t>(num_tweets)),
      popularity_(static_cast<size_t>(num_tweets), 0) {}

void MutableProfileStore::Apply(const RetweetEvent& event) {
  auto& profile = profiles_[static_cast<size_t>(event.user)];
  const auto it =
      std::lower_bound(profile.begin(), profile.end(), event.tweet);
  if (it != profile.end() && *it == event.tweet) return;  // duplicate
  if (event.tweet >= static_cast<int64_t>(popularity_.size())) {
    // New posts stream in continuously while serving; grow geometrically
    // so a monotone id sequence stays amortised O(1) per event.
    const size_t grown =
        std::max(static_cast<size_t>(event.tweet) + 1,
                 popularity_.size() + popularity_.size() / 2);
    retweeters_.resize(grown);
    popularity_.resize(grown, 0);
  }
  profile.insert(it, event.tweet);
  retweeters_[static_cast<size_t>(event.tweet)].push_back(event.user);
  ++popularity_[static_cast<size_t>(event.tweet)];
}

const std::vector<UserId>& MutableProfileStore::Retweeters(TweetId t) const {
  static const std::vector<UserId> kEmpty;
  const size_t i = static_cast<size_t>(t);
  return i < retweeters_.size() ? retweeters_[i] : kEmpty;
}

double MutableProfileStore::Similarity(UserId u, UserId v) const {
  if (u == v) return 1.0;
  const auto& lu = profiles_[static_cast<size_t>(u)];
  const auto& lv = profiles_[static_cast<size_t>(v)];
  if (lu.empty() || lv.empty()) return 0.0;
  double inter_weight = 0.0;
  int64_t inter_count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < lu.size() && j < lv.size()) {
    if (lu[i] < lv[j]) {
      ++i;
    } else if (lv[j] < lu[i]) {
      ++j;
    } else {
      const int32_t m = popularity_[static_cast<size_t>(lu[i])];
      if (m > 0) inter_weight += 1.0 / std::log(1.0 + m);
      ++inter_count;
      ++i;
      ++j;
    }
  }
  if (inter_count == 0) return 0.0;
  const int64_t union_size =
      static_cast<int64_t>(lu.size() + lv.size()) - inter_count;
  return inter_weight / static_cast<double>(union_size);
}

IncrementalSimGraph::IncrementalSimGraph(const Digraph& follow_graph,
                                         const SimGraphOptions& options)
    : follow_graph_(&follow_graph), options_(options) {
  SIMGRAPH_CHECK_GT(options.tau, 0.0);
}

Status IncrementalSimGraph::Initialize(const Dataset& dataset,
                                       int64_t event_end) {
  if (event_end < 0 || event_end > dataset.num_retweets()) {
    return Status::InvalidArgument("event_end out of range");
  }
  if (dataset.num_users() != follow_graph_->num_nodes()) {
    return Status::InvalidArgument(
        "dataset user space does not match follow graph");
  }
  profiles_ = std::make_unique<MutableProfileStore>(dataset.num_users(),
                                                    dataset.num_tweets());
  for (int64_t i = 0; i < event_end; ++i) {
    profiles_->Apply(dataset.retweets[static_cast<size_t>(i)]);
  }

  // Seed the adjacency with the batch-built graph so Initialize(X) is
  // bit-identical to BuildSimGraph over the same prefix. The seed build
  // runs once per start-up, so it takes every core: GraphBuilder sorts
  // the edges by (src, dst), which makes the CSR identical at any
  // thread count.
  ProfileStore batch_profiles(dataset, event_end);
  SimGraphOptions seed_options = options_;
  seed_options.num_threads = 0;
  const SimGraph seed =
      BuildSimGraph(*follow_graph_, batch_profiles, seed_options);
  adjacency_.assign(static_cast<size_t>(dataset.num_users()), {});
  reverse_.assign(static_cast<size_t>(dataset.num_users()), {});
  num_edges_ = 0;
  for (NodeId u = 0; u < seed.graph.num_nodes(); ++u) {
    const auto nbrs = seed.graph.OutNeighbors(u);
    const auto weights = seed.graph.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      adjacency_[static_cast<size_t>(u)].emplace(nbrs[i], weights[i]);
      reverse_[static_cast<size_t>(nbrs[i])].insert(u);
      ++num_edges_;
    }
  }
  stats_ = IncrementalStats{};
  return Status::Ok();
}

bool IncrementalSimGraph::WithinHops(UserId u, UserId w) const {
  if (u == w) return false;
  // hops is 2 in every paper configuration; generalise with a bounded
  // scan: direct edge, else any followee of u follows w.
  if (follow_graph_->HasEdge(u, w)) return true;
  if (options_.hops < 2) return false;
  for (NodeId mid : follow_graph_->OutNeighbors(u)) {
    if (follow_graph_->HasEdge(mid, w)) return true;
  }
  SIMGRAPH_CHECK_LE(options_.hops, 2)
      << "incremental maintenance supports hops <= 2";
  return false;
}

void IncrementalSimGraph::RescoreEdge(UserId u, UserId v) {
  ++stats_.pairs_rescored;
  const double sim = profiles_->Similarity(u, v);
  auto& row = adjacency_[static_cast<size_t>(u)];
  const auto it = row.find(v);
  if (sim >= options_.tau) {
    if (it == row.end()) {
      row.emplace(v, sim);
      reverse_[static_cast<size_t>(v)].insert(u);
      ++num_edges_;
      ++stats_.edges_inserted;
    } else {
      it->second = sim;
      ++stats_.edges_updated;
    }
  } else if (it != row.end()) {
    row.erase(it);
    reverse_[static_cast<size_t>(v)].erase(u);
    --num_edges_;
    ++stats_.edges_dropped;
  }
}

void IncrementalSimGraph::Apply(const RetweetEvent& event) {
  SIMGRAPH_CHECK(profiles_ != nullptr) << "Initialize must be called first";
  ++stats_.events_applied;
  // Snapshot co-retweeters before adding the event (the new user is not
  // their own peer).
  const std::vector<UserId> peers = profiles_->Retweeters(event.tweet);
  profiles_->Apply(event);

  const UserId u = event.user;
  for (UserId v : peers) {
    if (v == u) continue;
    // Definition 4.1 in both directions: u->v needs v in N2(u), v->u
    // needs u in N2(v).
    if (WithinHops(u, v)) RescoreEdge(u, v);
    if (WithinHops(v, u)) RescoreEdge(v, u);
  }
  // The event changed |L_u|, so every edge incident to u is stale:
  // refresh them too (cost O(deg(u)), keeps u's neighbourhood exact).
  std::vector<UserId> out_targets;
  for (const auto& [v, w] : adjacency_[static_cast<size_t>(u)]) {
    out_targets.push_back(v);
  }
  for (UserId v : out_targets) RescoreEdge(u, v);
  const std::vector<UserId> in_sources(
      reverse_[static_cast<size_t>(u)].begin(),
      reverse_[static_cast<size_t>(u)].end());
  for (UserId v : in_sources) RescoreEdge(v, u);
}

SimGraph IncrementalSimGraph::Snapshot() const {
  SIMGRAPH_CHECK(profiles_ != nullptr) << "Initialize must be called first";
  GraphBuilder builder(follow_graph_->num_nodes());
  for (NodeId u = 0; u < follow_graph_->num_nodes(); ++u) {
    for (const auto& [v, w] : adjacency_[static_cast<size_t>(u)]) {
      builder.AddEdge(u, v, w);
    }
  }
  SimGraph sg;
  sg.graph = builder.Build(/*weighted=*/true);
  // Prime the cached present-node count while the snapshot is still
  // thread-private; readers then never pay the O(n) scan.
  sg.NumPresentNodes();
  return sg;
}

}  // namespace simgraph
