#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/similarity.h"
#include "util/logging.h"

namespace simgraph {

MutableProfileStore::MutableProfileStore(int32_t num_users,
                                         int64_t num_tweets)
    : profiles_(static_cast<size_t>(num_users)),
      retweeters_(static_cast<size_t>(num_tweets)),
      popularity_(static_cast<size_t>(num_tweets), 0) {}

MutableProfileStore::MutableProfileStore(const ProfileStore& store)
    : profiles_(static_cast<size_t>(store.num_users())),
      retweeters_(static_cast<size_t>(store.num_tweets())),
      popularity_(static_cast<size_t>(store.num_tweets())) {
  for (UserId u = 0; u < store.num_users(); ++u) {
    const auto profile = store.Profile(u);
    profiles_[static_cast<size_t>(u)].assign(profile.begin(), profile.end());
  }
  for (TweetId t = 0; t < store.num_tweets(); ++t) {
    const auto users = store.Retweeters(t);
    retweeters_[static_cast<size_t>(t)].assign(users.begin(), users.end());
    popularity_[static_cast<size_t>(t)] = store.Popularity(t);
  }
}

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
  auto& users = retweeters_[static_cast<size_t>(event.tweet)];
  users.insert(std::lower_bound(users.begin(), users.end(), event.user),
               event.user);
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
                                       int64_t event_end, SimGraph* seed) {
  if (event_end < 0 || event_end > dataset.num_retweets()) {
    return Status::InvalidArgument("event_end out of range");
  }
  if (dataset.num_users() != follow_graph_->num_nodes()) {
    return Status::InvalidArgument(
        "dataset user space does not match follow graph");
  }
  if (options_.hops < 1 || options_.hops > 2) {
    return Status::InvalidArgument(
        "incremental maintenance supports hops 1 and 2");
  }

  // Seed with the batch-built graph so Initialize(X) is bit-identical to
  // BuildSimGraph over the same prefix. The seed build runs once per
  // start-up, so it takes every core: GraphBuilder sorts the edges by
  // (src, dst), which makes the CSR identical at any thread count. The
  // mutable profiles start as a copy of the store the build read.
  SimGraph built;
  {
    const ProfileStore batch_profiles(dataset, event_end);
    SimGraphOptions seed_options = options_;
    seed_options.num_threads = 0;
    built = BuildSimGraph(*follow_graph_, batch_profiles, seed_options);
    profiles_ = std::make_unique<MutableProfileStore>(batch_profiles);
  }
  const Digraph& g = built.graph;
  out_.assign(static_cast<size_t>(g.num_nodes()), {});
  in_.assign(static_cast<size_t>(g.num_nodes()), {});
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto targets = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    auto& row = out_[static_cast<size_t>(u)];
    row.reserve(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      row.push_back(OutEdge{targets[i], weights[i]});
    }
    const auto sources = g.InNeighbors(u);
    in_[static_cast<size_t>(u)].assign(sources.begin(), sources.end());
  }
  num_edges_ = g.num_edges();
  stats_ = IncrementalStats{};
  if (seed != nullptr) *seed = std::move(built);
  return Status::Ok();
}

bool IncrementalSimGraph::WithinHops(UserId u, UserId w) const {
  if (u == w) return false;
  // Initialize admits hops 1 and 2 only: direct edge, else any followee
  // of u follows w.
  if (follow_graph_->HasEdge(u, w)) return true;
  if (options_.hops < 2) return false;
  for (NodeId mid : follow_graph_->OutNeighbors(u)) {
    if (follow_graph_->HasEdge(mid, w)) return true;
  }
  return false;
}

void IncrementalSimGraph::RescoreEdge(UserId u, UserId v) {
  ++stats_.pairs_rescored;
  const double sim = profiles_->Similarity(u, v);
  auto& row = out_[static_cast<size_t>(u)];
  const auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const OutEdge& e, UserId target) { return e.target < target; });
  const bool present = it != row.end() && it->target == v;
  auto& sources = in_[static_cast<size_t>(v)];
  if (sim >= options_.tau) {
    if (present) {
      it->weight = sim;
      ++stats_.edges_updated;
    } else {
      row.insert(it, OutEdge{v, sim});
      sources.insert(std::lower_bound(sources.begin(), sources.end(), u), u);
      ++num_edges_;
      ++stats_.edges_inserted;
    }
  } else if (present) {
    row.erase(it);
    sources.erase(std::lower_bound(sources.begin(), sources.end(), u));
    --num_edges_;
    ++stats_.edges_dropped;
  }
}

void IncrementalSimGraph::Apply(const RetweetEvent& event) {
  SIMGRAPH_CHECK(profiles_ != nullptr) << "Initialize must be called first";
  ++stats_.events_applied;
  profiles_->Apply(event);

  // Rescoring touches only the adjacency, so the co-retweeters are read
  // in place; u is among them now and is not its own peer. Each rescore
  // is a pure function of the profiles, so the order does not matter.
  const UserId u = event.user;
  for (UserId v : profiles_->Retweeters(event.tweet)) {
    if (v == u) continue;
    // Definition 4.1 in both directions: u->v needs v in N2(u), v->u
    // needs u in N2(v).
    if (WithinHops(u, v)) RescoreEdge(u, v);
    if (WithinHops(v, u)) RescoreEdge(v, u);
  }
  // The event changed |L_u|, so every edge incident to u is stale:
  // refresh them too (cost O(deg(u)), keeps u's neighbourhood exact).
  incident_.clear();
  for (const OutEdge& e : out_[static_cast<size_t>(u)]) {
    incident_.push_back(e.target);
  }
  for (UserId v : incident_) RescoreEdge(u, v);
  const auto& sources = in_[static_cast<size_t>(u)];
  incident_.assign(sources.begin(), sources.end());
  for (UserId v : incident_) RescoreEdge(v, u);
}

SimGraph IncrementalSimGraph::Snapshot() const {
  SIMGRAPH_CHECK(profiles_ != nullptr) << "Initialize must be called first";
  const size_t m = static_cast<size_t>(num_edges_);
  std::vector<int64_t> out_offsets{0};
  std::vector<int64_t> in_offsets{0};
  out_offsets.reserve(out_.size() + 1);
  in_offsets.reserve(in_.size() + 1);
  std::vector<NodeId> targets;
  std::vector<double> weights;
  std::vector<NodeId> sources;
  targets.reserve(m);
  weights.reserve(m);
  sources.reserve(m);
  for (size_t u = 0; u < out_.size(); ++u) {
    for (const OutEdge& e : out_[u]) {
      targets.push_back(e.target);
      weights.push_back(e.weight);
    }
    out_offsets.push_back(static_cast<int64_t>(targets.size()));
    sources.insert(sources.end(), in_[u].begin(), in_[u].end());
    in_offsets.push_back(static_cast<int64_t>(sources.size()));
  }
  SimGraph sg;
  sg.graph = Digraph::FromCsr(std::move(out_offsets), std::move(targets),
                              std::move(weights), std::move(in_offsets),
                              std::move(sources));
  // Prime the cached present-node count while the snapshot is still
  // thread-private; readers then never pay the O(n) scan.
  sg.NumPresentNodes();
  return sg;
}

}  // namespace simgraph
