#include "core/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/similarity.h"
#include "dataset/generator.h"
#include "graph/graph_builder.h"
#include "util/logging.h"

namespace simgraph {
namespace {

SimGraphOptions Opts(double tau = 0.002) {
  SimGraphOptions o;
  o.tau = tau;
  return o;
}

const Dataset& Shared() {
  static const Dataset* d = [] {
    DatasetConfig c = TinyConfig();
    c.num_users = 800;
    c.num_tweets = 6000;
    c.base_retweet_prob = 0.8;
    return new Dataset(GenerateDataset(c));
  }();
  return *d;
}

TEST(MutableProfileStoreTest, MatchesBatchStore) {
  const Dataset& d = Shared();
  MutableProfileStore mutable_store(d.num_users(), d.num_tweets());
  for (const RetweetEvent& e : d.retweets) mutable_store.Apply(e);
  ProfileStore batch(d, d.num_retweets());
  for (UserId u = 0; u < d.num_users(); ++u) {
    ASSERT_EQ(mutable_store.ProfileSize(u), batch.ProfileSize(u));
  }
  // Similarities agree on a sample of co-retweeting pairs.
  SimilarityScratch scratch;
  int checked = 0;
  for (UserId u = 0; u < d.num_users() && checked < 30; ++u) {
    for (const auto& [v, sim] : batch.SimilaritiesOf(u, scratch)) {
      ASSERT_NEAR(mutable_store.Similarity(u, v), sim, 1e-12);
      if (++checked >= 30) break;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(MutableProfileStoreTest, IgnoresDuplicates) {
  MutableProfileStore store(3, 5);
  store.Apply(RetweetEvent{2, 0, 10});
  store.Apply(RetweetEvent{2, 0, 20});
  EXPECT_EQ(store.ProfileSize(0), 1);
  EXPECT_EQ(store.Popularity(2), 1);
}

TEST(MutableProfileStoreTest, GrowsForUnseenTweetIds) {
  // Regression: the store used to index out of bounds when a streamed
  // event referenced a tweet id at or beyond the initial catalogue size.
  MutableProfileStore store(3, /*num_tweets=*/2);
  store.Apply(RetweetEvent{5, 1, 10});
  EXPECT_GE(store.num_tweets(), 6);
  EXPECT_EQ(store.Popularity(5), 1);
  ASSERT_EQ(store.Retweeters(5).size(), 1u);
  EXPECT_EQ(store.Retweeters(5)[0], 1);
  EXPECT_EQ(store.ProfileSize(1), 1);
  // Ids never seen remain safely empty, even past the grown range.
  EXPECT_EQ(store.Popularity(10), 0);
  EXPECT_TRUE(store.Retweeters(10).empty());
}

TEST(IncrementalSimGraphTest, ApplyHandlesUnseenTweet) {
  const Dataset& d = Shared();
  IncrementalSimGraph inc(d.follow_graph, Opts());
  ASSERT_TRUE(inc.Initialize(d, d.num_retweets()).ok());
  const int64_t edges_before = inc.num_edges();
  RetweetEvent unseen{d.num_tweets() + 100, 0, 1};
  inc.Apply(unseen);  // must not crash or invent edges
  EXPECT_EQ(inc.num_edges(), edges_before);
  inc.Apply(RetweetEvent{d.num_tweets() + 100, 1, 2});
  // A second retweet of the same (unseen) tweet is a real co-retweet and
  // may now create edges if 0 and 1 are within two hops.
  EXPECT_GE(inc.num_edges(), edges_before);
}

TEST(IncrementalSimGraphTest, SnapshotMatchesBatchModuloStalePairs) {
  // The precise equivalence contract between Snapshot() after streaming
  // and BuildSimGraph over the same full prefix: the two graphs may only
  // disagree on a pair (u, v) with *interference* — some shared tweet of
  // u and v received its last retweet after the last event touching u or
  // v. The maintainer rescores (u, v) on every event touching either
  // endpoint, so only such a third-party retweet (which shifts the
  // popularity-weighted similarity without waking the pair) can leave a
  // stale weight, a stale edge, or a missed insertion behind. Every
  // interference-free pair must match exactly: same edge set, same
  // weight to 1e-12.
  const Dataset& d = Shared();
  const int64_t split = d.SplitIndex(0.9);
  IncrementalSimGraph inc(d.follow_graph, Opts());
  ASSERT_TRUE(inc.Initialize(d, split).ok());
  for (int64_t i = split; i < d.num_retweets(); ++i) {
    inc.Apply(d.retweets[static_cast<size_t>(i)]);
  }
  const SimGraph snap = inc.Snapshot();
  ProfileStore final_profiles(d, d.num_retweets());
  const SimGraph batch = BuildSimGraph(d.follow_graph, final_profiles,
                                       Opts());

  std::vector<int64_t> last_event_of(static_cast<size_t>(d.num_users()),
                                     -1);
  std::unordered_map<TweetId, int64_t> last_retweet_of_tweet;
  for (int64_t i = 0; i < d.num_retweets(); ++i) {
    const RetweetEvent& e = d.retweets[static_cast<size_t>(i)];
    last_event_of[static_cast<size_t>(e.user)] = i;
    last_retweet_of_tweet[e.tweet] = i;
  }
  const auto has_interference = [&](UserId u, UserId v) {
    const int64_t pair_last =
        std::max(last_event_of[static_cast<size_t>(u)],
                 last_event_of[static_cast<size_t>(v)]);
    const auto pu = final_profiles.Profile(u);
    const auto pv = final_profiles.Profile(v);
    size_t i = 0;
    size_t j = 0;
    while (i < pu.size() && j < pv.size()) {
      if (pu[i] < pv[j]) {
        ++i;
      } else if (pv[j] < pu[i]) {
        ++j;
      } else {
        if (last_retweet_of_tweet[pu[i]] > pair_last) return true;
        ++i;
        ++j;
      }
    }
    return false;
  };

  int64_t stale = 0;
  int64_t exact = 0;
  for (NodeId u = 0; u < batch.graph.num_nodes(); ++u) {
    // Batch edges must appear in the snapshot with the exact weight —
    // unless interference explains the miss or the drift.
    const auto batch_nbrs = batch.graph.OutNeighbors(u);
    const auto batch_weights = batch.graph.OutWeights(u);
    for (size_t i = 0; i < batch_nbrs.size(); ++i) {
      const NodeId v = batch_nbrs[i];
      if (!snap.graph.HasEdge(u, v) ||
          std::abs(snap.graph.EdgeWeight(u, v) - batch_weights[i]) >
              1e-12) {
        ASSERT_TRUE(has_interference(u, v))
            << "batch edge " << u << "->" << v
            << " missing or drifted in the snapshot without a "
               "third-party co-retweet to explain it";
        ++stale;
      } else {
        ++exact;
      }
    }
    // Snapshot-only edges are stale pairs by the same rule.
    for (const NodeId v : snap.graph.OutNeighbors(u)) {
      if (batch.graph.HasEdge(u, v)) continue;
      ASSERT_TRUE(has_interference(u, v))
          << "snapshot-only edge " << u << "->" << v
          << " without a third-party co-retweet to explain it";
      ++stale;
    }
  }
  // The characterisation is only meaningful if most pairs agreed exactly.
  EXPECT_GT(exact, 0);
  EXPECT_LT(stale, batch.graph.num_edges());
}

TEST(IncrementalSimGraphTest, InitializeMatchesBatchBuild) {
  // Initialize seeds from an all-core build; it must equal a
  // single-threaded batch build bit for bit, weights included.
  const Dataset& d = Shared();
  const int64_t end = d.num_retweets();
  IncrementalSimGraph inc(d.follow_graph, Opts());
  ASSERT_TRUE(inc.Initialize(d, end).ok());
  ProfileStore profiles(d, end);
  SimGraphOptions single = Opts();
  single.num_threads = 1;
  const SimGraph batch = BuildSimGraph(d.follow_graph, profiles, single);
  EXPECT_EQ(inc.num_edges(), batch.graph.num_edges());
  const SimGraph snap = inc.Snapshot();
  for (NodeId u = 0; u < batch.graph.num_nodes(); ++u) {
    const auto a = batch.graph.OutNeighbors(u);
    const auto b = snap.graph.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]);
      EXPECT_EQ(batch.graph.OutWeights(u)[i], snap.graph.OutWeights(u)[i]);
    }
  }
}

TEST(IncrementalSimGraphTest, AppliedPairsMatchFreshSimilarities) {
  // After streaming the last 10% of events, every edge between a pair
  // that co-retweeted during that window must carry the fresh similarity.
  const Dataset& d = Shared();
  const int64_t split = d.SplitIndex(0.9);
  IncrementalSimGraph inc(d.follow_graph, Opts());
  ASSERT_TRUE(inc.Initialize(d, split).ok());
  for (int64_t i = split; i < d.num_retweets(); ++i) {
    inc.Apply(d.retweets[static_cast<size_t>(i)]);
  }
  EXPECT_GT(inc.stats().events_applied, 0);

  // Pairs that co-retweeted in the window.
  ProfileStore final_profiles(d, d.num_retweets());
  const SimGraph snap = inc.Snapshot();
  std::set<std::pair<UserId, UserId>> touched;
  {
    std::unordered_map<TweetId, std::vector<UserId>> by_tweet;
    for (int64_t i = 0; i < d.num_retweets(); ++i) {
      const RetweetEvent& e = d.retweets[static_cast<size_t>(i)];
      if (i >= split) {
        for (UserId v : by_tweet[e.tweet]) {
          touched.emplace(e.user, v);
          touched.emplace(v, e.user);
        }
      }
      by_tweet[e.tweet].push_back(e.user);
    }
  }
  // Guarantee 1: every stored weight passed the tau gate when written.
  for (NodeId u = 0; u < snap.graph.num_nodes(); ++u) {
    for (double w : snap.graph.OutWeights(u)) {
      ASSERT_GE(w, Opts().tau);
    }
  }

  // Guarantee 2 (exactness): a touched pair whose endpoints have no later
  // events and whose shared tweets receive no later retweets carries the
  // exact fresh similarity — nothing could have drifted it.
  std::vector<int64_t> last_event_of(static_cast<size_t>(d.num_users()),
                                     -1);
  for (int64_t i = 0; i < d.num_retweets(); ++i) {
    last_event_of[static_cast<size_t>(
        d.retweets[static_cast<size_t>(i)].user)] = i;
  }
  std::unordered_map<TweetId, int64_t> last_retweet_of_tweet;
  for (int64_t i = 0; i < d.num_retweets(); ++i) {
    last_retweet_of_tweet[d.retweets[static_cast<size_t>(i)].tweet] = i;
  }
  int exact_verified = 0;
  for (const auto& [u, v] : touched) {
    if (!snap.graph.HasEdge(u, v)) continue;
    const int64_t pair_last = std::max(
        last_event_of[static_cast<size_t>(u)],
        last_event_of[static_cast<size_t>(v)]);
    // Shared tweets must have their final retweet at or before pair_last.
    bool interference = false;
    const auto pu = final_profiles.Profile(u);
    const auto pv = final_profiles.Profile(v);
    size_t i = 0;
    size_t j = 0;
    while (i < pu.size() && j < pv.size()) {
      if (pu[i] < pv[j]) {
        ++i;
      } else if (pv[j] < pu[i]) {
        ++j;
      } else {
        if (last_retweet_of_tweet[pu[i]] > pair_last) interference = true;
        ++i;
        ++j;
      }
    }
    if (interference) continue;
    ASSERT_NEAR(snap.graph.EdgeWeight(u, v),
                final_profiles.Similarity(u, v), 1e-12);
    ++exact_verified;
  }
  EXPECT_GT(exact_verified, 0);
}

TEST(IncrementalSimGraphTest, NewEdgeAppearsAfterCoRetweet) {
  // Hand-built: users 0,1 follow each other and the author 2.
  Dataset d;
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  d.follow_graph = b.Build();
  d.tweets = {Tweet{0, 2, 0, 0}};
  d.retweets = {RetweetEvent{0, 0, 10}, RetweetEvent{0, 1, 20}};
  SIMGRAPH_CHECK_OK(d.Validate());

  IncrementalSimGraph inc(d.follow_graph, Opts(1e-6));
  ASSERT_TRUE(inc.Initialize(d, 1).ok());  // only user 0 retweeted
  EXPECT_EQ(inc.num_edges(), 0);
  inc.Apply(d.retweets[1]);  // user 1 co-retweets
  EXPECT_EQ(inc.num_edges(), 2);  // 0->1 and 1->0
  const SimGraph snap = inc.Snapshot();
  ProfileStore fresh(d, 2);
  EXPECT_NEAR(snap.graph.EdgeWeight(0, 1), fresh.Similarity(0, 1), 1e-12);
  EXPECT_NEAR(snap.graph.EdgeWeight(1, 0), fresh.Similarity(1, 0), 1e-12);
  EXPECT_EQ(inc.stats().edges_inserted, 2);
}

TEST(IncrementalSimGraphTest, TwoHopConstraintEnforced) {
  // Users 0 and 1 co-retweet but are NOT within 2 hops of each other:
  // no edge may appear.
  Dataset d;
  GraphBuilder b(4);
  b.AddEdge(0, 2);  // 0 -> author only
  b.AddEdge(1, 3);  // 1 -> another account
  b.AddEdge(3, 2);  // so 1 reaches 2 in 2 hops, but never 0
  d.follow_graph = b.Build();
  d.tweets = {Tweet{0, 2, 0, 0}};
  d.retweets = {RetweetEvent{0, 0, 10}, RetweetEvent{0, 1, 20}};
  SIMGRAPH_CHECK_OK(d.Validate());

  IncrementalSimGraph inc(d.follow_graph, Opts(1e-6));
  ASSERT_TRUE(inc.Initialize(d, 1).ok());
  inc.Apply(d.retweets[1]);
  EXPECT_EQ(inc.num_edges(), 0);
}

TEST(IncrementalSimGraphTest, EdgeDroppedWhenSimilarityFallsBelowTau) {
  // Users 0,1 share tweet 0 (edge exists). User 1 then retweets many
  // other tweets, shrinking the Jaccard until it crosses tau.
  Dataset d;
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  d.follow_graph = b.Build();
  for (TweetId t = 0; t < 12; ++t) {
    d.tweets.push_back(Tweet{t, 2, t, 0});
  }
  d.retweets.push_back(RetweetEvent{0, 0, 100});
  d.retweets.push_back(RetweetEvent{0, 1, 101});
  for (TweetId t = 1; t < 12; ++t) {
    d.retweets.push_back(RetweetEvent{t, 1, 101 + t});
  }
  SIMGRAPH_CHECK_OK(d.Validate());

  // tau chosen between sim-with-2-tweets and sim-with-12-tweets.
  ProfileStore two_events(d, 2);
  const double initial_sim = two_events.Similarity(0, 1);
  IncrementalSimGraph inc(d.follow_graph, Opts(initial_sim * 0.5));
  ASSERT_TRUE(inc.Initialize(d, 2).ok());
  EXPECT_EQ(inc.num_edges(), 2);
  for (size_t i = 2; i < d.retweets.size(); ++i) {
    // Each solo retweet by user 1 grows |L_1|, diluting sim(0,1); the
    // maintainer refreshes 1's incident edges on every event and drops
    // them once the score crosses tau.
    inc.Apply(d.retweets[i]);
  }
  EXPECT_GT(inc.stats().pairs_rescored, 0);
  EXPECT_EQ(inc.num_edges(), 0);
  EXPECT_EQ(inc.stats().edges_dropped, 2);

  // Verify against ground truth: the final similarity really is below
  // the chosen tau.
  ProfileStore final_profiles(d, d.num_retweets());
  EXPECT_LT(final_profiles.Similarity(0, 1), initial_sim * 0.5);
}

TEST(IncrementalSimGraphTest, CheaperThanRebuild) {
  const Dataset& d = Shared();
  const int64_t split = d.SplitIndex(0.95);
  IncrementalSimGraph inc(d.follow_graph, Opts());
  ASSERT_TRUE(inc.Initialize(d, split).ok());
  for (int64_t i = split; i < d.num_retweets(); ++i) {
    inc.Apply(d.retweets[static_cast<size_t>(i)]);
  }
  // Work is proportional to co-retweet pairs, not to |V| x ball size.
  const int64_t window = d.num_retweets() - split;
  EXPECT_LT(inc.stats().pairs_rescored, window * 200);
}

TEST(IncrementalSimGraphTest, InitializeValidatesInput) {
  const Dataset& d = Shared();
  IncrementalSimGraph inc(d.follow_graph, Opts());
  EXPECT_FALSE(inc.Initialize(d, -1).ok());
  EXPECT_FALSE(inc.Initialize(d, d.num_retweets() + 1).ok());
}

}  // namespace
}  // namespace simgraph
