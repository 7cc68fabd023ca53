// Randomized equivalence suite for the epoch-stamped propagation kernel:
// the optimised Propagate/PropagateInto must be bit-identical — scores,
// iteration counts, update counts, convergence flags — to the original
// hash-container implementation, preserved verbatim in
// tests/core/reference_propagate.h as ReferencePropagate. Scores are
// compared exactly (==, not NEAR): the kernel keeps the reference's
// CSR-order accumulation precisely so no floating-point drift is allowed.

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/propagation.h"
#include "graph/graph_builder.h"
#include "reference_propagate.h"
#include "util/random.h"

namespace simgraph {
namespace {

SimGraph RandomSimGraph(uint64_t seed, NodeId n, int64_t edges) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int64_t i = 0; i < edges; ++i) {
    const NodeId u =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(n)));
    const NodeId v =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v, 0.05 + 0.9 * rng.NextDouble());
  }
  SimGraph sg;
  sg.graph = b.Build(/*weighted=*/true);
  return sg;
}

std::vector<UserId> RandomSeeds(Rng& rng, NodeId n, int32_t count) {
  std::vector<UserId> seeds;
  for (int32_t i = 0; i < count; ++i) {
    seeds.push_back(
        static_cast<UserId>(rng.NextBounded(static_cast<uint64_t>(n))));
  }
  return seeds;
}

std::map<UserId, double> ToMap(const PropagationResult& r) {
  std::map<UserId, double> m;
  for (const UserScore& us : r.scores) m[us.user] = us.score;
  return m;
}

// Exact equality in every observable field. The reference emits scores in
// hash order, the kernel in user-id order, so scores compare as maps.
void ExpectIdentical(const PropagationResult& kernel,
                     const PropagationResult& reference) {
  EXPECT_EQ(kernel.iterations, reference.iterations);
  EXPECT_EQ(kernel.updates, reference.updates);
  EXPECT_EQ(kernel.converged, reference.converged);
  const auto a = ToMap(kernel);
  const auto b = ToMap(reference);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [u, p] : a) {
    const auto it = b.find(u);
    ASSERT_NE(it, b.end()) << "kernel scored user " << u
                           << " the reference did not";
    EXPECT_EQ(it->second, p) << "score mismatch for user " << u;
  }
}

// Kernel scores must come out sorted by user id (the documented ordering
// contract the reference never provided).
void ExpectSortedByUser(const PropagationResult& r) {
  for (size_t i = 1; i < r.scores.size(); ++i) {
    EXPECT_LT(r.scores[i - 1].user, r.scores[i].user);
  }
}

// The core sweep: >= 100 random graphs x an options matrix covering
// static beta, dynamic threshold on/off, and epsilon edge cases, all run
// through one reused scratch (so any stale-state bug between runs of
// different graphs/options shows up as a mismatch).
TEST(PropagationEquivalence, RandomizedSweepMatchesReference) {
  PropagationScratch scratch;
  int64_t graphs = 0;
  for (uint64_t g = 1; g <= 25; ++g) {
    Rng rng(1000 + g);
    const NodeId n = 20 + static_cast<NodeId>(rng.NextBounded(180));
    const int64_t edges =
        n + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(8 * n)));
    for (int variant = 0; variant < 4; ++variant) {
      const SimGraph sg = RandomSimGraph(g * 37 + variant, n, edges);
      ++graphs;
      Propagator prop(sg);
      const std::vector<UserId> seeds =
          RandomSeeds(rng, n, 1 + static_cast<int32_t>(rng.NextBounded(6)));
      const int64_t popularity = static_cast<int64_t>(seeds.size());

      std::vector<PropagationOptions> matrix;
      matrix.emplace_back();  // defaults
      {
        PropagationOptions o;
        o.beta = 1e-3;
        matrix.push_back(o);
      }
      {
        PropagationOptions o;
        o.dynamic.enabled = true;
        o.dynamic.k = 3.0;
        o.dynamic.p = 2.0;
        o.dynamic_scale = 1e-2;
        matrix.push_back(o);
      }
      {
        PropagationOptions o;  // coarse epsilon: many deltas land below it
        o.epsilon = 1e-2;
        matrix.push_back(o);
      }
      {
        PropagationOptions o;  // epsilon = 0: only exact fixpoints stop
        o.epsilon = 0.0;
        o.max_iterations = 50;
        matrix.push_back(o);
      }
      for (const PropagationOptions& opts : matrix) {
        const PropagationResult kernel =
            prop.Propagate(seeds, popularity, opts, scratch);
        const PropagationResult reference =
            testing::ReferencePropagate(sg, seeds, popularity, opts);
        ExpectIdentical(kernel, reference);
        ExpectSortedByUser(kernel);
      }
    }
  }
  EXPECT_GE(graphs, 100);
}

TEST(PropagationEquivalence, EmptySeeds) {
  const SimGraph sg = RandomSimGraph(7, 50, 300);
  Propagator prop(sg);
  PropagationScratch scratch;
  const PropagationResult kernel =
      prop.Propagate({}, 0, PropagationOptions{}, scratch);
  const PropagationResult reference =
      testing::ReferencePropagate(sg, {}, 0, PropagationOptions{});
  ExpectIdentical(kernel, reference);
  EXPECT_TRUE(kernel.converged);
  EXPECT_EQ(kernel.iterations, 0);
  EXPECT_TRUE(kernel.scores.empty());
}

TEST(PropagationEquivalence, DuplicateSeeds) {
  const SimGraph sg = RandomSimGraph(11, 80, 600);
  Propagator prop(sg);
  PropagationScratch scratch;
  const std::vector<UserId> seeds = {3, 3, 7, 3, 7, 12};
  const PropagationResult kernel =
      prop.Propagate(seeds, 3, PropagationOptions{}, scratch);
  const PropagationResult reference =
      testing::ReferencePropagate(sg, seeds, 3, PropagationOptions{});
  ExpectIdentical(kernel, reference);
}

TEST(PropagationEquivalence, DisconnectedSeedsProduceNoScores) {
  // Nodes 90..99 have no edges at all; seeding from them must terminate
  // immediately with an empty score set, exactly like the reference.
  GraphBuilder b(100);
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(90));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(90));
    if (u != v) b.AddEdge(u, v, 0.1 + 0.8 * rng.NextDouble());
  }
  SimGraph sg;
  sg.graph = b.Build(/*weighted=*/true);
  Propagator prop(sg);
  PropagationScratch scratch;
  const std::vector<UserId> seeds = {92, 95, 99};
  const PropagationResult kernel =
      prop.Propagate(seeds, 3, PropagationOptions{}, scratch);
  const PropagationResult reference =
      testing::ReferencePropagate(sg, seeds, 3, PropagationOptions{});
  ExpectIdentical(kernel, reference);
  EXPECT_TRUE(kernel.scores.empty());
  EXPECT_TRUE(kernel.converged);
}

TEST(PropagationEquivalence, ScratchReuseMatchesFreshScratch) {
  // Back-to-back runs through one scratch — alternating graphs of
  // different sizes and seed sets — must match runs with a fresh scratch
  // each time (no state leaks across runs via stale stamps).
  const SimGraph small = RandomSimGraph(21, 40, 250);
  const SimGraph large = RandomSimGraph(22, 200, 1600);
  Propagator prop_small(small);
  Propagator prop_large(large);
  PropagationScratch reused;
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    const bool use_small = (round % 2) == 0;
    const Propagator& prop = use_small ? prop_small : prop_large;
    const NodeId n = use_small ? 40 : 200;
    const std::vector<UserId> seeds =
        RandomSeeds(rng, n, 1 + static_cast<int32_t>(rng.NextBounded(5)));
    PropagationOptions opts;
    if (round % 3 == 1) opts.beta = 1e-3;
    if (round % 3 == 2) opts.dynamic.enabled = true;
    const PropagationResult warm =
        prop.Propagate(seeds, static_cast<int64_t>(seeds.size()), opts,
                       reused);
    PropagationScratch fresh;
    const PropagationResult cold =
        prop.Propagate(seeds, static_cast<int64_t>(seeds.size()), opts,
                       fresh);
    ExpectIdentical(warm, cold);
  }
}

TEST(PropagationEquivalence, PropagateIntoReusedResultMatches) {
  const SimGraph sg = RandomSimGraph(31, 120, 900);
  Propagator prop(sg);
  PropagationScratch scratch;
  PropagationResult reused;
  Rng rng(32);
  for (int round = 0; round < 20; ++round) {
    const std::vector<UserId> seeds =
        RandomSeeds(rng, 120, 1 + static_cast<int32_t>(rng.NextBounded(4)));
    prop.PropagateInto(seeds, static_cast<int64_t>(seeds.size()),
                       PropagationOptions{}, scratch, &reused);
    const PropagationResult reference = testing::ReferencePropagate(
        sg, seeds, static_cast<int64_t>(seeds.size()), PropagationOptions{});
    ExpectIdentical(reused, reference);
  }
}

TEST(PropagationEquivalence, BuildSystemSharedScratchMatchesFresh) {
  // BuildPropagationSystem with a reused scratch must produce exactly the
  // matrix/users/rhs of the scratch-free call (row order included).
  PropagationScratch scratch;
  Rng rng(41);
  for (int round = 0; round < 20; ++round) {
    const NodeId n = 30 + static_cast<NodeId>(rng.NextBounded(120));
    const SimGraph sg = RandomSimGraph(500 + static_cast<uint64_t>(round), n,
                                       6 * static_cast<int64_t>(n));
    const std::vector<UserId> seeds =
        RandomSeeds(rng, n, 1 + static_cast<int32_t>(rng.NextBounded(4)));

    std::vector<UserId> users_a, users_b;
    std::vector<double> b_a, b_b;
    const SparseMatrix with_scratch =
        BuildPropagationSystem(sg, seeds, &users_a, &b_a, &scratch);
    const SparseMatrix without =
        BuildPropagationSystem(sg, seeds, &users_b, &b_b);

    ASSERT_EQ(users_a, users_b);
    ASSERT_EQ(b_a, b_b);
    ASSERT_EQ(with_scratch.size(), without.size());
    for (int32_t row = 0; row < with_scratch.size(); ++row) {
      EXPECT_EQ(with_scratch.diagonal(row), without.diagonal(row));
      const auto ra = with_scratch.Row(row);
      const auto rb = without.Row(row);
      ASSERT_EQ(ra.size(), rb.size());
      for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].col, rb[i].col);
        EXPECT_EQ(ra[i].value, rb[i].value);
      }
    }
  }
}

TEST(PropagationEquivalence, BatchMatchesReference) {
  const SimGraph sg = RandomSimGraph(51, 150, 1100);
  Propagator prop(sg);
  std::vector<std::vector<UserId>> seed_sets;
  Rng rng(52);
  for (int i = 0; i < 40; ++i) {
    seed_sets.push_back(
        RandomSeeds(rng, 150, 1 + static_cast<int32_t>(rng.NextBounded(5))));
  }
  ThreadPool pool(4);
  const auto batch = prop.PropagateBatch(seed_sets, PropagationOptions{}, pool);
  ASSERT_EQ(batch.size(), seed_sets.size());
  for (size_t i = 0; i < seed_sets.size(); ++i) {
    const PropagationResult reference = testing::ReferencePropagate(
        sg, seed_sets[i], static_cast<int64_t>(seed_sets[i].size()),
        PropagationOptions{});
    ExpectIdentical(batch[i], reference);
  }
}

TEST(PropagationEquivalence, ScratchReservesAndReportsMemory) {
  PropagationScratch scratch;
  EXPECT_EQ(scratch.epoch_resets(), 0);
  scratch.Reserve(1000);
  // Six dense arrays sized to 1000 nodes at minimum (score, gather value,
  // three stamp arrays, row indices).
  EXPECT_GE(scratch.MemoryBytes(),
            static_cast<int64_t>(1000 * (2 * sizeof(double) +
                                         3 * sizeof(uint32_t) +
                                         sizeof(int32_t))));
}

}  // namespace
}  // namespace simgraph
