#ifndef SIMGRAPH_CORE_PROPAGATION_H_
#define SIMGRAPH_CORE_PROPAGATION_H_

#include <cstdint>
#include <vector>

#include "core/simgraph.h"
#include "dataset/types.h"
#include "solver/sparse_matrix.h"
#include "util/status.h"

namespace simgraph {

/// Dynamic propagation threshold gamma(t) of Section 5.4: a Hill function
/// of the tweet's popularity m(t),
///
///   gamma(t) = m(t)^p / (k^p + m(t)^p)
///
/// close to 0 for fresh/unpopular tweets (propagate eagerly, recommend
/// early) and close to 1 for already-popular ones (stop early, they are
/// everywhere anyway).
struct DynamicThreshold {
  bool enabled = false;
  double k = 50.0;
  double p = 2.0;

  /// Evaluates gamma for popularity `m`, scaled into an absolute score
  /// threshold by `scale` (gamma itself lies in [0,1] which would swamp
  /// typical scores; scale maps it onto the score magnitude range).
  double Evaluate(int64_t m) const;
};

/// Parameters of the iterative propagation (Algorithm 1 + Section 5.4).
struct PropagationOptions {
  /// Convergence: stop when no score changes by more than this between
  /// iterations (the paper's "no probabilities change", made float-safe).
  double epsilon = 1e-9;
  /// Static threshold beta: a user whose score changed by less than beta
  /// stops propagating to his followers. 0 disables the optimisation.
  double beta = 0.0;
  /// Dynamic popularity-based threshold gamma(t); when enabled it
  /// overrides beta with gamma(t) * dynamic_scale.
  DynamicThreshold dynamic;
  /// Scale applied to gamma(t) to turn it into a score threshold.
  double dynamic_scale = 1e-3;
  int32_t max_iterations = 100;
};

/// One user's propagated score.
struct UserScore {
  UserId user = kInvalidNode;
  double score = 0.0;
};

/// Result of propagating one tweet through the similarity graph.
struct PropagationResult {
  /// Non-zero scores for users not in the seed set D, sorted by user id.
  std::vector<UserScore> scores;
  int32_t iterations = 0;
  /// Number of score updates applied (work measure for the ablations).
  int64_t updates = 0;
  bool converged = false;
};

class Propagator;
class PropagationScratch;

/// Builds the linear system A p = b of Section 5.2 restricted to the
/// subgraph reachable (against edge direction) from the seeds:
///   a_ii = 1,
///   a_ij = -sim(u_i, u_j)/|F_{u_i}| for SimGraph edges u_i -> u_j,
///   b_i  = 1 if u_i retweeted t else 0.
/// Seed rows are clamped (identity row, b = 1) so the solution matches the
/// iterative algorithm, which never re-computes seed scores.
/// `users` receives the user id of each matrix row. Pass a
/// PropagationScratch to reuse the seed/row membership arrays across
/// calls; with nullptr a call-local scratch is used.
SparseMatrix BuildPropagationSystem(const SimGraph& sim_graph,
                                    const std::vector<UserId>& seeds,
                                    std::vector<UserId>* users,
                                    std::vector<double>* b,
                                    PropagationScratch* scratch = nullptr);

/// Reusable dense workspace for the propagation kernel.
///
/// The original implementation built fresh `unordered_set`/`unordered_map`
/// instances per Propagate call and per iteration; at serving rates that
/// hashing and allocation dominated the ingest hot path. The scratch
/// replaces every hash container with flat arrays sized to the graph's
/// node count, invalidated in O(1) by bumping a 32-bit epoch instead of
/// clearing:
///
///   * seed membership        -> seed_stamp_[u] == run_epoch_
///   * sparse score map       -> score_[u], valid iff
///                               score_stamp_[u] == run_epoch_
///   * per-iteration affected -> gen_stamp_[u] == gen_epoch_
///     dedup                     (gen_epoch_ bumps every iteration)
///   * BuildPropagationSystem -> row_[u], valid iff
///     row map                   score_stamp_[u] == run_epoch_
///
/// The gather inner loop additionally reads a dense `value_` array holding
/// every node's effective score (seeds pinned at 1.0, scored nodes at
/// their latest score, everything else 0.0). Raw doubles cannot be
/// epoch-stamped, so PropagateInto maintains the all-zero-between-runs
/// invariant itself: it writes seeds/scores during the run and re-zeroes
/// exactly the touched entries before returning. That turns the hot
/// accumulate loop into a branch-free contiguous gather
/// (value[nbr] * weight) instead of three dependent stamped loads per
/// neighbour.
///
/// plus reusable frontier/update/touched vectors whose capacity sticks
/// across calls. After a warm-up call on a given graph, Propagate with
/// the same scratch performs zero heap allocations
/// (tests/core/propagation_alloc_test.cc asserts this).
///
/// A scratch is single-threaded state: one per worker/applier thread.
/// It may be reused freely across Propagator instances and graphs of any
/// size (the arrays grow monotonically). Epoch wraparound — once every
/// 2^32 - 1 runs — triggers a full O(n) stamp clear, counted by
/// epoch_resets() and the propagation.scratch.epoch_resets metric.
class PropagationScratch {
 public:
  PropagationScratch() = default;
  PropagationScratch(const PropagationScratch&) = delete;
  PropagationScratch& operator=(const PropagationScratch&) = delete;
  PropagationScratch(PropagationScratch&&) = default;
  PropagationScratch& operator=(PropagationScratch&&) = default;

  /// Grows the dense arrays to cover `num_nodes` nodes (never shrinks).
  /// Propagate calls this automatically; calling it up front merely
  /// front-loads the allocation.
  void Reserve(NodeId num_nodes);

  /// Bytes currently held by the dense arrays and reusable vectors.
  int64_t MemoryBytes() const;

  /// Number of O(n) epoch-wraparound clears performed so far.
  int64_t epoch_resets() const { return epoch_resets_; }

 private:
  friend class Propagator;
  friend SparseMatrix BuildPropagationSystem(const SimGraph&,
                                             const std::vector<UserId>&,
                                             std::vector<UserId>*,
                                             std::vector<double>*,
                                             PropagationScratch*);

  /// Starts a new run: grows the arrays and bumps the run epoch.
  void BeginRun(NodeId num_nodes);
  /// Starts a new dedup generation (one per iteration) within a run.
  uint32_t BeginGeneration();

  bool IsSeed(NodeId u) const {
    return seed_stamp_[static_cast<size_t>(u)] == run_epoch_;
  }
  void MarkSeed(NodeId u) {
    seed_stamp_[static_cast<size_t>(u)] = run_epoch_;
  }
  bool HasScore(NodeId u) const {
    return score_stamp_[static_cast<size_t>(u)] == run_epoch_;
  }
  /// Score under the seeds-pinned-at-1 convention of Algorithm 1.
  double ScoreOf(NodeId u) const {
    if (IsSeed(u)) return 1.0;
    return HasScore(u) ? score_[static_cast<size_t>(u)] : 0.0;
  }

  std::vector<double> score_;
  std::vector<double> value_;  // dense gather array; all-zero between runs
  std::vector<uint32_t> score_stamp_;
  std::vector<uint32_t> seed_stamp_;
  std::vector<uint32_t> gen_stamp_;
  std::vector<int32_t> row_;  // BuildPropagationSystem row indices
  std::vector<UserId> frontier_;
  std::vector<UserId> next_frontier_;
  std::vector<UserId> affected_;
  std::vector<UserId> seeds_;    // deduped seeds of the current run
  std::vector<double> update_;   // parallel to affected_
  std::vector<UserId> touched_;  // users scored this run, insertion order
  uint32_t run_epoch_ = 0;  // 0 is never valid: fresh stamps are 0
  uint32_t gen_epoch_ = 0;
  int64_t epoch_resets_ = 0;
};

/// Iterative propagation engine over a SimGraph (Algorithm 1).
///
/// Given the seed set D of users who retweeted tweet t (p(v,t) = 1 for
/// v in D, fixed), repeatedly sets for every other user u
///
///   p(u,t) = ( sum_{v in Fu} p(v,t) * sim(u,v) ) / |Fu|
///
/// where Fu are u's influential users (out-neighbours in the SimGraph),
/// until no score moves by more than epsilon. The implementation is
/// frontier-based: only users whose inputs changed are re-evaluated, which
/// is what makes per-message propagation cheap (Table 5's 38 ms/message at
/// the paper's scale). The kernel is allocation-free in steady state when
/// the caller supplies a warm PropagationScratch.
class Propagator {
 public:
  /// The SimGraph must outlive the propagator.
  explicit Propagator(const SimGraph& sim_graph);

  /// Propagates from the seed set `seeds` (users with p = 1). Duplicate
  /// seeds are ignored. `popularity` is m(t), used by the dynamic
  /// threshold (pass seeds.size() when in doubt). This convenience
  /// overload allocates a call-local scratch; hot paths should hold a
  /// PropagationScratch and use the overloads below.
  PropagationResult Propagate(const std::vector<UserId>& seeds,
                              int64_t popularity,
                              const PropagationOptions& options) const;

  /// Same, reusing `scratch` (the result vector is still fresh per call).
  PropagationResult Propagate(const std::vector<UserId>& seeds,
                              int64_t popularity,
                              const PropagationOptions& options,
                              PropagationScratch& scratch) const;

  /// The zero-allocation form: reuses both `scratch` and `result`
  /// (cleared and refilled; its capacity sticks across calls). This is
  /// the per-event ingest hot path of the serving layer.
  void PropagateInto(const std::vector<UserId>& seeds, int64_t popularity,
                     const PropagationOptions& options,
                     PropagationScratch& scratch,
                     PropagationResult* result) const;

  /// Propagates many messages concurrently on `pool` (the paper processes
  /// the message stream on 70 cores). results[i] corresponds to
  /// seed_sets[i]; identical to calling Propagate per set. Each pool
  /// worker reuses one PropagationScratch across all its chunks.
  std::vector<PropagationResult> PropagateBatch(
      const std::vector<std::vector<UserId>>& seed_sets,
      const PropagationOptions& options, ThreadPool& pool) const;

  const SimGraph& sim_graph() const { return *sim_graph_; }

 private:
  const SimGraph* sim_graph_;
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_PROPAGATION_H_
