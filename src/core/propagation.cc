#include "core/propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {

double DynamicThreshold::Evaluate(int64_t m) const {
  if (m <= 0) return 0.0;
  const double mp = std::pow(static_cast<double>(m), p);
  return mp / (std::pow(k, p) + mp);
}

void PropagationScratch::Reserve(NodeId num_nodes) {
  const size_t n = static_cast<size_t>(num_nodes);
  if (score_.size() >= n) return;
  score_.resize(n, 0.0);
  value_.resize(n, 0.0);
  score_stamp_.resize(n, 0);
  seed_stamp_.resize(n, 0);
  gen_stamp_.resize(n, 0);
  row_.resize(n, 0);
  SIMGRAPH_COUNTER_ADD("propagation.scratch.grows", 1);
  SIMGRAPH_GAUGE_SET("propagation.scratch.bytes",
                     static_cast<double>(MemoryBytes()));
}

int64_t PropagationScratch::MemoryBytes() const {
  auto bytes = [](const auto& v) {
    return static_cast<int64_t>(
        v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  return bytes(score_) + bytes(value_) + bytes(score_stamp_) +
         bytes(seed_stamp_) + bytes(gen_stamp_) + bytes(row_) +
         bytes(frontier_) + bytes(next_frontier_) + bytes(affected_) +
         bytes(seeds_) + bytes(update_) + bytes(touched_);
}

void PropagationScratch::BeginRun(NodeId num_nodes) {
  Reserve(num_nodes);
  if (run_epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(score_stamp_.begin(), score_stamp_.end(), 0);
    std::fill(seed_stamp_.begin(), seed_stamp_.end(), 0);
    run_epoch_ = 0;
    ++epoch_resets_;
    SIMGRAPH_COUNTER_ADD("propagation.scratch.epoch_resets", 1);
  }
  ++run_epoch_;
}

uint32_t PropagationScratch::BeginGeneration() {
  if (gen_epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(gen_stamp_.begin(), gen_stamp_.end(), 0);
    gen_epoch_ = 0;
    ++epoch_resets_;
    SIMGRAPH_COUNTER_ADD("propagation.scratch.epoch_resets", 1);
  }
  return ++gen_epoch_;
}

Propagator::Propagator(const SimGraph& sim_graph) : sim_graph_(&sim_graph) {}

PropagationResult Propagator::Propagate(
    const std::vector<UserId>& seeds, int64_t popularity,
    const PropagationOptions& options) const {
  PropagationScratch scratch;
  return Propagate(seeds, popularity, options, scratch);
}

PropagationResult Propagator::Propagate(const std::vector<UserId>& seeds,
                                        int64_t popularity,
                                        const PropagationOptions& options,
                                        PropagationScratch& scratch) const {
  PropagationResult result;
  PropagateInto(seeds, popularity, options, scratch, &result);
  return result;
}

void Propagator::PropagateInto(const std::vector<UserId>& seeds,
                               int64_t popularity,
                               const PropagationOptions& options,
                               PropagationScratch& scratch,
                               PropagationResult* result) const {
  SIMGRAPH_TRACE_SPAN("Propagator::Propagate", "propagation");
  SIMGRAPH_SCOPED_LATENCY("propagation.run_seconds");
  const Digraph& g = sim_graph_->graph;
  result->scores.clear();
  result->iterations = 0;
  result->updates = 0;
  result->converged = false;

  scratch.BeginRun(g.num_nodes());
  auto& frontier = scratch.frontier_;
  auto& next_frontier = scratch.next_frontier_;
  auto& affected = scratch.affected_;
  auto& seed_list = scratch.seeds_;
  auto& update = scratch.update_;
  auto& touched = scratch.touched_;
  frontier.clear();
  touched.clear();

  for (UserId s : seeds) {
    SIMGRAPH_CHECK_GE(s, 0);
    SIMGRAPH_CHECK_LT(s, g.num_nodes());
    if (!scratch.IsSeed(s)) {
      scratch.MarkSeed(s);
      frontier.push_back(s);
    }
  }
  if (frontier.empty()) {
    result->converged = true;
    return;
  }
  // Frontier order is unobservable: each round reads only the previous
  // round's value_, and `touched` is sorted before results are emitted.
  // The frontier vector is consumed by the iteration loop; keep the deduped
  // seed list around for per-iteration gen pre-stamping and the value_
  // cleanup at the end of the run.
  seed_list.assign(frontier.begin(), frontier.end());
  // value_ is all-zero here (the invariant this function re-establishes on
  // every exit path below); pin the seeds at 1.0 for the gather loop.
  for (UserId s : seed_list) scratch.value_[static_cast<size_t>(s)] = 1.0;

  const double propagation_threshold =
      options.dynamic.enabled
          ? options.dynamic.Evaluate(popularity) * options.dynamic_scale
          : options.beta;

  // Per-iteration convergence stats are only worth their clock calls
  // when someone is listening; the flag is sampled once per run.
  const bool metrics_on = metrics::Enabled();
  WallTimer iteration_timer;

  bool converged = false;
  int32_t it = 0;
  for (; it < options.max_iterations && !frontier.empty(); ++it) {
    if (metrics_on) {
      iteration_timer.Restart();
      SIMGRAPH_HISTOGRAM_RECORD("propagation.frontier_size",
                                static_cast<double>(frontier.size()));
    }
    // Affected users: those influenced by a frontier member, i.e. the
    // in-neighbours in the SimGraph (edge u->v means v influences u).
    // Deduplicated by generation stamp; one generation per iteration.
    // Pre-stamping the seeds folds the seed exclusion into the same stamp
    // test, so the per-edge body is one load + one branch.
    const uint32_t gen = scratch.BeginGeneration();
    for (UserId s : seed_list) {
      scratch.gen_stamp_[static_cast<size_t>(s)] = gen;
    }
    affected.clear();
    for (UserId v : frontier) {
      for (UserId u : g.InNeighbors(v)) {
        uint32_t& stamp = scratch.gen_stamp_[static_cast<size_t>(u)];
        if (stamp == gen) continue;
        stamp = gen;
        affected.push_back(u);
      }
    }

    // Jacobi-style round: evaluate all affected users against the scores
    // of the previous round (Algorithm 1 line 10). The per-round values
    // do not depend on the enumeration order of `affected` because reads
    // go through value_, which is only written in the apply loop below.
    // value_ holds every node's effective score densely, so the gather is
    // branch-free, and the sequential add order keeps it bit-identical
    // to the reference.
    update.clear();
    const double* const value = scratch.value_.data();
    for (UserId u : affected) {
      const auto nbrs = g.OutNeighbors(u);
      const auto weights = g.OutWeights(u);
      double acc = 0.0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        acc += value[nbrs[i]] * weights[i];
      }
      update.push_back(acc / static_cast<double>(nbrs.size()));
    }

    next_frontier.clear();
    double residual = 0.0;  // largest score move this iteration
    for (size_t k = 0; k < affected.size(); ++k) {
      const UserId u = affected[k];
      const double p_new = update[k];
      // Affected users are never seeds, so value_ is their ScoreOf.
      const double p_old = scratch.value_[static_cast<size_t>(u)];
      const double delta = std::abs(p_new - p_old);
      residual = std::max(residual, delta);
      if (delta <= options.epsilon) continue;
      if (!scratch.HasScore(u)) {
        scratch.score_stamp_[static_cast<size_t>(u)] = scratch.run_epoch_;
        touched.push_back(u);
      }
      scratch.score_[static_cast<size_t>(u)] = p_new;
      scratch.value_[static_cast<size_t>(u)] = p_new;
      ++result->updates;
      // The static/dynamic threshold gates further propagation, not the
      // score update itself (Section 5.4).
      if (delta >= propagation_threshold) next_frontier.push_back(u);
    }
    if (metrics_on) {
      SIMGRAPH_HISTOGRAM_RECORD("propagation.iteration_seconds",
                                iteration_timer.ElapsedSeconds());
      SIMGRAPH_HISTOGRAM_RECORD("propagation.residual", residual);
    }
    if (next_frontier.empty()) {
      converged = true;
      ++it;
      break;
    }
    frontier.swap(next_frontier);
  }

  result->iterations = it;
  result->converged = converged || frontier.empty();
  SIMGRAPH_COUNTER_ADD("propagation.runs", 1);
  SIMGRAPH_COUNTER_ADD("propagation.iterations", it);
  SIMGRAPH_COUNTER_ADD("propagation.updates", result->updates);
  if (result->converged) SIMGRAPH_COUNTER_ADD("propagation.converged", 1);
  // `touched` holds exactly the users with a stored score this run; sort it
  // so the reported scores are deterministically ordered by user id.
  std::sort(touched.begin(), touched.end());
  for (UserId u : touched) {
    const double p = scratch.score_[static_cast<size_t>(u)];
    if (p > 0.0) result->scores.push_back(UserScore{u, p});
  }
  // Re-establish the all-zero value_ invariant: exactly the seeds and the
  // scored users were written above.
  for (UserId s : seed_list) scratch.value_[static_cast<size_t>(s)] = 0.0;
  for (UserId u : touched) scratch.value_[static_cast<size_t>(u)] = 0.0;
}

std::vector<PropagationResult> Propagator::PropagateBatch(
    const std::vector<std::vector<UserId>>& seed_sets,
    const PropagationOptions& options, ThreadPool& pool) const {
  SIMGRAPH_TRACE_SPAN("Propagator::PropagateBatch", "propagation");
  SIMGRAPH_SCOPED_LATENCY("propagation.batch.seconds");
  std::vector<PropagationResult> results(seed_sets.size());
  // One scratch per pool worker: chunks on the same worker run
  // sequentially, so each scratch is only ever touched by one thread.
  std::vector<PropagationScratch> scratches(
      static_cast<size_t>(pool.num_threads()));
  ParallelFor(pool, static_cast<int64_t>(seed_sets.size()),
              [&](int64_t begin, int64_t end) {
                const int worker = ThreadPool::CurrentWorkerIndex();
                PropagationScratch fallback;
                PropagationScratch& scratch =
                    worker >= 0 ? scratches[static_cast<size_t>(worker)]
                                : fallback;
                for (int64_t i = begin; i < end; ++i) {
                  const auto& seeds = seed_sets[static_cast<size_t>(i)];
                  PropagateInto(seeds, static_cast<int64_t>(seeds.size()),
                                options, scratch,
                                &results[static_cast<size_t>(i)]);
                }
              });
  return results;
}

SparseMatrix BuildPropagationSystem(const SimGraph& sim_graph,
                                    const std::vector<UserId>& seeds,
                                    std::vector<UserId>* users,
                                    std::vector<double>* b,
                                    PropagationScratch* scratch) {
  SIMGRAPH_CHECK(users != nullptr);
  SIMGRAPH_CHECK(b != nullptr);
  const Digraph& g = sim_graph.graph;

  PropagationScratch local;
  PropagationScratch& s = scratch != nullptr ? *scratch : local;
  s.BeginRun(g.num_nodes());

  // Deduplicated, sorted seed list; membership via seed stamps.
  auto& sorted_seeds = s.frontier_;
  sorted_seeds.clear();
  for (UserId v : seeds) {
    SIMGRAPH_CHECK_GE(v, 0);
    SIMGRAPH_CHECK_LT(v, g.num_nodes());
    if (!s.IsSeed(v)) {
      s.MarkSeed(v);
      sorted_seeds.push_back(v);
    }
  }
  std::sort(sorted_seeds.begin(), sorted_seeds.end());

  // Reverse-reachable closure from the seeds: everyone whose score can be
  // non-zero. Edge u->v means v influences u, so influence flows along
  // in-neighbour chains. Rows are assigned in BFS discovery order from the
  // sorted seed list, which is deterministic. The output vector doubles as
  // the BFS queue (push order == discovery order); row membership reuses
  // the score stamps, row indices live in the dense row_ array.
  std::vector<UserId>& final_order = *users;
  final_order.clear();
  auto visit = [&](UserId v) {
    if (s.HasScore(v)) return;
    s.score_stamp_[static_cast<size_t>(v)] = s.run_epoch_;
    s.row_[static_cast<size_t>(v)] = static_cast<int32_t>(final_order.size());
    final_order.push_back(v);
  };
  for (UserId v : sorted_seeds) visit(v);
  for (size_t head = 0; head < final_order.size(); ++head) {
    const UserId v = final_order[head];
    for (UserId u : g.InNeighbors(v)) visit(u);
  }

  const size_t n = final_order.size();
  std::vector<double> diag(n, 1.0);
  std::vector<std::vector<MatrixEntry>> rows(n);
  b->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const UserId u = final_order[i];
    if (s.IsSeed(u)) {
      (*b)[i] = 1.0;  // clamped identity row
      continue;
    }
    const auto nbrs = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    const double inv_deg =
        nbrs.empty() ? 0.0 : 1.0 / static_cast<double>(nbrs.size());
    for (size_t j = 0; j < nbrs.size(); ++j) {
      const UserId w = nbrs[j];
      if (!s.HasScore(w)) continue;  // influencer with provably-zero score
      rows[i].push_back(MatrixEntry{s.row_[static_cast<size_t>(w)],
                                    -weights[j] * inv_deg});
    }
  }
  return SparseMatrix(std::move(diag), rows);
}

}  // namespace simgraph
