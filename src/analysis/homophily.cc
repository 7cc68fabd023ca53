#include "analysis/homophily.h"

#include <algorithm>
#include <unordered_map>

#include "graph/bfs.h"
#include "util/logging.h"

namespace simgraph {

HomophilyStudy RunHomophilyStudy(const Dataset& dataset,
                                 const ProfileStore& profiles,
                                 const HomophilyStudyOptions& options) {
  HomophilyStudy study;
  Rng rng(options.seed);

  // Candidate probe pool: users with enough retweets.
  std::vector<UserId> pool;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    if (profiles.ProfileSize(u) >= options.min_retweets) pool.push_back(u);
  }
  if (pool.empty()) return study;
  std::vector<UserId> probes;
  if (static_cast<int64_t>(pool.size()) <= options.num_probe_users) {
    probes = pool;
  } else {
    for (int64_t idx : SampleWithoutReplacement(
             rng, static_cast<int64_t>(pool.size()), options.num_probe_users)) {
      probes.push_back(pool[static_cast<size_t>(idx)]);
    }
  }

  // Accumulators: per distance (index max_distance+1 = impossible).
  const size_t kImpossible = static_cast<size_t>(options.max_distance) + 1;
  std::vector<int64_t> pair_count(kImpossible + 1, 0);
  std::vector<double> sim_sum(kImpossible + 1, 0.0);
  double total_sim = 0.0;
  int64_t total_pairs = 0;

  // Table 3 accumulators.
  std::vector<double> rank_distance_sum(static_cast<size_t>(options.top_n),
                                        0.0);
  std::vector<int64_t> rank_reachable(static_cast<size_t>(options.top_n), 0);
  // distance 1..4 percent distribution per rank.
  std::vector<std::vector<int64_t>> rank_distance_hist(
      static_cast<size_t>(options.top_n), std::vector<int64_t>(4, 0));
  int64_t top_n_total = 0;
  int64_t top_n_within_two = 0;

  SimilarityScratch scratch;
  for (UserId u : probes) {
    // Similarity to every co-retweeting user.
    const auto sims = profiles.SimilaritiesOf(u, scratch);
    if (sims.empty()) continue;
    // Hop distances from u (out-direction: followees of followees ...).
    const std::vector<int32_t> dist = BfsDistancesBounded(
        dataset.follow_graph, u, TraversalDirection::kOut,
        options.max_distance);

    for (const auto& [v, sim] : sims) {
      const int32_t d = dist[static_cast<size_t>(v)];
      const size_t slot = d <= 0 ? kImpossible : static_cast<size_t>(d);
      ++pair_count[slot];
      sim_sum[slot] += sim;
      total_sim += sim;
      ++total_pairs;
    }

    // Top-N most similar users of u.
    const int64_t n =
        std::min<int64_t>(options.top_n, static_cast<int64_t>(sims.size()));
    std::partial_sort(sims.begin(), sims.begin() + n, sims.end(),
                      [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first < b.first;
                      });
    for (int64_t r = 0; r < n; ++r) {
      const UserId v = sims[static_cast<size_t>(r)].first;
      const int32_t d = dist[static_cast<size_t>(v)];
      ++top_n_total;
      if (d > 0 && d <= 2) ++top_n_within_two;
      if (d > 0) {
        rank_distance_sum[static_cast<size_t>(r)] += d;
        ++rank_reachable[static_cast<size_t>(r)];
        if (d <= 4) {
          ++rank_distance_hist[static_cast<size_t>(r)]
                              [static_cast<size_t>(d - 1)];
        }
      }
    }
  }

  // Assemble Table 2 rows.
  for (size_t slot = 1; slot <= kImpossible; ++slot) {
    SimilarityByDistanceRow row;
    row.distance =
        slot == kImpossible ? -1 : static_cast<int32_t>(slot);
    row.num_pairs = pair_count[slot];
    row.percentage = total_pairs > 0
                         ? 100.0 * static_cast<double>(pair_count[slot]) /
                               static_cast<double>(total_pairs)
                         : 0.0;
    row.mean_similarity =
        pair_count[slot] > 0
            ? sim_sum[slot] / static_cast<double>(pair_count[slot])
            : 0.0;
    study.similarity_by_distance.push_back(row);
  }
  study.overall_mean_similarity =
      total_pairs > 0 ? total_sim / static_cast<double>(total_pairs) : 0.0;

  // Assemble Table 3 rows.
  for (int32_t r = 0; r < options.top_n; ++r) {
    TopRankDistanceRow row;
    row.rank = r + 1;
    const int64_t reach = rank_reachable[static_cast<size_t>(r)];
    row.avg_distance =
        reach > 0 ? rank_distance_sum[static_cast<size_t>(r)] /
                        static_cast<double>(reach)
                  : 0.0;
    for (int32_t d = 0; d < 4; ++d) {
      row.distance_percent.push_back(
          reach > 0 ? 100.0 *
                          static_cast<double>(
                              rank_distance_hist[static_cast<size_t>(r)]
                                                [static_cast<size_t>(d)]) /
                          static_cast<double>(reach)
                    : 0.0);
    }
    study.top_rank_distance.push_back(row);
  }
  study.top_n_within_two_hops =
      top_n_total > 0 ? static_cast<double>(top_n_within_two) /
                            static_cast<double>(top_n_total)
                      : 0.0;
  return study;
}

}  // namespace simgraph
