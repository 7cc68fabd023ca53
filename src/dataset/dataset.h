#ifndef SIMGRAPH_DATASET_DATASET_H_
#define SIMGRAPH_DATASET_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/types.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace simgraph {

/// A complete microblogging trace: the follow graph, every published tweet
/// and every retweet action, both in chronological order.
///
/// Invariants (established by the generator / Load, checked by Validate):
///   * tweets[i].id == i and tweets are sorted by time;
///   * retweets are sorted by time; each references a valid tweet/user;
///   * a user retweets a given tweet at most once and authors never
///     retweet their own tweet.
struct Dataset {
  Digraph follow_graph;
  std::vector<Tweet> tweets;
  std::vector<RetweetEvent> retweets;

  /// Population of an image-backed dataset: when the follow graph lives
  /// out-of-band (an mmap'd SGCS graph image bound via
  /// ServingSimGraphOptions::graph_image — see docs/store.md) the
  /// in-RAM `follow_graph` stays empty and this field carries the user
  /// count so profile/candidate sizing still works. Ignored whenever
  /// `follow_graph` is non-empty.
  int32_t num_users_hint = 0;

  int32_t num_users() const {
    return follow_graph.num_nodes() > 0 ? follow_graph.num_nodes()
                                        : num_users_hint;
  }
  int64_t num_tweets() const { return static_cast<int64_t>(tweets.size()); }
  int64_t num_retweets() const {
    return static_cast<int64_t>(retweets.size());
  }

  /// Retweet count per tweet (the paper's popularity m(i)).
  std::vector<int32_t> RetweetCountPerTweet() const;

  /// Number of retweet actions performed by each user.
  std::vector<int32_t> RetweetCountPerUser() const;

  /// Index of the first retweet event with time >= the `fraction` quantile
  /// of the event sequence, i.e. retweets[0..idx) are the oldest
  /// `fraction` of actions. Used for the 90/10 chronological split.
  int64_t SplitIndex(double fraction) const;

  /// Timestamp of the last event (tweet or retweet); 0 when empty.
  Timestamp EndTime() const;

  /// Checks all documented invariants.
  Status Validate() const;
};

/// Fingerprint of everything a serving replica trains from
/// (CandidateState::Init): the population, every tweet's time and the
/// (tweet, user) of each training retweet [0, train_end). A replica
/// sends it in its replication HELLO and the builder rejects one whose
/// value differs from its own, because replaying deltas over another
/// dataset's training state gives wrong answers without any error.
/// Never 0, which HELLO reserves for "not declared".
uint64_t TrainingFingerprint(const Dataset& dataset, int64_t train_end);

/// Serialises the dataset to a directory (graph.txt, tweets.txt,
/// retweets.txt). The directory must exist.
Status SaveDataset(const Dataset& dataset, const std::string& dir);

/// Loads a dataset written by SaveDataset: each file is read with one read
/// and parsed in place (util/text_cursor.h), then the whole dataset is
/// checked with Validate. Malformed, truncated or out-of-range fields and
/// header counts larger than a file can hold are IoErrors.
StatusOr<Dataset> LoadDataset(const std::string& dir);

}  // namespace simgraph

#endif  // SIMGRAPH_DATASET_DATASET_H_
