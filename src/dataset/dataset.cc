#include "dataset/dataset.h"

#include <algorithm>
#include <fstream>
#include <unordered_set>

#include "graph/graph_io.h"
#include "util/logging.h"

namespace simgraph {

std::vector<int32_t> Dataset::RetweetCountPerTweet() const {
  std::vector<int32_t> counts(tweets.size(), 0);
  for (const RetweetEvent& e : retweets) {
    ++counts[static_cast<size_t>(e.tweet)];
  }
  return counts;
}

std::vector<int32_t> Dataset::RetweetCountPerUser() const {
  std::vector<int32_t> counts(static_cast<size_t>(num_users()), 0);
  for (const RetweetEvent& e : retweets) {
    ++counts[static_cast<size_t>(e.user)];
  }
  return counts;
}

int64_t Dataset::SplitIndex(double fraction) const {
  SIMGRAPH_CHECK_GE(fraction, 0.0);
  SIMGRAPH_CHECK_LE(fraction, 1.0);
  return static_cast<int64_t>(fraction *
                              static_cast<double>(retweets.size()));
}

Timestamp Dataset::EndTime() const {
  Timestamp end = 0;
  if (!tweets.empty()) end = std::max(end, tweets.back().time);
  if (!retweets.empty()) end = std::max(end, retweets.back().time);
  return end;
}

Status Dataset::Validate() const {
  for (size_t i = 0; i < tweets.size(); ++i) {
    const Tweet& t = tweets[i];
    if (t.id != static_cast<TweetId>(i)) {
      return Status::Internal("tweet id mismatch at index " +
                              std::to_string(i));
    }
    if (t.author < 0 || t.author >= num_users()) {
      return Status::Internal("tweet with invalid author");
    }
    if (i > 0 && tweets[i - 1].time > t.time) {
      return Status::Internal("tweets not sorted by time");
    }
  }
  std::unordered_set<int64_t> seen;  // (tweet, user) pairs
  for (size_t i = 0; i < retweets.size(); ++i) {
    const RetweetEvent& e = retweets[i];
    if (e.tweet < 0 || e.tweet >= num_tweets()) {
      return Status::Internal("retweet references invalid tweet");
    }
    if (e.user < 0 || e.user >= num_users()) {
      return Status::Internal("retweet references invalid user");
    }
    if (i > 0 && retweets[i - 1].time > e.time) {
      return Status::Internal("retweets not sorted by time");
    }
    if (e.time < tweets[static_cast<size_t>(e.tweet)].time) {
      return Status::Internal("retweet precedes its tweet");
    }
    if (tweets[static_cast<size_t>(e.tweet)].author == e.user) {
      return Status::Internal("author retweeted own tweet");
    }
    const int64_t key = e.tweet * static_cast<int64_t>(num_users()) + e.user;
    if (!seen.insert(key).second) {
      return Status::Internal("duplicate (tweet, user) retweet");
    }
  }
  return Status::Ok();
}

Status SaveDataset(const Dataset& dataset, const std::string& dir) {
  SIMGRAPH_RETURN_IF_ERROR(
      WriteEdgeList(dataset.follow_graph, dir + "/graph.txt"));
  {
    std::ofstream out(dir + "/tweets.txt");
    if (!out) return Status::IoError("cannot write tweets.txt in " + dir);
    out << dataset.tweets.size() << "\n";
    for (const Tweet& t : dataset.tweets) {
      out << t.author << " " << t.time << " " << t.topic << "\n";
    }
    if (!out) return Status::IoError("tweets.txt write failed");
  }
  {
    std::ofstream out(dir + "/retweets.txt");
    if (!out) return Status::IoError("cannot write retweets.txt in " + dir);
    out << dataset.retweets.size() << "\n";
    for (const RetweetEvent& e : dataset.retweets) {
      out << e.tweet << " " << e.user << " " << e.time << "\n";
    }
    if (!out) return Status::IoError("retweets.txt write failed");
  }
  return Status::Ok();
}

StatusOr<Dataset> LoadDataset(const std::string& dir) {
  Dataset d;
  StatusOr<Digraph> graph = ReadEdgeList(dir + "/graph.txt");
  if (!graph.ok()) return graph.status();
  d.follow_graph = std::move(graph).value();
  {
    std::ifstream in(dir + "/tweets.txt");
    if (!in) return Status::IoError("cannot read tweets.txt in " + dir);
    int64_t n = 0;
    if (!(in >> n) || n < 0) return Status::IoError("bad tweets.txt header");
    if (n > MaxTextRecords(dir + "/tweets.txt", 3)) {
      return Status::IoError("tweets.txt count exceeds what the file holds");
    }
    d.tweets.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      Tweet& t = d.tweets[static_cast<size_t>(i)];
      t.id = i;
      if (!(in >> t.author >> t.time >> t.topic)) {
        return Status::IoError("truncated tweets.txt");
      }
    }
  }
  {
    std::ifstream in(dir + "/retweets.txt");
    if (!in) return Status::IoError("cannot read retweets.txt in " + dir);
    int64_t n = 0;
    if (!(in >> n) || n < 0) return Status::IoError("bad retweets.txt header");
    if (n > MaxTextRecords(dir + "/retweets.txt", 3)) {
      return Status::IoError("retweets.txt count exceeds what the file holds");
    }
    d.retweets.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      RetweetEvent& e = d.retweets[static_cast<size_t>(i)];
      if (!(in >> e.tweet >> e.user >> e.time)) {
        return Status::IoError("truncated retweets.txt");
      }
    }
  }
  const Status valid = d.Validate();
  if (!valid.ok()) return valid;
  return d;
}

}  // namespace simgraph
