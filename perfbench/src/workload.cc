#include "workload.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "bench_math.h"

namespace perfbench {

using simgraph::Dataset;
using simgraph::Timestamp;
using simgraph::UserId;

// Offered rates are constants, never derived from a measurement of the
// same run. Flat-out ingest at kUsers users with 2 shards and one replica
// acknowledges ~650 events/s on a 4-core x86 box; read_hot's events run
// at ~2% of that, read_cold's at ~30% and ingest_stream's paced phase at
// ~15%, well below the knee: at 25% its bursts made read and freshness
// latency swing between runs. Reads run fast enough that the serving
// threads never sit idle long between requests, except beside flat-out
// ingest: there 4,000 reads/s cut the event rate by a third and made it
// swing twice as much between runs, so ingest_stream's reads drop to a
// light 500/s, and its saturate phase is the longer one.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  if (name == "read_hot") {
    s.read_rate = 16000.0;
    s.event_rate = 13.0;
    s.users = UserMix::kPanelZipf;
    s.saturate = Saturate::kReads;
  } else if (name == "read_cold") {
    s.read_rate = 8000.0;
    s.event_rate = 190.0;
    s.users = UserMix::kAllUniform;
    s.k_grid = true;
    s.saturate = Saturate::kReads;
  } else if (name == "ingest_stream") {
    s.read_rate = 4000.0;
    s.event_rate = 100.0;
    s.users = UserMix::kPanelZipf;
    s.stream_timing = true;
    s.saturate = Saturate::kEvents;
    s.paced_share = 0.25;
    s.saturate_read_rate = 500.0;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

simgraph::DatasetConfig BenchDatasetConfig() {
  simgraph::DatasetConfig c;
  c.num_users = kUsers;
  c.num_tweets = kUsers * 8;
  c.horizon_days = 120;
  c.base_retweet_prob = 0.6;
  c.max_cascade_size = 5000;
  c.num_communities = 40;
  c.out_degree_alpha = 1.8;
  c.max_out_degree = 300;
  c.seed = kDatasetSeed;
  return c;
}

simgraph::ProtocolOptions BenchPanelOptions(uint64_t seed) {
  simgraph::ProtocolOptions o;
  o.users_per_class = 500;
  o.low_max = 4;
  o.moderate_max = 20;
  o.seed = seed;
  return o;
}

Timestamp Plan::EdgeAt(double t) const {
  const auto it = std::upper_bound(event_due.begin(), event_due.end(), t);
  if (it == event_due.begin()) return split_time;
  return stream[static_cast<size_t>(it - event_due.begin()) - 1].time;
}

namespace {

constexpr int32_t kGridK[] = {10, 20, 30, 40, 60, 80, 120, 160, 200};

class RequestSampler {
 public:
  RequestSampler(const WorkloadSpec& spec, const std::vector<UserId>& panel,
                 int32_t num_users, uint64_t seed)
      : spec_(spec), num_users_(num_users), rng_(seed) {
    // Zipf(1.0) ranks over the panel, shuffled once with the dataset seed.
    ranked_ = panel;
    std::mt19937_64 rank_rng(kDatasetSeed);
    std::shuffle(ranked_.begin(), ranked_.end(), rank_rng);
    double total = 0.0;
    for (size_t r = 0; r < ranked_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  ReadOp Next() {
    ReadOp op;
    if (spec_.users == UserMix::kPanelZipf && !ranked_.empty()) {
      const double u = unit_(rng_);
      const size_t r = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      op.user = ranked_[std::min(r, ranked_.size() - 1)];
    } else {
      op.user = static_cast<UserId>(rng_() % static_cast<uint64_t>(num_users_));
    }
    op.k = spec_.k_grid ? kGridK[rng_() % std::size(kGridK)] : 30;
    return op;
  }

 private:
  const WorkloadSpec& spec_;
  int32_t num_users_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::vector<UserId> ranked_;
  std::vector<double> cdf_;
};

}  // namespace

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, const Dataset& dataset,
              double seconds) {
  Plan plan;
  plan.spec = spec;
  plan.paced_seconds = seconds * spec.paced_share;
  plan.saturate_seconds = seconds - plan.paced_seconds;

  // The panel and the Zipf ranking over it are fixed with the dataset;
  // the run seed draws the request sequence from them.
  const simgraph::EvalProtocol protocol =
      simgraph::MakeProtocol(dataset, BenchPanelOptions(kDatasetSeed));
  plan.train_end = dataset.SplitIndex(0.9);
  plan.split_time =
      plan.train_end > 0
          ? dataset.retweets[static_cast<size_t>(plan.train_end) - 1].time
          : 0;
  plan.panel = protocol.panel;
  plan.stream.assign(dataset.retweets.begin() + plan.train_end,
                     dataset.retweets.end());
  for (size_t i = 0; i < plan.stream.size(); ++i) {
    plan.future.emplace(PairKey(plan.stream[i].user, plan.stream[i].tweet),
                        static_cast<int64_t>(i));
  }

  plan.warmup_end = std::min<int64_t>(kWarmupEvents,
                                      static_cast<int64_t>(plan.stream.size()));
  plan.event_due.assign(static_cast<size_t>(plan.warmup_end), -1.0);
  std::vector<double> due;
  if (spec.stream_timing) {
    std::vector<int64_t> times;
    for (size_t i = static_cast<size_t>(plan.warmup_end); i < plan.stream.size();
         ++i) {
      times.push_back(plan.stream[i].time);
    }
    due = CompressedSchedule(times, spec.event_rate);
  }
  // Events stay paced through `saturate` unless they are what saturates.
  const double event_span =
      spec.saturate == Saturate::kEvents ? plan.paced_seconds : seconds;
  if (!spec.stream_timing) due = FixedRateSchedule(spec.event_rate, event_span);
  plan.paced_end = plan.warmup_end;
  for (double t : due) {
    if (t >= event_span || plan.event_due.size() >= plan.stream.size()) break;
    plan.event_due.push_back(t);
    if (t < plan.paced_seconds) ++plan.paced_end;
  }

  // Flat-out ingest publishes a fixed block, so its phase has no fixed
  // end; reads stay paced until the block is acknowledged (or the cap).
  if (spec.saturate == Saturate::kEvents) {
    const int64_t left =
        static_cast<int64_t>(plan.stream.size()) - plan.paced_end;
    plan.flat_out_events = std::min<int64_t>(
        left, std::llround(kNominalIngestEps * plan.saturate_seconds));
  }

  // Two reader connections, each half the read rate, offset by half a
  // period so their sends interleave.
  RequestSampler sampler(spec, plan.panel, dataset.num_users(),
                         seed * 0x9E3779B97F4A7C15ull + 17);
  const int readers = 2;
  plan.read_due.resize(readers);
  plan.reads.resize(readers);
  plan.saturate_reads.resize(readers);
  auto add_reads = [&](double rate, double begin, double span) {
    for (int c = 0; c < readers; ++c) {
      const double offset = static_cast<double>(c) / rate;
      for (double t : FixedRateSchedule(rate / readers, span)) {
        if (t + offset >= span) break;
        plan.read_due[c].push_back(begin + t + offset);
        plan.reads[c].push_back(sampler.Next());
      }
    }
  };
  add_reads(spec.read_rate, 0.0, plan.paced_seconds);
  if (spec.saturate == Saturate::kEvents) {
    add_reads(spec.saturate_read_rate, plan.paced_seconds,
              kFlatOutCap * plan.saturate_seconds);
  }
  for (int c = 0; c < readers; ++c) {
    for (int i = 0; i < kSaturateRequests; ++i) {
      plan.saturate_reads[c].push_back(sampler.Next());
    }
  }
  return plan;
}

}  // namespace perfbench
