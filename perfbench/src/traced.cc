#include "traced.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_math.h"
#include "drive.h"
#include "report.h"

namespace perfbench {

using simgraph::Dataset;
using simgraph::RetweetEvent;
using simgraph::ScoredTweet;
using simgraph::SimGraphDelta;
using simgraph::Status;
using simgraph::Timestamp;
using simgraph::UserId;
namespace serve = simgraph::serve;

namespace {

/// The read-path layer self times (front-end + router + cache or scan)
/// must add up to the client round trip within this share.
constexpr double kReadPathTolerance = 0.25;
/// Requests replayed per layer; enough for a supported p99.
constexpr size_t kReplayRequests = 2000;

struct BackendSpan {
  double begin = 0.0;
  double end = 0.0;
  std::vector<UserId> users;
};

/// ServingBackend proxy under TcpServer: times every call the front-end
/// makes into the sharded service.
class TimingBackend final : public serve::ServingBackend {
 public:
  explicit TimingBackend(serve::ShardedService* inner) : inner_(inner) {}

  uint64_t Publish(const RetweetEvent& event) override {
    const double t0 = Now();
    const uint64_t seq = inner_->Publish(event);
    const double t1 = Now();
    std::lock_guard<std::mutex> lock(mu_);
    publishes_.push_back(Interval{t0, t1});
    return seq;
  }
  uint64_t AppliedSeq() const override { return inner_->AppliedSeq(); }
  void WaitForApplied(uint64_t seq) override { inner_->WaitForApplied(seq); }
  serve::RecommendResponse Recommend(
      const serve::RecommendRequest& request) override {
    const double t0 = Now();
    serve::RecommendResponse response = inner_->Recommend(request);
    Record(t0, Now(), {request.user});
    return response;
  }
  std::vector<serve::RecommendResponse> RecommendBatch(
      const std::vector<serve::RecommendRequest>& requests) override {
    const double t0 = Now();
    std::vector<serve::RecommendResponse> responses =
        inner_->RecommendBatch(requests);
    const double t1 = Now();
    std::vector<UserId> users;
    users.reserve(requests.size());
    for (const auto& r : requests) users.push_back(r.user);
    Record(t0, t1, std::move(users));
    return responses;
  }
  serve::BackendStats Stats() const override { return inner_->Stats(); }
  void RotateWindows(int64_t window,
                     std::vector<serve::ShardWindow>* out) override {
    inner_->RotateWindows(window, out);
  }
  void CollectSlowRequests(
      int32_t max, std::vector<serve::SlowRequestEntry>* out) const override {
    inner_->CollectSlowRequests(max, out);
  }

  // Read only once the front-end is quiescent.
  const std::map<std::thread::id, std::vector<BackendSpan>>& spans() const {
    return spans_;
  }
  const std::vector<Interval>& publishes() const { return publishes_; }

 private:
  void Record(double begin, double end, std::vector<UserId> users) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::this_thread::get_id()].push_back(
        BackendSpan{begin, end, std::move(users)});
  }

  serve::ShardedService* inner_;
  std::mutex mu_;
  std::map<std::thread::id, std::vector<BackendSpan>> spans_;
  std::vector<Interval> publishes_;
};

struct ApplySpan {
  uint64_t seq_end = 0;
  double begin = 0.0;
  double end = 0.0;
};

/// ServingRecommender proxy under the replica's RecommendationService:
/// times every ApplyDelta.
class TimingApplier final : public serve::ServingRecommender {
 public:
  explicit TimingApplier(std::unique_ptr<serve::DeltaApplierRecommender> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Status Train(const Dataset& dataset, int64_t train_end) override {
    return inner_->Train(dataset, train_end);
  }
  serve::AffectedUsers ObserveAffected(const RetweetEvent& event) override {
    return inner_->ObserveAffected(event);
  }
  serve::AffectedUsers ApplyDelta(const SimGraphDelta& delta) override {
    const double t0 = Now();
    serve::AffectedUsers affected = inner_->ApplyDelta(delta);
    const double t1 = Now();
    std::lock_guard<std::mutex> lock(mu_);
    applies_.push_back(ApplySpan{delta.seq_end, t0, t1});
    return affected;
  }
  std::vector<ScoredTweet> Recommend(UserId user, Timestamp now,
                                     int32_t k) override {
    return inner_->Recommend(user, now, k);
  }
  serve::RecommendOutcome RecommendUntil(
      UserId user, Timestamp now, int32_t k,
      std::chrono::steady_clock::time_point deadline) override {
    return inner_->RecommendUntil(user, now, k, deadline);
  }
  bool concurrent_reads() const override { return inner_->concurrent_reads(); }
  void BindShard(int32_t shard) override { inner_->BindShard(shard); }
  bool GraphStats(uint64_t* epoch, int64_t* edges) const override {
    return inner_->GraphStats(epoch, edges);
  }

  serve::DeltaApplierRecommender* inner() { return inner_.get(); }
  std::vector<ApplySpan> applies() {
    std::lock_guard<std::mutex> lock(mu_);
    return applies_;
  }

 private:
  std::unique_ptr<serve::DeltaApplierRecommender> inner_;
  std::mutex mu_;
  std::vector<ApplySpan> applies_;
};

struct TapRecord {
  uint64_t seq_end = 0;
  int64_t events = 0;
  int64_t invalidated = 0;
  int64_t bytes = 0;
  int64_t deposits = 0;
  int64_t edge_ops = 0;
  bool refresh = false;
  double at = 0.0;
};

/// The delta_observer tap on the builder thread.
struct Tap {
  static constexpr size_t kSampleDeltas = 64;
  std::mutex mu;
  std::vector<TapRecord> records;
  std::vector<SimGraphDelta> samples;  // copies for the codec timings
  std::atomic<long> builder_tid{0};
  std::atomic<bool> sampling{false};  // copy deltas only once measuring

  void Observe(const SimGraphDelta& d) {
    TapRecord r;
    r.seq_end = d.seq_end;
    r.events = d.num_events();
    r.invalidated = static_cast<int64_t>(d.invalidated.size());
    r.bytes = d.ByteSize();
    r.deposits = static_cast<int64_t>(d.deposits.size());
    r.edge_ops = d.num_edge_ops();
    r.refresh = d.has_flag(SimGraphDelta::kFlagSnapshotRefresh);
    r.at = Now();
    builder_tid.store(static_cast<long>(::syscall(SYS_gettid)));
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(r);
    if (sampling.load() && samples.size() < kSampleDeltas && r.events > 0) {
      samples.push_back(d);
      samples.back().snapshot = nullptr;
    }
  }
};

/// CPU seconds of every thread of this process, by tid.
std::map<long, double> ThreadCpu() {
  std::map<long, double> cpu;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return cpu;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    cpu[std::stol(e->d_name)] =
        TaskCpuSeconds(std::string("self/task/") + e->d_name);
  }
  ::closedir(dir);
  return cpu;
}

template <typename F>
double TimeSeconds(F&& f) {
  const double t0 = Now();
  f();
  return Now() - t0;
}

/// Mean nanoseconds per call of `f(i)` over `n` items, median of 5 passes.
template <typename F>
double MeanNs(size_t n, F&& f) {
  std::vector<double> passes;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = TimeSeconds([&] {
      for (size_t i = 0; i < n; ++i) f(i);
    });
    passes.push_back(s * 1e9 / static_cast<double>(std::max<size_t>(n, 1)));
  }
  return Quantile(passes, 0.5);
}

double Mean(const std::vector<double>& v) { return Summarize(v).mean; }

void WriteTrace(const std::string& path, const DriveResult& result,
                const TimingBackend& backend,
                const std::vector<ApplySpan>& applies,
                const std::vector<TapRecord>& taps) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  auto span = [&](const char* name, int tid, double b, double e) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",\n", name, tid, b * 1e6, (e - b) * 1e6);
    first = false;
  };
  for (const ReadRecord& r : result.records) {
    span("client/recommend", r.conn, r.sent, r.done);
  }
  int tid = 10;
  for (const auto& [id, spans] : backend.spans()) {
    for (const BackendSpan& s : spans) span("backend/recommend", tid, s.begin, s.end);
    ++tid;
  }
  for (const ApplySpan& a : applies) span("replica/apply_delta", 2, a.begin, a.end);
  for (const TapRecord& t : taps) span("builder/delta_tap", 3, t.at, t.at);
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace

int RunTraced(const Plan& plan, const Dataset& dataset, double load_s,
              const std::string& trace_path) {
  Report report;
  report.Set("setup.dataset_s", load_s, "s");

  // --- the server: 2-shard delta-shipping service + replication fanout.
  Tap tap;
  serve::ReplicationFanout fanout(serve::ReplicationFanoutOptions{});
  serve::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.shard_options.cache_ttl = simgraph::kSecondsPerDay;
  options.replication = &fanout;
  options.delta_observer = [&tap](const SimGraphDelta& d) { tap.Observe(d); };
  serve::ServingSimGraphOptions simgraph_options;
  simgraph_options.snapshot_refresh_events = kRefreshEvents;
  serve::ShardedService service(simgraph_options, options);
  Status status;
  report.Set("setup.train_s", TimeSeconds([&] {
               status = service.Train(dataset, plan.train_end);
             }),
             "s");
  if (!status.ok() || !(status = fanout.Start()).ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  service.Start();
  TimingBackend backend(&service);
  serve::TcpServer server(&backend);
  if (!(status = server.Start(0)).ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }

  // --- the cache-off replica, bootstrapped over SGRP like
  // simgraph_shard_server.
  serve::ReplicationClientOptions client_options;
  client_options.port = fanout.port();
  client_options.name = "traced-replica";
  serve::ReplicationClient client(client_options);
  auto timing_applier = std::make_unique<TimingApplier>(
      std::make_unique<serve::DeltaApplierRecommender>());
  TimingApplier* applier = timing_applier.get();
  serve::ServiceOptions replica_options;
  replica_options.cache_ttl = -1;
  serve::RecommendationService replica(std::move(timing_applier),
                                       replica_options);
  serve::TcpServer replica_server(&replica);
  report.Set("setup.replica_bootstrap_s", TimeSeconds([&] {
               serve::ReplicationBootstrap bootstrap;
               status = client.Connect(0, &bootstrap);
               if (!status.ok()) return;
               status = replica.Train(dataset, plan.train_end);
               if (!status.ok()) return;
               applier->inner()->SeedRemoteGraphStats(bootstrap.graph_epoch,
                                                      bootstrap.graph_edges);
               replica.Start();
               client.Start(&replica);
               status = replica_server.Start(0);
             }),
             "s");
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: replica: %s\n", status.ToString().c_str());
    return 1;
  }

  // --- drive it.
  std::map<std::string, std::map<long, double>> cpu_at;
  std::map<std::string, double> wall_at;
  Endpoints endpoints;
  endpoints.server_port = server.port();
  endpoints.replica_port = replica_server.port();
  endpoints.pids = {static_cast<int>(::getpid())};
  const DriveResult result =
      Drive(plan, endpoints, [&](const char* boundary) {
        cpu_at[boundary] = ThreadCpu();
        wall_at[boundary] = Now();
        tap.sampling.store(true);
      });
  AddEndToEnd(plan, result, "traced.", &report);
  report.Note("traced", "in-process host: cpu and rss include the generator");

  // --- replays on the quiescent live service, at the final stream edge.
  int64_t published = 0;
  for (const char* key : {"warmup.event", "paced.event", "saturate.event"}) {
    const auto it = result.counts.find(key);
    if (it != result.counts.end()) published += it->second.ok;
  }
  const Timestamp edge =
      published > 0 ? plan.stream[static_cast<size_t>(published) - 1].time
                    : plan.split_time;
  std::vector<const ReadRecord*> ok_records;
  std::vector<const ReadRecord*> missed;
  int64_t hits = 0;
  std::vector<int64_t> per_shard(kShards, 0);
  for (const ReadRecord& r : result.records) {
    if (!r.ok) continue;
    ok_records.push_back(&r);
    if (r.cache_hit) {
      ++hits;
    } else {
      missed.push_back(&r);
    }
    ++per_shard[static_cast<size_t>(service.ShardOf(r.user))];
  }
  if (ok_records.empty()) {
    std::fprintf(stderr, "perfbench: no successful reads to analyse\n");
    return 1;
  }
  const size_t stride = std::max<size_t>(1, ok_records.size() / kReplayRequests);
  std::vector<const ReadRecord*> sample;
  for (size_t i = 0; i < ok_records.size(); i += stride) {
    sample.push_back(ok_records[i]);
  }

  // Router: ShardedService::Recommend minus the owning shard's Recommend
  // on identical (warm, cached) requests, in alternating order.
  std::vector<double> router_ns;
  std::vector<double> cache_hit_us;
  for (size_t i = 0; i < sample.size(); ++i) {
    const serve::RecommendRequest req{sample[i]->user, edge, sample[i]->k};
    serve::RecommendationService& shard = service.shard(service.ShardOf(req.user));
    service.Recommend(req);
    bool hit = false;
    double routed = 0.0;
    double direct = 0.0;
    auto via_router = [&] {
      routed = TimeSeconds([&] { service.Recommend(req); });
    };
    auto via_shard = [&] {
      direct = TimeSeconds([&] { hit = shard.Recommend(req).cache_hit; });
    };
    if (i % 2 == 0) {
      via_router();
      via_shard();
    } else {
      via_shard();
      via_router();
    }
    router_ns.push_back((routed - direct) * 1e9);
    if (hit) cache_hit_us.push_back(direct * 1e6);
  }

  // Candidate scan: the shard recommender itself on requests that missed
  // the cache live (cycled to a supported p99; all reads if none missed).
  const std::vector<const ReadRecord*>& scan_set = missed.empty() ? sample : missed;
  std::vector<double> scan_us;
  const auto far = std::chrono::steady_clock::now() + std::chrono::hours(1);
  for (size_t i = 0; i < std::max(kReplayRequests, scan_set.size()) &&
                     i < 4 * kReplayRequests;
       ++i) {
    const ReadRecord& r = *scan_set[i % scan_set.size()];
    serve::ServingRecommender& rec =
        service.shard(service.ShardOf(r.user)).recommender();
    scan_us.push_back(
        TimeSeconds([&] { rec.RecommendUntil(r.user, edge, r.k, far); }) * 1e6);
  }

  // Codecs over the recorded requests and replies.
  std::vector<std::string> sgrq_frames;
  std::vector<std::string> ndjson_lines;
  for (const ReadRecord* r : sample) {
    serve::WireRequest w;
    w.op = serve::WireRequest::Op::kRecommend;
    w.user = r->user;
    w.now = r->now;
    w.k = r->k;
    std::string frame;
    serve::AppendBinaryRequest(&frame, w);
    sgrq_frames.push_back(std::move(frame));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"op\":\"recommend\",\"user\":%d,\"now\":%lld,\"k\":%d}",
                  r->user, static_cast<long long>(r->now), r->k);
    ndjson_lines.emplace_back(line);
  }
  std::string reply;
  double sgrq_bytes = 0.0;
  double ndjson_bytes = 0.0;
  for (const ReadRecord* r : sample) {
    reply.clear();
    serve::AppendBinaryRecommendResponse(&reply, r->user, 0, r->tweets,
                                         r->cache_hit, false, 0);
    sgrq_bytes += static_cast<double>(reply.size());
    reply.clear();
    serve::AppendRecommendResponse(&reply, r->user, 0, r->tweets, r->cache_hit,
                                   false, 0);
    ndjson_bytes += static_cast<double>(reply.size() + 1);
  }
  const double n_sample = static_cast<double>(sample.size());
  report.Set("wire.sgrq.decode_ns", MeanNs(sample.size(), [&](size_t i) {
               const std::string& f = sgrq_frames[i];
               (void)serve::ParseBinaryRequest(
                   static_cast<serve::BinaryOp>(f[4]),
                   std::string_view(f).substr(serve::kBinaryFrameHeaderBytes));
             }),
             "ns");
  report.Set("wire.ndjson.decode_ns", MeanNs(sample.size(), [&](size_t i) {
               (void)serve::ParseRequestLine(ndjson_lines[i]);
             }),
             "ns");
  report.Set("wire.sgrq.encode_ns", MeanNs(sample.size(), [&](size_t i) {
               reply.clear();
               serve::AppendBinaryRecommendResponse(
                   &reply, sample[i]->user, 0, sample[i]->tweets,
                   sample[i]->cache_hit, false, 0);
             }),
             "ns");
  report.Set("wire.ndjson.encode_ns", MeanNs(sample.size(), [&](size_t i) {
               reply.clear();
               serve::AppendRecommendResponse(&reply, sample[i]->user, 0,
                                              sample[i]->tweets,
                                              sample[i]->cache_hit, false, 0);
             }),
             "ns");
  report.Set("wire.sgrq.reply_bytes.mean", sgrq_bytes / n_sample, "bytes");
  report.Set("wire.ndjson.reply_bytes.mean", ndjson_bytes / n_sample, "bytes");

  // Front-end self time: each paced read's client round trip minus the
  // backend call that served it. The backend thread serving a reader
  // connection is the one most of its reads match.
  std::vector<const BackendSpan*> all_spans;
  std::map<const BackendSpan*, std::thread::id> span_thread;
  int64_t backend_calls = 0;
  int64_t backend_requests = 0;
  const double paced_begin = wall_at["paced_begin"];
  const double paced_end = wall_at["paced_end"];
  for (const auto& [id, spans] : backend.spans()) {
    for (const BackendSpan& s : spans) {
      all_spans.push_back(&s);
      span_thread[&s] = id;
      if (s.begin >= paced_begin && s.end <= paced_end) {
        ++backend_calls;
        backend_requests += static_cast<int64_t>(s.users.size());
      }
    }
  }
  std::sort(all_spans.begin(), all_spans.end(),
            [](const BackendSpan* a, const BackendSpan* b) {
              return a->begin < b->begin;
            });
  auto match = [&](const ReadRecord& r, const std::thread::id* want) {
    auto it = std::lower_bound(all_spans.begin(), all_spans.end(), r.sent,
                               [](const BackendSpan* s, double t) {
                                 return s->begin < t;
                               });
    for (; it != all_spans.end() && (*it)->begin <= r.done; ++it) {
      const BackendSpan* s = *it;
      if (s->end > r.done) continue;
      if (want != nullptr && span_thread[s] != *want) continue;
      if (std::find(s->users.begin(), s->users.end(), r.user) != s->users.end()) {
        return s;
      }
    }
    return static_cast<const BackendSpan*>(nullptr);
  };
  std::map<int, std::map<std::thread::id, int>> votes;
  for (const ReadRecord* r : ok_records) {
    if (const BackendSpan* s = match(*r, nullptr)) ++votes[r->conn][span_thread[s]];
  }
  std::map<int, std::thread::id> conn_thread;
  for (const auto& [conn, v] : votes) {
    conn_thread[conn] = std::max_element(v.begin(), v.end(),
                                         [](const auto& a, const auto& b) {
                                           return a.second < b.second;
                                         })
                            ->first;
  }
  const double router_p50_us = Quantile(router_ns, 0.5) / 1e3;
  const double hit_p50_us = Quantile(cache_hit_us, 0.5);
  const double scan_p50_us = Quantile(scan_us, 0.5);
  std::vector<double> frontend_self_us;
  double rtt_sum = 0.0;
  double layer_sum = 0.0;
  int64_t unmatched = 0;
  for (const ReadRecord* r : ok_records) {
    const auto ct = conn_thread.find(r->conn);
    const BackendSpan* s =
        ct == conn_thread.end() ? nullptr : match(*r, &ct->second);
    if (s == nullptr) {
      ++unmatched;
      continue;
    }
    const double self =
        SelfTime(Interval{r->sent, r->done}, {Interval{s->begin, s->end}});
    frontend_self_us.push_back(self * 1e6);
    if (s->users.size() == 1) {
      rtt_sum += (r->done - r->sent) * 1e6;
      layer_sum += self * 1e6 + std::max(0.0, router_p50_us) +
                   (r->cache_hit ? hit_p50_us : scan_p50_us);
    }
  }
  report.SetSummary("frontend.self_us", Summarize(frontend_self_us), "us");
  report.Set("frontend.unmatched_reads", static_cast<double>(unmatched), "count");
  report.Set("frontend.batch_requests.mean",
             backend_calls > 0 ? static_cast<double>(backend_requests) /
                                     static_cast<double>(backend_calls)
                               : 0.0,
             "requests");
  const double sum_error =
      rtt_sum > 0.0 ? std::abs(layer_sum / rtt_sum - 1.0) : 1.0;
  report.Set("trace.read_path_sum_error", sum_error, "ratio");
  report.Set("trace.read_path_sum_ok", sum_error <= kReadPathTolerance ? 1 : 0,
             "bool");
  report.Note("trace.read_path_sum_error",
              "|(frontend self + router p50 + cache-hit or scan p50) / client "
              "round trip - 1| over unbatched reads; tolerance 0.25");

  report.Set("router.overhead_ns.p50", Quantile(router_ns, 0.5), "ns");
  report.Set("router.overhead_ns.n", static_cast<double>(router_ns.size()),
             "count");
  const double shard_mean =
      static_cast<double>(ok_records.size()) / static_cast<double>(kShards);
  report.Set("router.shard_skew",
             static_cast<double>(*std::max_element(per_shard.begin(),
                                                   per_shard.end())) /
                 shard_mean,
             "ratio");
  for (int s = 0; s < kShards; ++s) {
    report.Set("router.requests.shard" + std::to_string(s),
               static_cast<double>(per_shard[static_cast<size_t>(s)]), "count");
  }

  report.Set("cache.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(ok_records.size()),
             "ratio");
  report.SetSummary("cache.hit_us", Summarize(cache_hit_us), "us");
  report.SetSummary("scan.us", Summarize(scan_us), "us");
  report.Set("scan.busy_share",
             static_cast<double>(missed.size()) * Mean(scan_us) / 1e6 /
                 std::max(1e-9, result.paced_wall_s),
             "share");
  // Write-path layers over the measured phases only (not the warm-up).
  const double measured_begin = wall_at["paced_begin"];
  const double measured_end = wall_at["saturate_end"];
  auto measured = [&](double t) {
    return t >= measured_begin && t <= measured_end;
  };
  std::vector<double> publish_us;
  for (const Interval& p : backend.publishes()) {
    if (measured(p.begin)) publish_us.push_back((p.end - p.begin) * 1e6);
  }
  report.SetSummary("publish.block_us", Summarize(publish_us), "us");

  // Tap, apply and replication.
  std::vector<TapRecord> taps;
  std::vector<SimGraphDelta> delta_samples;
  {
    std::lock_guard<std::mutex> lock(tap.mu);
    for (const TapRecord& t : tap.records) {
      if (measured(t.at)) taps.push_back(t);
    }
    delta_samples = tap.samples;
  }
  std::vector<ApplySpan> applies;
  for (const ApplySpan& a : applier->applies()) {
    if (measured(a.begin)) applies.push_back(a);
  }
  double events = 0.0;
  double invalidated = 0.0;
  double bytes = 0.0;
  double deposits = 0.0;
  double edge_ops = 0.0;
  std::unordered_map<uint64_t, double> tap_at;
  for (const TapRecord& t : taps) {
    events += static_cast<double>(t.events);
    invalidated += static_cast<double>(t.invalidated);
    bytes += static_cast<double>(t.bytes);
    deposits += static_cast<double>(t.deposits);
    edge_ops += static_cast<double>(t.edge_ops);
    tap_at[t.seq_end] = t.at;
  }
  const double per_event = events > 0.0 ? 1.0 / events : 0.0;
  report.Set("cache.invalidated_per_event", invalidated * per_event, "users");
  report.Set("builder.batch_events.mean",
             taps.empty() ? 0.0 : events / static_cast<double>(taps.size()),
             "events");
  report.Set("delta.bytes_per_event", bytes * per_event, "bytes");
  report.Set("delta.deposits_per_event", deposits * per_event, "count");
  report.Set("delta.edge_ops_per_event", edge_ops * per_event, "count");
  const double frame_overhead = static_cast<double>(
      serve::BuildReplicationFrame(serve::ReplicationFrameType::kDelta, "")
          .size());
  report.Set("repl.bytes_per_event",
             (bytes + frame_overhead * static_cast<double>(taps.size())) *
                 per_event,
             "bytes");
  std::vector<double> apply_us;
  std::vector<double> lag_ms;
  for (const ApplySpan& a : applies) {
    apply_us.push_back((a.end - a.begin) * 1e6);
    const auto it = tap_at.find(a.seq_end);
    if (it != tap_at.end()) lag_ms.push_back((a.end - it->second) * 1e3);
  }
  report.SetSummary("apply.us_per_delta", Summarize(apply_us), "us");
  const Summary lag = Summarize(lag_ms);
  report.Set("repl.lag_ms.p99", lag.p99, "ms");
  report.Set("repl.lag_ms.n", static_cast<double>(lag.n), "count");

  std::vector<double> encode_us;
  std::vector<double> parse_us;
  for (const SimGraphDelta& d : delta_samples) {
    std::string wire;
    encode_us.push_back(TimeSeconds([&] { d.SerializeTo(&wire); }) * 1e6);
    SimGraphDelta parsed;
    parse_us.push_back(
        TimeSeconds([&] { (void)SimGraphDelta::Parse(wire, &parsed); }) * 1e6);
  }
  report.Set("delta.encode_us.p50", Quantile(encode_us, 0.5), "us");
  report.Set("delta.parse_us.p50", Quantile(parse_us, 0.5), "us");

  // Builder thread busy share over both phases.
  const long builder = tap.builder_tid.load();
  double busy = 0.0;
  double wall = 0.0;
  for (const char* phase : {"paced", "saturate"}) {
    const std::string b = std::string(phase) + "_begin";
    const std::string e = std::string(phase) + "_end";
    const auto& cb = cpu_at[b];
    const auto& ce = cpu_at[e];
    const auto be = cb.find(builder);
    const auto ee = ce.find(builder);
    if (ee != ce.end()) {
      busy += ee->second - (be == cb.end() ? 0.0 : be->second);
    }
    wall += wall_at[e] - wall_at[b];
  }
  report.Set("builder.busy_share", wall > 0.0 ? busy / wall : 0.0, "share");

  WriteTrace(trace_path, result, backend, applies, taps);

  replica_server.Stop();
  client.Stop();
  replica.Stop();
  server.Stop();
  service.Stop();
  fanout.Stop();

  // Isolated single-thread builder replays over the head of the test
  // stream: the serving recommender's full update (incremental graph +
  // propagation + delta recording), then the incremental graph alone.
  // The replay refreshes its snapshot every 200 events so refresh cost
  // is sampled; that cost depends on the graph, not on the cadence.
  constexpr int64_t kReplayRefresh = 200;
  constexpr size_t kReplayEvents = 1200;  // a supported p99
  constexpr double kReplayBudgetS = 4.0;
  serve::ServingSimGraphOptions replay_options = simgraph_options;
  replay_options.snapshot_refresh_events = kReplayRefresh;
  std::vector<double> update_us;
  std::vector<double> refresh_ms;
  size_t replayed = 0;
  {
    serve::SimGraphServingRecommender source(replay_options);
    if (!(status = source.Train(dataset, plan.train_end)).ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 1;
    }
    SimGraphDelta scratch;
    const double start = Now();
    for (; replayed < std::min(kReplayEvents, plan.stream.size()) &&
           Now() - start < kReplayBudgetS;
         ++replayed) {
      scratch.Clear();
      const double s = TimeSeconds([&] {
        source.ObserveRecordingDelta(plan.stream[replayed], &scratch);
      });
      if (scratch.has_flag(SimGraphDelta::kFlagSnapshotRefresh)) {
        refresh_ms.push_back(s * 1e3);
      } else {
        update_us.push_back(s * 1e6);
      }
    }
  }
  std::vector<double> incremental_us;
  {
    simgraph::IncrementalSimGraph graph(dataset.follow_graph,
                                        replay_options.graph);
    if (!(status = graph.Initialize(dataset, plan.train_end)).ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 1;
    }
    SimGraphDelta scratch;
    for (size_t i = 0; i < replayed; ++i) {
      scratch.Clear();
      incremental_us.push_back(
          TimeSeconds([&] { graph.Apply(plan.stream[i], &scratch); }) * 1e6);
    }
  }
  report.SetSummary("builder.update_us_per_event", Summarize(update_us), "us");
  report.Set("builder.incremental_us_per_event.p50",
             Quantile(incremental_us, 0.5), "us");
  report.Set("builder.propagation_share",
             Mean(update_us) > 0.0
                 ? 1.0 - Mean(incremental_us) / Mean(update_us)
                 : 0.0,
             "share");
  report.Set("builder.refresh_ms", Quantile(refresh_ms, 0.5), "ms");
  report.Set("builder.refresh_samples", static_cast<double>(refresh_ms.size()),
             "count");
  report.Set("builder.replayed_events", static_cast<double>(replayed), "count");

  report.Print(stdout);
  return 0;
}

}  // namespace perfbench
