#include "drive.h"

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>

#include "bench_math.h"
#include "wire_client.h"

namespace perfbench {

using simgraph::RetweetEvent;
using simgraph::Timestamp;
using simgraph::UserId;
using simgraph::serve::BinaryOp;

double Now() {
  static const auto base = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - base)
      .count();
}

double TaskCpuSeconds(const std::string& task) {
  // schedstat's first field is nanoseconds on CPU (stat's utime/stime
  // only count 10 ms ticks).
  std::ifstream in("/proc/" + task + "/schedstat");
  double ns = 0.0;
  in >> ns;
  return ns * 1e-9;
}

double ProcCpuSeconds(int pid) {
  const std::string base = "/proc/" + std::to_string(pid) + "/task";
  double total = 0.0;
  DIR* dir = ::opendir(base.c_str());
  if (dir == nullptr) return total;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    total += TaskCpuSeconds(std::to_string(pid) + "/task/" + e->d_name);
  }
  ::closedir(dir);
  return total;
}

double ProcPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

constexpr int kReaders = 2;
/// Latency percentiles are medians over at most this many chunks of the
/// paced phase (bench_math.h ChunkedQuantile).
constexpr size_t kMaxChunks = 16;
// Reader threads plus the publisher and the probe.
static_assert(kReaders + 2 <= kMaxThreads);

/// Per-thread tallies merged by the driving thread after each join.
struct Tally {
  Counts counts;
  std::vector<double> lag_ms;
  std::vector<double> samples;      // probe: freshness, ms
  std::vector<ReadRecord> records;  // readers: the paced reads
  /// Completions inside the phase window, per kBucketS bucket, and the
  /// last of them.
  std::vector<int64_t> buckets;
  double last_done = 0.0;
  std::string error;

  void Complete(const struct Window& w, double done);
};

/// Shared between the publisher and the probe in a phase.
struct StreamProgress {
  std::atomic<uint64_t> published{0};  // highest seq sent
  std::atomic<uint64_t> acked{0};      // highest seq fully acknowledged
  std::atomic<bool> publisher_done{false};
  /// Set once the flat-out block is acknowledged: paced reads stop.
  std::atomic<bool> flat_out_done{false};
  std::atomic<Timestamp> edge{0};      // time of the last event sent
};

/// A phase window on the Now() clock, and the plan-time offset its
/// schedules start from.
struct Window {
  double t0 = 0.0;          // phase start
  double end = 0.0;         // end of sending
  double plan_offset = 0.0; // plan time at t0
};

/// Width of the completion buckets the saturate rates are read from:
/// a throttled stretch then moves a few buckets, not the median. Wide
/// enough that deltas acknowledging ~16 events at once barely quantize
/// the event rate.
constexpr double kBucketS = 1.0;

void Tally::Complete(const Window& w, double done) {
  if (done < w.t0 || done > w.end) return;
  const size_t b = static_cast<size_t>((done - w.t0) / kBucketS);
  if (buckets.size() <= b) buckets.resize(b + 1, 0);
  ++buckets[b];
  last_done = std::max(last_done, done);
}

/// Completions per second of a phase side: the median bucket rate when
/// the side runs flat out, else completions over the time to the last.
double PhaseRate(const Tally* tallies, int n, const Window& w, bool flat_out) {
  std::vector<int64_t> buckets;
  double last = w.t0;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    const Tally& t = tallies[i];
    if (buckets.size() < t.buckets.size()) buckets.resize(t.buckets.size(), 0);
    for (size_t b = 0; b < t.buckets.size(); ++b) {
      buckets[b] += t.buckets[b];
      total += t.buckets[b];
    }
    last = std::max(last, t.last_done);
  }
  if (flat_out) return MedianBucketRate(buckets, kBucketS);
  return last > w.t0 ? static_cast<double>(total) / (last - w.t0) : 0.0;
}

// Paced open-loop reads: each request goes out at its due time whatever
// happened to earlier ones; latency is timed from the due time. Beside
// flat-out ingest they stop once its block is acknowledged.
void PacedReads(WireConn& conn, int c, const Plan& plan, const Window& w,
                bool record, StreamProgress* progress, Tally* out) {
  const std::vector<double>& due = plan.read_due[c];
  size_t next = std::lower_bound(due.begin(), due.end(), w.plan_offset) -
                due.begin();
  const double stop = w.plan_offset + (w.end - w.t0);
  std::deque<ReadRecord> pending;
  BinaryOp op;
  std::string payload;
  while (true) {
    double now = Now();
    const bool open = !progress->flat_out_done.load();
    while (open && next < due.size() && due[next] < stop &&
           w.t0 + (due[next] - w.plan_offset) <= now) {
      ReadRecord r;
      r.conn = c;
      r.user = plan.reads[c][next].user;
      r.k = plan.reads[c][next].k;
      r.now = record ? plan.EdgeAt(due[next])
                     : std::max(plan.EdgeAt(due[next]), progress->edge.load());
      r.due = w.t0 + (due[next] - w.plan_offset);
      r.sent = now;
      conn.QueueRecommend(r.user, r.now, r.k);
      out->lag_ms.push_back(Lateness(r.due, now) * 1e3);
      ++out->counts.sent;
      pending.push_back(std::move(r));
      ++next;
    }
    if (!conn.Flush()) {
      out->error = "reader send failed";
      break;
    }
    const bool more = open && next < due.size() && due[next] < stop;
    if (!more && pending.empty()) break;
    const double wait =
        more ? std::max(0.0, w.t0 + (due[next] - w.plan_offset) - Now()) : 1.0;
    if (!conn.Poll(wait)) {
      out->error = "reader connection lost";
      break;
    }
    now = Now();
    while (!pending.empty() && conn.NextReply(&op, &payload)) {
      ReadRecord r = std::move(pending.front());
      pending.pop_front();
      const Answer a = conn.DecodeAnswer(op, payload);
      r.done = now;
      r.ok = a.ok && !a.degraded;
      r.cache_hit = a.cache_hit;
      if (r.ok) {
        ++out->counts.ok;
        out->Complete(w, now);
      } else {
        ++out->counts.failed;
      }
      if (record) {
        r.tweets = a.tweets;
        out->records.push_back(std::move(r));
      }
    }
  }
  out->counts.failed += static_cast<int64_t>(pending.size());
}

// Closed-loop reads at a fixed pipeline depth until w.end; completions
// inside the window are what read_max_rps counts.
void ClosedReads(WireConn& conn, int c, const Plan& plan, const Window& w,
                 Tally* out) {
  const std::vector<ReadOp>& ops = plan.saturate_reads[c];
  size_t i = 0;
  int inflight = 0;
  BinaryOp op;
  std::string payload;
  while (true) {
    const double now = Now();
    if (now < w.end) {
      for (; inflight < kSaturateDepth; ++inflight, ++i) {
        const ReadOp& r = ops[i % ops.size()];
        conn.QueueRecommend(r.user, plan.EdgeAt(w.plan_offset + (now - w.t0)),
                            r.k);
        ++out->counts.sent;
      }
    }
    if (!conn.Flush()) {
      out->error = "reader send failed";
      break;
    }
    if (inflight == 0) break;
    if (!conn.Poll(0.05)) {
      out->error = "reader connection lost";
      break;
    }
    const double done = Now();
    while (inflight > 0 && conn.NextReply(&op, &payload)) {
      --inflight;
      const Answer a = conn.DecodeAnswer(op, payload);
      if (a.ok && !a.degraded) {
        ++out->counts.ok;
        out->Complete(w, done);
      } else {
        ++out->counts.failed;
      }
    }
  }
  out->counts.failed += inflight;
}

// Publishes stream[first, last) on the plan's event schedule; event i
// must be acknowledged with seq i + 1 (the only publisher).
void PacedEvents(WireConn& conn, const Plan& plan, const Window& w,
                 size_t first, size_t last, StreamProgress* progress,
                 Tally* out) {
  size_t next = first;
  std::deque<uint64_t> pending;
  BinaryOp op;
  std::string payload;
  while (true) {
    const double now = Now();
    while (next < last &&
           w.t0 + (plan.event_due[next] - w.plan_offset) <= now) {
      conn.QueueEvent(plan.stream[next]);
      out->lag_ms.push_back(
          Lateness(w.t0 + (plan.event_due[next] - w.plan_offset), now) * 1e3);
      ++out->counts.sent;
      progress->edge.store(plan.stream[next].time);
      pending.push_back(next + 1);
      progress->published.store(next + 1);
      ++next;
    }
    if (!conn.Flush()) {
      out->error = "publisher send failed";
      break;
    }
    if (next == last && pending.empty()) break;
    const double wait =
        next < last
            ? std::max(0.0, w.t0 + (plan.event_due[next] - w.plan_offset) - Now())
            : 1.0;
    if (!conn.Poll(wait)) {
      out->error = "publisher connection lost";
      break;
    }
    while (!pending.empty() && conn.NextReply(&op, &payload)) {
      uint64_t seq = 0;
      const bool ok = op == BinaryOp::kEvent &&
                      simgraph::serve::ParseBinaryU64(payload, &seq).ok() &&
                      seq == pending.front();
      ++(ok ? out->counts.ok : out->counts.failed);
      pending.pop_front();
    }
  }
  out->counts.failed += static_cast<int64_t>(pending.size());
  progress->publisher_done.store(true);
}

// Publishes stream[first, last) flat out, at most kSaturateEventWindow
// events ahead of full acknowledgement; stops sending at w.end (the cap).
void FlatOutEvents(WireConn& conn, const Plan& plan, const Window& w,
                   size_t first, size_t last, StreamProgress* progress,
                   Tally* out) {
  size_t next = first;
  std::deque<uint64_t> pending;
  BinaryOp op;
  std::string payload;
  while (true) {
    if (Now() < w.end) {
      while (next < last &&
             static_cast<int64_t>(next - progress->acked.load()) <
                 kSaturateEventWindow) {
        conn.QueueEvent(plan.stream[next]);
        ++out->counts.sent;
        progress->edge.store(plan.stream[next].time);
        pending.push_back(next + 1);
        ++next;
      }
      progress->published.store(next);
    }
    if (!conn.Flush()) {
      out->error = "publisher send failed";
      break;
    }
    if (pending.empty() && (Now() >= w.end || next == last)) {
      break;
    }
    if (!conn.Poll(0.002)) {
      out->error = "publisher connection lost";
      break;
    }
    while (!pending.empty() && conn.NextReply(&op, &payload)) {
      uint64_t seq = 0;
      const bool ok = op == BinaryOp::kEvent &&
                      simgraph::serve::ParseBinaryU64(payload, &seq).ok() &&
                      seq == pending.front();
      ++(ok ? out->counts.ok : out->counts.failed);
      pending.pop_front();
    }
  }
  out->counts.failed += static_cast<int64_t>(pending.size());
  progress->publisher_done.store(true);
}

// Freshness probe. Paced: at event i's due time, wait_applied(i + 1);
// freshness is its return minus that due time. Flat-out: follows the
// publisher; the last full acknowledgement of stream[first, last) ends
// the block ingest_max_eps is timed over.
void Probe(WireConn& conn, const Plan& plan, const Window& w, size_t first,
           size_t last, bool follow, bool record, StreamProgress* progress,
           Tally* out) {
  size_t next = first;  // next seq - 1 to wait for
  std::deque<std::pair<uint64_t, double>> pending;  // seq, due
  BinaryOp op;
  std::string payload;
  while (true) {
    const double now = Now();
    if (follow) {
      const uint64_t published = progress->published.load();
      for (; next < published; ++next) {
        conn.QueueWaitApplied(next + 1);
        ++out->counts.sent;
        pending.emplace_back(next + 1, now);
      }
    } else {
      while (next < last &&
             w.t0 + (plan.event_due[next] - w.plan_offset) <= now) {
        const double due = w.t0 + (plan.event_due[next] - w.plan_offset);
        conn.QueueWaitApplied(next + 1);
        out->lag_ms.push_back(Lateness(due, now) * 1e3);
        ++out->counts.sent;
        pending.emplace_back(next + 1, due);
        ++next;
      }
    }
    if (!conn.Flush()) {
      out->error = "probe send failed";
      break;
    }
    const bool more =
        follow ? !progress->publisher_done.load() ||
                     next < progress->published.load()
               : next < last;
    if (!more && pending.empty()) break;
    double wait = 0.002;
    if (!follow) {
      wait = more ? std::max(0.0, w.t0 + (plan.event_due[next] - w.plan_offset) -
                                      Now())
                  : 1.0;
    }
    if (!conn.Poll(wait)) {
      out->error = "probe connection lost";
      break;
    }
    const double done = Now();
    while (!pending.empty() && conn.NextReply(&op, &payload)) {
      uint64_t seq = 0;
      const bool ok = op == BinaryOp::kWaitApplied &&
                      simgraph::serve::ParseBinaryU64(payload, &seq).ok() &&
                      seq >= pending.front().first;
      if (ok) {
        ++out->counts.ok;
        progress->acked.store(pending.front().first);
        if (record) out->samples.push_back((done - pending.front().second) * 1e3);
        out->Complete(w, done);
        if (follow && pending.front().first == last) {
          progress->flat_out_done.store(true);
        }
      } else {
        ++out->counts.failed;
      }
      pending.pop_front();
    }
  }
  out->counts.failed += static_cast<int64_t>(pending.size());
  if (follow) progress->flat_out_done.store(true);
}

void Merge(const std::string& key, Tally& t, DriveResult* r) {
  Counts& c = r->counts[key];
  c.sent += t.counts.sent;
  c.ok += t.counts.ok;
  c.failed += t.counts.failed;
  r->lag_ms.insert(r->lag_ms.end(), t.lag_ms.begin(), t.lag_ms.end());
  if (r->error.empty() && !t.error.empty()) r->error = t.error;
}

// Publishes the warm-up prefix stream[0, warmup_end) flat out, untimed.
void Warmup(WireConn& conn, const Plan& plan, DriveResult* r) {
  Counts& c = r->counts["warmup.event"];
  BinaryOp op;
  std::string payload;
  constexpr size_t kChunk = 256;
  const size_t end = static_cast<size_t>(plan.warmup_end);
  for (size_t at = 0; at < end; at += kChunk) {
    const size_t stop = std::min(end, at + kChunk);
    for (size_t i = at; i < stop; ++i) conn.QueueEvent(plan.stream[i]);
    if (!conn.Flush()) {
      r->error = "warm-up send failed";
      return;
    }
    for (size_t i = at; i < stop; ++i) {
      ++c.sent;
      uint64_t seq = 0;
      if (!conn.ReadReply(&op, &payload)) {
        r->error = "warm-up connection lost";
        return;
      }
      const bool ok = op == BinaryOp::kEvent &&
                      simgraph::serve::ParseBinaryU64(payload, &seq).ok() &&
                      seq == i + 1;
      ++(ok ? c.ok : c.failed);
    }
  }
}

// Untimed fence at stream position `position`: wait until every shard
// and the replica applied it, then query the panel at k = kFenceK on the
// server (SGRQ) and on the cache-off replica (NDJSON). Every server
// answer computed fresh (cache_hit = false) must equal the replica's bit
// for bit; quality counts replica-served pairs retweeted later.
void Fence(WireConn& server, uint16_t replica_port, const Plan& plan,
           size_t position, const std::string& name, DriveResult* r) {
  BinaryOp op;
  std::string payload;
  Counts& sc = r->counts[name + ".server"];
  Counts& rc = r->counts[name + ".replica"];
  if (position > 0) {
    server.QueueWaitApplied(position);
    uint64_t seq = 0;
    if (!server.Flush() || !server.ReadReply(&op, &payload) ||
        op != BinaryOp::kWaitApplied ||
        !simgraph::serve::ParseBinaryU64(payload, &seq).ok() ||
        seq < position) {
      r->error = name + ": wait_applied failed";
      return;
    }
  }
  const Timestamp now =
      position == 0 ? plan.split_time : plan.stream[position - 1].time;
  std::unique_ptr<WireConn> replica = WireConn::Open(replica_port, false);
  if (replica == nullptr) {
    r->error = name + ": cannot reach the replica";
    return;
  }
  constexpr size_t kChunk = 64;
  for (size_t at = 0; at < plan.panel.size(); at += kChunk) {
    const size_t end = std::min(plan.panel.size(), at + kChunk);
    for (size_t i = at; i < end; ++i) {
      server.QueueRecommend(plan.panel[i], now, kFenceK);
      replica->QueueRecommend(plan.panel[i], now, kFenceK);
    }
    if (!server.Flush() || !replica->Flush()) {
      r->error = name + ": send failed";
      return;
    }
    for (size_t i = at; i < end; ++i) {
      ++sc.sent;
      ++rc.sent;
      std::string rpayload;
      BinaryOp rop;
      if (!server.ReadReply(&op, &payload) ||
          !replica->ReadReply(&rop, &rpayload)) {
        r->error = name + ": connection lost";
        return;
      }
      const Answer s = server.DecodeAnswer(op, payload);
      const Answer o = replica->DecodeAnswer(rop, rpayload);
      const bool s_ok = s.ok && !s.degraded && s.applied_seq >= position;
      const bool o_ok = o.ok && !o.degraded && o.applied_seq >= position;
      ++(s_ok ? sc.ok : sc.failed);
      ++(o_ok ? rc.ok : rc.failed);
      if (!o_ok) continue;
      if (s_ok && !s.cache_hit) {
        ++r->fence_compared;
        if (!SameTweets(s.tweets, o.tweets)) ++r->fence_mismatches;
      }
      for (const simgraph::ScoredTweet& t : o.tweets) {
        const auto it = plan.future.find(PairKey(plan.panel[i], t.tweet));
        if (it != plan.future.end() &&
            it->second >= static_cast<int64_t>(position)) {
          ++r->quality_hits;
        }
      }
    }
  }
}

}  // namespace

DriveResult Drive(const Plan& plan, const Endpoints& endpoints,
                  const std::function<void(const char*)>& on_boundary) {
  DriveResult result;
  const uint16_t port = endpoints.server_port;
  const size_t warmup_end = static_cast<size_t>(plan.warmup_end);
  const size_t paced_end = static_cast<size_t>(plan.paced_end);
  std::unique_ptr<WireConn> reader0 = WireConn::Open(port, true);
  if (reader0 == nullptr) {
    result.error = "cannot reach the server";
    return result;
  }
  Warmup(*reader0, plan, &result);
  if (!result.error.empty()) return result;
  Fence(*reader0, endpoints.replica_port, plan, warmup_end, "fence0", &result);
  if (!result.error.empty()) return result;

  std::unique_ptr<WireConn> reader1 = WireConn::Open(port, true);
  std::unique_ptr<WireConn> publisher = WireConn::Open(port, true);
  std::unique_ptr<WireConn> probe = WireConn::Open(port, true);
  if (reader1 == nullptr || publisher == nullptr || probe == nullptr) {
    result.error = "cannot open the load connections";
    return result;
  }
  WireConn* readers[kReaders] = {reader0.get(), reader1.get()};
  const bool reads_saturate = plan.spec.saturate == Saturate::kReads;

  auto cpu_now = [&] {
    double s = 0.0;
    for (int pid : endpoints.pids) s += ProcCpuSeconds(pid);
    return s;
  };

  // Runs one phase on four threads: this one (reader 0) plus three.
  auto run_phase = [&](const std::string& phase, const Window& w,
                       bool paced_reads, size_t ev_first, size_t ev_last,
                       bool flat_out, Tally tallies[4],
                       StreamProgress* progress) {
    auto reader = [&](int c) {
      if (paced_reads) {
        PacedReads(*readers[c], c, plan, w, phase == "paced", progress,
                   &tallies[c]);
      } else {
        ClosedReads(*readers[c], c, plan, w, &tallies[c]);
      }
    };
    std::thread t1(reader, 1);
    std::thread t2([&] {
      if (flat_out) {
        FlatOutEvents(*publisher, plan, w, ev_first, ev_last, progress,
                      &tallies[2]);
      } else {
        PacedEvents(*publisher, plan, w, ev_first, ev_last, progress,
                    &tallies[2]);
      }
    });
    std::thread t3([&] {
      Probe(*probe, plan, w, ev_first, ev_last, flat_out, phase == "paced",
            progress, &tallies[3]);
    });
    reader(0);
    t1.join();
    t2.join();
    t3.join();
    for (int c = 0; c < kReaders; ++c) Merge(phase + ".read", tallies[c], &result);
    Merge(phase + ".event", tallies[2], &result);
    Merge(phase + ".probe", tallies[3], &result);
  };

  // Paced phase.
  {
    Tally tallies[4];
    StreamProgress progress;
    Window w;
    w.t0 = Now() + 0.02;
    w.end = w.t0 + plan.paced_seconds;
    w.plan_offset = 0.0;
    on_boundary("paced_begin");
    const double cpu0 = cpu_now();
    const double wall0 = Now();
    run_phase("paced", w, true, warmup_end, paced_end, false, tallies,
              &progress);
    result.paced_wall_s = Now() - wall0;
    const double cpu1 = cpu_now();
    on_boundary("paced_end");
    for (int c = 0; c < kReaders; ++c) {
      for (ReadRecord& rec : tallies[c].records) {
        result.records.push_back(std::move(rec));
      }
    }
    // Latency samples in schedule order, so tail chunks are time windows.
    std::sort(result.records.begin(), result.records.end(),
              [](const ReadRecord& a, const ReadRecord& b) {
                return a.due < b.due;
              });
    for (const ReadRecord& rec : result.records) {
      if (rec.ok) result.read_us.push_back((rec.done - rec.due) * 1e6);
    }
    result.fresh_ms = tallies[3].samples;
    result.paced_ops = tallies[0].counts.ok + tallies[1].counts.ok +
                       tallies[2].counts.ok;
    if (result.paced_ops > 0) {
      result.cpu_us_per_op =
          (cpu1 - cpu0) * 1e6 / static_cast<double>(result.paced_ops);
    }
  }
  if (!result.error.empty()) return result;

  // Peak memory through the warm-up and the paced phase: a fixed amount
  // of work, unlike the flat-out phase that follows.
  for (int pid : endpoints.pids) result.rss_mb += ProcPeakRssMb(pid);

  // Boundary fence: the probe connection makes room for the replica's.
  probe.reset();
  Fence(*reader0, endpoints.replica_port, plan, paced_end, "fence1",
        &result);
  if (!result.error.empty()) return result;
  probe = WireConn::Open(port, true);
  if (probe == nullptr) {
    result.error = "cannot reopen the probe connection";
    return result;
  }

  // Saturate phase.
  {
    Tally tallies[4];
    StreamProgress progress;
    progress.published.store(paced_end);
    progress.acked.store(paced_end);
    progress.edge.store(paced_end > 0 ? plan.stream[paced_end - 1].time
                                      : plan.split_time);
    Window w;
    w.t0 = Now() + 0.02;
    w.end =
        w.t0 + plan.saturate_seconds * (reads_saturate ? 1.0 : kFlatOutCap);
    w.plan_offset = plan.paced_seconds;
    const size_t flat_out_end =
        paced_end + static_cast<size_t>(plan.flat_out_events);
    on_boundary("saturate_begin");
    run_phase("saturate", w, !reads_saturate, paced_end,
              reads_saturate ? plan.event_due.size() : flat_out_end,
              !reads_saturate, tallies, &progress);
    on_boundary("saturate_end");
    // The side that does not saturate stays paced; its rate then shows
    // whether it keeps up while the other side runs flat out.
    result.read_max_rps = PhaseRate(tallies, kReaders, w, reads_saturate);
    if (reads_saturate) {
      result.ingest_max_eps = PhaseRate(&tallies[3], 1, w, false);
    } else {
      // The fixed block over the time to its last full acknowledgement.
      const Tally& probe_tally = tallies[3];
      if (progress.acked.load() < flat_out_end) {
        result.error = "flat-out block not acknowledged within the cap";
      } else if (probe_tally.last_done > w.t0) {
        result.ingest_max_eps = static_cast<double>(plan.flat_out_events) /
                                (probe_tally.last_done - w.t0);
      }
    }
  }
  return result;
}

void AddEndToEnd(const Plan& plan, const DriveResult& r,
                 const std::string& prefix, Report* report) {
  const Summary read = Summarize(r.read_us);
  const Summary fresh = Summarize(r.fresh_ms);
  const Summary lag = Summarize(r.lag_ms);
  report->Set(prefix + "read_p50_us",
              ChunkedQuantile(r.read_us, 0.5, kMaxChunks), "us");
  report->Set(prefix + "read_p99_us",
              ChunkedQuantile(r.read_us, 0.99, kMaxChunks), "us");
  report->Set(prefix + "read_samples", static_cast<double>(read.n), "count");
  report->Set(prefix + "fresh_p50_ms",
              ChunkedQuantile(r.fresh_ms, 0.5, kMaxChunks), "ms");
  report->Set(prefix + "fresh_p99_ms",
              ChunkedQuantile(r.fresh_ms, 0.99, kMaxChunks), "ms");
  report->Set(prefix + "fresh_samples", static_cast<double>(fresh.n), "count");
  report->Set(prefix + "read_max_rps", r.read_max_rps, "req/s");
  report->Set(prefix + "ingest_max_eps", r.ingest_max_eps, "events/s");
  report->Set(prefix + "cpu_us_per_op", r.cpu_us_per_op, "us");
  report->Set(prefix + "server_rss_mb", r.rss_mb, "MB");
  report->Set(prefix + "quality_hits", static_cast<double>(r.quality_hits),
              "count");
  report->Set(prefix + "gen.lag_ms.p99", lag.p99, "ms");
  report->Set(prefix + "gen.lag_samples", static_cast<double>(lag.n), "count");
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [key, c] : r.counts) {
    attempted += c.sent;
    failed += c.failed;
    report->Set(prefix + "count." + key + ".sent", static_cast<double>(c.sent),
                "count");
    report->Set(prefix + "count." + key + ".ok", static_cast<double>(c.ok),
                "count");
    report->Set(prefix + "count." + key + ".failed",
                static_cast<double>(c.failed), "count");
  }
  report->Set(prefix + "attempted", static_cast<double>(attempted), "count");
  report->Set(prefix + "failed", static_cast<double>(failed), "count");
  report->Set(prefix + "fail_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
              "ratio");
  report->Set(prefix + "fence_compared", static_cast<double>(r.fence_compared),
              "count");
  report->Set(prefix + "fence_mismatches",
              static_cast<double>(r.fence_mismatches), "count");
  report->Set(prefix + "paced_events",
              static_cast<double>(plan.paced_end - plan.warmup_end), "count");
  if (!r.error.empty()) report->Note(prefix + "error", r.error);
  if (read.n > 0 && !read.p99_supported) {
    report->Note(prefix + "read_p99_us", "unsupported: the maximum is shown");
  }
  if (fresh.n > 0 && !fresh.p99_supported) {
    report->Note(prefix + "fresh_p99_ms", "unsupported: the maximum is shown");
  }
}

}  // namespace perfbench
