// Toggle-under-load test: hammers RequestScope + TraceSpan from many
// threads while the main thread flips trace::SetEnabled, then checks the
// export contains no dangling request trees — every request-scoped event
// in the output belongs to a request whose root span was recorded. Runs
// under the "concurrency" ctest label (and thus the TSAN preset).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/trace.h"

namespace simgraph {
namespace trace {
namespace {

/// Extracts every occurrence of `key` followed by a quoted hex id.
std::set<std::string> IdsAfter(const std::string& json,
                               const std::string& marker) {
  std::set<std::string> ids;
  size_t pos = 0;
  while ((pos = json.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    const size_t open = json.find('"', pos);
    if (open == std::string::npos) break;
    const size_t close = json.find('"', open + 1);
    if (close == std::string::npos) break;
    ids.insert(json.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return ids;
}

TEST(TraceToggleTest, TogglingUnderLoadLeavesNoDanglingRequestEvents) {
  SetEnabled(false);
  Clear();

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 400;
  std::atomic<bool> stop_toggling{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        RequestScope scope("request/recommend");
        { TraceSpan span("request/cache_lookup", "serve"); }
        { TraceSpan span("request/candidate_scoring", "serve"); }
        RecordRequestSpan("request/queue_wait", "serve", NowMicros(), 1,
                          scope.request_id());
      }
    });
  }
  std::thread toggler([&] {
    bool on = false;
    while (!stop_toggling.load(std::memory_order_relaxed)) {
      on = !on;
      SetEnabled(on);
      std::this_thread::yield();
    }
  });
  for (std::thread& w : workers) w.join();
  stop_toggling.store(true);
  toggler.join();
  SetEnabled(false);

  std::ostringstream out;
  WriteJson(out);
  const std::string json = out.str();

  // Every request id appearing anywhere in the export must belong to a
  // request that also exported its root span ("root": true on the 'b'
  // event). The root markers appear inside the args of begin events:
  //   "id": "0x2a", "args": {"cat": "serve", "root": true}
  std::set<std::string> all_ids = IdsAfter(json, "\"id\": ");
  std::set<std::string> rooted;
  size_t pos = 0;
  while ((pos = json.find("\"root\": true", pos)) != std::string::npos) {
    // Walk back to the "id" field of this event.
    const size_t id_pos = json.rfind("\"id\": ", pos);
    ASSERT_NE(id_pos, std::string::npos);
    const size_t open = json.find('"', id_pos + 6);
    const size_t close = json.find('"', open + 1);
    rooted.insert(json.substr(open + 1, close - open - 1));
    pos += 1;
  }
  for (const std::string& id : all_ids) {
    EXPECT_TRUE(rooted.count(id) > 0)
        << "request id " << id << " exported without a root span";
  }

  // The export is loadable JSON in the basic structural sense.
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  Clear();
}

TEST(TraceToggleTest, SpanOpenAcrossDisableDoesNotRecordHalfEvents) {
  SetEnabled(false);
  Clear();
  SetEnabled(true);
  {
    RequestScope scope("request/recommend");
    TraceSpan span("request/cache_lookup", "serve");
    SetEnabled(false);
    // Span and scope close while tracing is off: neither records.
  }
  EXPECT_EQ(NumBufferedEvents(), 0);

  // The inverse: enabling mid-span must not record a span whose start
  // was never clocked for recording.
  {
    RequestScope scope("request/recommend");
    TraceSpan span("request/cache_lookup", "serve");
    SetEnabled(true);
  }
  SetEnabled(false);
  std::ostringstream out;
  WriteJson(out);
  // Whatever was buffered (at most the root), no cache_lookup child with
  // a bogus id may appear without its root.
  const std::string json = out.str();
  if (json.find("request/cache_lookup") != std::string::npos) {
    EXPECT_NE(json.find("\"root\": true"), std::string::npos) << json;
  }
  Clear();
}

}  // namespace
}  // namespace trace
}  // namespace simgraph
