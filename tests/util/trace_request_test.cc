#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "util/trace.h"

namespace simgraph {
namespace trace {
namespace {

/// Each test starts from a clean slate: tracing off, buffers empty,
/// stage collection not forced.
class TraceRequestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    SetForceStageCollection(false);
    Clear();
  }
  void TearDown() override {
    SetEnabled(false);
    SetForceStageCollection(false);
    Clear();
  }

  static std::string Exported() {
    std::ostringstream out;
    WriteJson(out);
    return out.str();
  }

  static int CountOccurrences(const std::string& haystack,
                              const std::string& needle) {
    int count = 0;
    size_t pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string::npos) {
      ++count;
      pos += needle.size();
    }
    return count;
  }
};

TEST_F(TraceRequestTest, OwnerScopeAllocatesUniqueIds) {
  RequestScope a("request/a");
  EXPECT_TRUE(a.owner());
  EXPECT_NE(a.request_id(), 0u);
  const uint64_t first = a.request_id();
  uint64_t second = 0;
  // A second owner on another thread gets a different id.
  std::thread other([&] {
    RequestScope b("request/b");
    second = b.request_id();
  });
  other.join();
  EXPECT_NE(second, 0u);
  EXPECT_NE(second, first);
}

TEST_F(TraceRequestTest, DisabledScopeRecordsNothing) {
  {
    RequestScope scope("request/idle");
    EXPECT_FALSE(scope.recording());
    EXPECT_FALSE(scope.collecting());
    TraceSpan span("request/stage", "serve");
  }
  EXPECT_EQ(NumBufferedEvents(), 0);
}

TEST_F(TraceRequestTest, RootAndChildExportAsOneRequestTree) {
  SetEnabled(true);
  uint64_t id = 0;
  {
    RequestScope scope("request/recommend");
    EXPECT_TRUE(scope.recording());
    id = scope.request_id();
    { TraceSpan span("request/cache_lookup", "serve"); }
    { TraceSpan span("request/candidate_scoring", "serve"); }
  }
  const std::string json = Exported();
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"0x%llx\"",
                static_cast<unsigned long long>(id));
  // Root + 2 children, each a begin/end pair sharing the request id.
  EXPECT_EQ(CountOccurrences(json, hex), 6) << json;
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"b\""), 3) << json;
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"e\""), 3) << json;
  EXPECT_NE(json.find("\"root\": true"), std::string::npos);
  EXPECT_NE(json.find("request/recommend"), std::string::npos);
  EXPECT_NE(json.find("request/cache_lookup"), std::string::npos);
}

TEST_F(TraceRequestTest, SetOpRenamesTheRootSpan) {
  SetEnabled(true);
  {
    RequestScope scope("request/handle");
    scope.set_op("request/recommend");
  }
  const std::string json = Exported();
  EXPECT_EQ(json.find("request/handle"), std::string::npos) << json;
  EXPECT_NE(json.find("request/recommend"), std::string::npos);
}

TEST_F(TraceRequestTest, NestedScopeIsPassive) {
  SetEnabled(true);
  {
    RequestScope outer("request/outer");
    const uint64_t outer_id = outer.request_id();
    {
      RequestScope inner("request/inner");
      // The outer scope keeps owning the request.
      EXPECT_FALSE(inner.owner());
      TraceSpan span("request/stage", "serve");
    }
    EXPECT_EQ(CurrentScope(), &outer);
    EXPECT_EQ(outer.request_id(), outer_id);
  }
  const std::string json = Exported();
  // Only one root: the inner scope emitted no root span of its own.
  EXPECT_EQ(CountOccurrences(json, "\"root\": true"), 1) << json;
  EXPECT_EQ(json.find("request/inner"), std::string::npos) << json;
}

TEST_F(TraceRequestTest, AdoptingScopeJoinsTheTreeWithoutASecondRoot) {
  SetEnabled(true);
  uint64_t id = 0;
  bool recorded = false;
  {
    RequestScope origin("request/event");
    id = origin.request_id();
    recorded = origin.recording();
  }
  std::thread applier([&] {
    RequestScope adopted("request/apply", id, recorded);
    EXPECT_FALSE(adopted.owner());
    EXPECT_EQ(adopted.request_id(), id);
    TraceSpan span("request/apply_event", "serve");
  });
  applier.join();
  const std::string json = Exported();
  EXPECT_EQ(CountOccurrences(json, "\"root\": true"), 1) << json;
  EXPECT_NE(json.find("request/apply_event"), std::string::npos) << json;
}

TEST_F(TraceRequestTest, ChildrenWithoutARecordedRootAreDropped) {
  // The origin scope ran with tracing off, so its root was never
  // recorded; an adopter honouring adopt_recorded=false must not leave
  // dangling children in the export.
  uint64_t id = 0;
  {
    RequestScope origin("request/event");
    id = origin.request_id();
    EXPECT_FALSE(origin.recording());
  }
  SetEnabled(true);
  {
    RequestScope adopted("request/apply", id, /*adopt_recorded=*/false);
    EXPECT_FALSE(adopted.recording());
    TraceSpan span("request/apply_event", "serve");
  }
  // Cross-thread explicit spans are filtered at export even if recorded.
  RecordRequestSpan("request/queue_wait", "serve", 0, 10, id);
  const std::string json = Exported();
  // The child span survives only as a plain event, detached from the
  // unrooted request: no async pair, no id field anywhere.
  EXPECT_NE(json.find("request/apply_event"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"id\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ph\": \"b\""), std::string::npos) << json;
  EXPECT_EQ(json.find("request/queue_wait"), std::string::npos) << json;
}

TEST_F(TraceRequestTest, RecordRequestSpanExportsUnderTheRequestId) {
  SetEnabled(true);
  uint64_t id = 0;
  {
    RequestScope scope("request/event");
    id = scope.request_id();
    RecordRequestSpan("request/queue_wait", "serve", 5, 42, id);
  }
  const std::string json = Exported();
  EXPECT_NE(json.find("request/queue_wait"), std::string::npos) << json;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"0x%llx\"",
                static_cast<unsigned long long>(id));
  EXPECT_GE(CountOccurrences(json, hex), 4) << json;  // root + queue_wait
}

TEST_F(TraceRequestTest, StageBreakdownCollectsChildSpans) {
  SetEnabled(true);
  RequestScope scope("request/recommend");
  { TraceSpan span("request/cache_lookup", "serve"); }
  { TraceSpan span("request/candidate_scoring", "serve"); }
  ASSERT_EQ(scope.num_stages(), 2);
  EXPECT_STREQ(scope.stage(0).name, "request/cache_lookup");
  EXPECT_STREQ(scope.stage(1).name, "request/candidate_scoring");
  EXPECT_GE(scope.stage(0).micros, 0);
}

TEST_F(TraceRequestTest, ForcedStageCollectionWorksWithoutTracing) {
  SetForceStageCollection(true);
  {
    RequestScope scope("request/recommend");
    EXPECT_FALSE(scope.recording());
    EXPECT_TRUE(scope.collecting());
    TraceSpan span("request/cache_lookup", "serve");
  }
  // Collection fed the breakdown but recorded no trace events.
  EXPECT_EQ(NumBufferedEvents(), 0);
}

TEST_F(TraceRequestTest, PlainSpansAreUntouchedByRequestMachinery) {
  SetEnabled(true);
  { TraceSpan span("SimGraph::Build", "build"); }
  const std::string json = Exported();
  // Exported exactly as before request tracing existed: one 'X' event,
  // no async pair, no id field.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"id\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace trace
}  // namespace simgraph
