// Probe-trace formatting: fixed key order, JSON-escaped strings,
// integer-only values.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "obs/json.h"

namespace tlsharm::obs {
namespace {

ProbeTraceEvent SampleEvent() {
  ProbeTraceEvent event;
  event.day = 2;
  event.seq = 41;
  event.pass = "requeue";
  event.kind = "dhe";
  event.domain = 7;
  event.scheduled = 187200;
  event.attempt = 3;
  event.start = 187215;
  event.duration = 10;
  event.backoff = 4;
  event.failure = "timeout";
  event.final_attempt = false;
  return event;
}

TEST(TraceFormatTest, GoldenLineLocksSchemaAndKeyOrder) {
  // Any change to this string is a trace-schema change; update the docs and
  // TelemetryDeterminismTest's schema check along with it.
  EXPECT_EQ(FormatTraceEvent(SampleEvent()),
            "{\"day\":2,\"seq\":41,\"pass\":\"requeue\",\"kind\":\"dhe\","
            "\"domain\":7,\"scheduled\":187200,\"attempt\":3,"
            "\"start\":187215,\"dur\":10,\"backoff\":4,"
            "\"failure\":\"timeout\",\"final\":0}");
}

TEST(TraceFormatTest, ResumedFieldOnlyWhenMeaningful) {
  ProbeTraceEvent event;  // resumed defaults to -1: not a resumption probe
  EXPECT_EQ(FormatTraceEvent(event).find("resumed"), std::string::npos);
  event.resumed = 1;
  EXPECT_NE(FormatTraceEvent(event).find("\"resumed\":1"), std::string::npos);
  event.resumed = 0;
  EXPECT_NE(FormatTraceEvent(event).find("\"resumed\":0"), std::string::npos);
}

TEST(TraceFormatTest, EveryLineParsesWithinTheJsonSubset) {
  ProbeTraceEvent event = SampleEvent();
  event.resumed = 1;
  JsonValue value;
  ASSERT_TRUE(ParseJson(FormatTraceEvent(event), value));
  EXPECT_EQ(value.Find("seq")->integer, 41);
  EXPECT_EQ(value.Find("failure")->string, "timeout");
  EXPECT_EQ(value.Find("final")->integer, 0);
  EXPECT_EQ(value.Find("resumed")->integer, 1);
}

TEST(TraceFormatTest, StringFieldsAreJsonEscaped) {
  ProbeTraceEvent event;
  event.failure = "we\"ird\n";
  const std::string line = FormatTraceEvent(event);
  JsonValue value;
  ASSERT_TRUE(ParseJson(line, value));
  EXPECT_EQ(value.Find("failure")->string, "we\"ird\n");
}

TEST(JsonlSinkTest, EmitsOneLinePerEventAndCounts) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit(SampleEvent());
  sink.Emit(SampleEvent());
  EXPECT_EQ(sink.Emitted(), 2u);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_EQ(text.front(), '{');
}

TEST(EnvKnobTest, TracePathFromEnv) {
  ASSERT_EQ(unsetenv("TLSHARM_TRACE"), 0);
  EXPECT_EQ(TracePathFromEnv(), "");
  ASSERT_EQ(setenv("TLSHARM_TRACE", "/tmp/t.jsonl", 1), 0);
  EXPECT_EQ(TracePathFromEnv(), "/tmp/t.jsonl");
  ASSERT_EQ(unsetenv("TLSHARM_TRACE"), 0);
}

}  // namespace
}  // namespace tlsharm::obs
