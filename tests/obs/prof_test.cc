// The wall-clock performance plane (obs/prof.h, obs/prof_report.h).
//
// Wall time itself is untestable, so every test here injects explicit
// timestamps through the prof_internal seam — the same recording code the
// monotonic clock feeds in production, but with durations, self-times,
// histogram buckets and Chrome trace bytes that are exactly predictable.
//
// The plane's global state (thread buffers, track names) is process-wide
// and survives ProfReset by design, so GoldenChromeTrace must run before
// any test that registers extra thread tracks; tests in this file are
// ordered accordingly (gtest runs them in registration order), and
// obs_tests links this file first, ahead of the profiled scans in
// telemetry_determinism_test.cc.
#include "obs/prof.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/prof_report.h"

namespace tlsharm::obs {
namespace {

using prof_internal::BeginSpanAt;
using prof_internal::EndSpanAt;

// Fresh sites for this file; the library's own sites (scan.*, crypto.*)
// stay at count zero because profiling is only enabled inside these tests.
const ProfSite kOuter("proftest.outer");
const ProfSite kInner("proftest.inner");
const ProfSite kQuiet("proftest.quiet", kProfNoTrace);
const ProfSite kBuckets("proftest.buckets");

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetProfilingEnabled(true);
    SetProfTraceEnabled(false);
    ProfReset();
  }
  void TearDown() override {
    SetProfilingEnabled(false);
    SetProfTraceEnabled(false);
    ProfReset();
  }
};

const ProfSpanStats* FindSpan(const ProfSnapshot& snap,
                              const std::string& name) {
  for (const ProfSpanStats& s : snap.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// The exported Chrome trace is a documented schema (fixed field order,
// pid/tid/ts/dur in microseconds with nanosecond precision); tools and the
// LoadChromeTrace round-trip depend on these exact bytes.
TEST_F(ProfTest, GoldenChromeTrace) {
  SetProfTraceEnabled(true);
  ProfSetThreadTrack(0, "main");
  BeginSpanAt(kOuter, 1000);
  BeginSpanAt(kInner, 2000);
  EndSpanAt(3000);
  EndSpanAt(5000);

  EXPECT_EQ(ProfTraceEventCount(), 2u);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"main\"}}"
      ",\n{\"name\":\"proftest.outer\",\"cat\":\"proftest\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":4.000}"
      ",\n{\"name\":\"proftest.inner\",\"cat\":\"proftest\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":1.000}"
      "\n]}\n";
  EXPECT_EQ(ProfChromeTraceJson(), expected);
}

TEST_F(ProfTest, NestedSpansSplitSelfTime) {
  BeginSpanAt(kOuter, 1000);
  BeginSpanAt(kInner, 2000);
  EndSpanAt(3000);
  EndSpanAt(5000);

  const ProfSnapshot snap = ProfSnapshotNow();
  const ProfSpanStats* outer = FindSpan(snap, "proftest.outer");
  const ProfSpanStats* inner = FindSpan(snap, "proftest.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->total_ns, 4000u);
  EXPECT_EQ(outer->self_ns, 3000u);  // minus the 1000 ns child
  EXPECT_EQ(inner->total_ns, 1000u);
  EXPECT_EQ(inner->self_ns, 1000u);
  // Depth-0 spans feed the attribution partition: root total is the
  // outer span's wall time, root self the slice no child claimed.
  EXPECT_EQ(snap.root_total_ns, 4000u);
  EXPECT_EQ(snap.root_self_ns, 3000u);
  EXPECT_DOUBLE_EQ(ProfAttributedPct(snap), 25.0);
}

TEST_F(ProfTest, DisabledScopeRecordsNothing) {
  SetProfilingEnabled(false);
  { ProfScope span(kOuter); }
  SetProfilingEnabled(true);
  const ProfSnapshot snap = ProfSnapshotNow();
  EXPECT_EQ(FindSpan(snap, "proftest.outer"), nullptr);
}

TEST_F(ProfTest, NoTraceFlagSkipsEventBufferButAggregates) {
  SetProfTraceEnabled(true);
  BeginSpanAt(kQuiet, 100);
  EndSpanAt(200);
  EXPECT_EQ(ProfTraceEventCount(), 0u);
  const ProfSnapshot snap = ProfSnapshotNow();
  const ProfSpanStats* quiet = FindSpan(snap, "proftest.quiet");
  ASSERT_NE(quiet, nullptr);
  EXPECT_EQ(quiet->count, 1u);
  EXPECT_EQ(quiet->total_ns, 100u);
  EXPECT_EQ(quiet->flags, kProfNoTrace);
}

TEST_F(ProfTest, HistogramBucketsAndQuantiles) {
  // Durations 4..7 ns all land in bucket 2 ([4, 8)); 1024 ns in bucket 10.
  for (std::uint64_t dur = 4; dur <= 7; ++dur) {
    BeginSpanAt(kBuckets, 10'000);
    EndSpanAt(10'000 + dur);
  }
  BeginSpanAt(kBuckets, 20'000);
  EndSpanAt(20'000 + 1024);

  const ProfSnapshot snap = ProfSnapshotNow();
  const ProfSpanStats* s = FindSpan(snap, "proftest.buckets");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 5u);
  EXPECT_EQ(s->min_ns, 4u);
  EXPECT_EQ(s->max_ns, 1024u);
  EXPECT_EQ(s->buckets[2], 4u);
  EXPECT_EQ(s->buckets[10], 1u);

  // Quantiles: exact min/max at the extremes, interpolation inside a
  // bucket in between, and monotone in q.
  EXPECT_DOUBLE_EQ(ProfQuantileNs(*s, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(ProfQuantileNs(*s, 1.0), 1024.0);
  const double p50 = ProfQuantileNs(*s, 0.5);
  EXPECT_GE(p50, 4.0);
  EXPECT_LT(p50, 8.0);
  EXPECT_LE(ProfQuantileNs(*s, 0.5), ProfQuantileNs(*s, 0.95));
  EXPECT_LE(ProfQuantileNs(*s, 0.95), ProfQuantileNs(*s, 0.99));
}

// Worker threads write to their own buffers; after join (the production
// contract — the scan engine merges only after joining its shards) the
// snapshot merges every thread's aggregates.
TEST_F(ProfTest, MergesThreadLocalBuffers) {
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 3; ++i) {
        const std::uint64_t base = 1000u * static_cast<std::uint64_t>(t + 1);
        BeginSpanAt(kInner, base);
        EndSpanAt(base + 10);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  BeginSpanAt(kInner, 50);
  EndSpanAt(70);

  const ProfSnapshot snap = ProfSnapshotNow();
  const ProfSpanStats* s = FindSpan(snap, "proftest.inner");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 13u);  // 4 threads x 3 + 1 on this thread
  EXPECT_EQ(s->total_ns, 4u * 3u * 10u + 20u);
  EXPECT_EQ(s->min_ns, 10u);
  EXPECT_EQ(s->max_ns, 20u);
}

TEST_F(ProfTest, ShardStallAccounting) {
  ProfSetThreadTrack(1, "shard-0");
  ProfRecordShardStall(1, 900, 100);
  ProfRecordShardStall(1, 800, 200);
  const ProfSnapshot snap = ProfSnapshotNow();
  ASSERT_EQ(snap.tracks.size(), 1u);
  EXPECT_EQ(snap.tracks[0].track, 1);
  EXPECT_EQ(snap.tracks[0].name, "shard-0");
  EXPECT_EQ(snap.tracks[0].days, 2u);
  EXPECT_EQ(snap.tracks[0].busy_ns, 1700u);
  EXPECT_EQ(snap.tracks[0].stall_ns, 300u);
}

// `tlsharm prof`'s offline mode: the Chrome trace file folds back into the
// same aggregates the live snapshot held, self-time reconstructed by
// re-nesting each tid's intervals.
TEST_F(ProfTest, LoadChromeTraceRoundTrips) {
  SetProfTraceEnabled(true);
  BeginSpanAt(kOuter, 1000);
  BeginSpanAt(kInner, 2000);
  EndSpanAt(3000);
  EndSpanAt(5000);
  const std::string json = ProfChromeTraceJson();

  ProfSnapshot loaded;
  std::string error;
  ASSERT_TRUE(LoadChromeTrace(json, &loaded, &error)) << error;
  const ProfSpanStats* outer = FindSpan(loaded, "proftest.outer");
  const ProfSpanStats* inner = FindSpan(loaded, "proftest.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->total_ns, 4000u);
  EXPECT_EQ(outer->self_ns, 3000u);
  EXPECT_EQ(inner->total_ns, 1000u);
  EXPECT_EQ(inner->self_ns, 1000u);

  ProfSnapshot bad;
  EXPECT_FALSE(LoadChromeTrace("not json", &bad, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(ProfTest, ReportRendersHotspotsAndAttribution) {
  BeginSpanAt(kOuter, 1000);
  BeginSpanAt(kInner, 2000);
  EndSpanAt(3000);
  EndSpanAt(5000);
  const ProfSnapshot snap = ProfSnapshotNow();

  const std::string report = RenderProfReport(snap);
  EXPECT_NE(report.find("proftest.outer"), std::string::npos);
  EXPECT_NE(report.find("attributed to named spans"), std::string::npos);

  // Hotspot JSON is integer-ns only, so the deterministic plane's own
  // parser (obs/json.h) can read what lands in BENCH_prof.json.
  const std::string hotspots = RenderHotspotJson(snap, 8);
  EXPECT_NE(hotspots.find("\"span\": \"proftest.outer\""),
            std::string::npos);
}

}  // namespace
}  // namespace tlsharm::obs
