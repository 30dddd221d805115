// The observability layer's end-to-end contract against the sharded scan
// engine: for a fixed fault-injected world, the merged metrics snapshot and
// the probe-trace byte stream are identical at any thread count, the
// snapshot round-trips through its own parser and every trace line through
// the JSON parser — and neither attaching telemetry nor enabling the
// wall-clock profiling plane changes a byte of the scan's own output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/fleet.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "scanner/scan_engine.h"

namespace tlsharm::scanner {
namespace {

struct TelemetryOutput {
  std::string observations;
  std::string metrics_json;
  std::string trace;
};

// Identically constructed fault-injected worlds per run, same spec as
// ParallelDeterminismTest but with the telemetry attached.
TelemetryOutput RunInstrumentedStudy(int threads, bool telemetry) {
  simnet::Internet net(simnet::PaperPopulationSpec(500), 4242);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  std::ostringstream stream;
  std::ostringstream trace_stream;
  ObservationWriter sink(stream);
  obs::JsonlTraceSink trace_sink(trace_stream);
  obs::MetricsRegistry metrics;

  ScanEngineOptions options;
  options.threads = threads;
  options.robustness.retry.max_attempts = 3;
  options.store = &sink;
  if (telemetry) {
    options.metrics = &metrics;
    options.trace = &trace_sink;
  }

  RunShardedDailyScans(net, /*days=*/2, /*seed=*/777, options);
  TelemetryOutput out;
  out.observations = stream.str();
  out.metrics_json = metrics.SnapshotJson();
  out.trace = trace_stream.str();
  return out;
}

TEST(TelemetryDeterminismTest, SnapshotAndTraceIdenticalAtAnyThreadCount) {
  const TelemetryOutput serial = RunInstrumentedStudy(1, true);
  ASSERT_FALSE(serial.trace.empty());

  obs::MetricsSnapshot snapshot;
  ASSERT_TRUE(obs::ParseSnapshot(serial.metrics_json, snapshot));
  ASSERT_GT(snapshot.counters.at("probe.probes"), 0u);
  EXPECT_EQ(obs::RenderSnapshot(snapshot), serial.metrics_json)
      << "the snapshot must round-trip byte-for-byte";

  // Every trace line is a JSON object with the full attempt schema, and
  // there is exactly one line per recorded connection attempt.
  static const char* kRequired[] = {"day",     "seq",     "pass",
                                    "kind",    "domain",  "scheduled",
                                    "attempt", "start",   "dur",
                                    "backoff", "failure", "final"};
  std::istringstream lines(serial.trace);
  std::string line;
  std::uint64_t line_count = 0;
  while (std::getline(lines, line)) {
    ++line_count;
    obs::JsonValue value;
    ASSERT_TRUE(obs::ParseJson(line, value)) << "trace line " << line_count;
    ASSERT_EQ(value.kind, obs::JsonValue::Kind::kObject) << line;
    for (const char* key : kRequired) {
      ASSERT_NE(value.Find(key), nullptr)
          << "trace line " << line_count << " lacks \"" << key << "\"";
    }
  }
  EXPECT_EQ(line_count, snapshot.counters.at("probe.attempts"));

  for (const int threads : {2, 8}) {
    const TelemetryOutput parallel = RunInstrumentedStudy(threads, true);
    EXPECT_EQ(parallel.metrics_json, serial.metrics_json)
        << "metrics snapshot diverged at " << threads << " threads";
    EXPECT_EQ(parallel.trace, serial.trace)
        << "probe trace diverged at " << threads << " threads";
    EXPECT_EQ(parallel.observations, serial.observations);
  }
}

// The two-plane isolation contract: with the wall-clock profiling plane
// recording (per-shard tracks at 8 threads), every deterministic artifact
// is still byte-identical to the profiling-off run. Runs under TSan in
// scripts/check.sh, which drives the span path's thread-local buffers and
// registry from a real sharded scan.
TEST(TelemetryDeterminismTest, ProfilingNeverChangesArtifacts) {
  obs::SetProfilingEnabled(false);
  const TelemetryOutput base = RunInstrumentedStudy(1, true);
  ASSERT_FALSE(base.trace.empty());
  struct ProfilingOff {
    ~ProfilingOff() { obs::SetProfilingEnabled(false); }
  } restore;
  obs::SetProfilingEnabled(true);
  for (const int threads : {1, 8}) {
    obs::ProfReset();
    const TelemetryOutput profiled = RunInstrumentedStudy(threads, true);
    EXPECT_EQ(profiled.metrics_json, base.metrics_json)
        << "profiling changed the metrics at " << threads << " threads";
    EXPECT_EQ(profiled.trace, base.trace)
        << "profiling changed the trace at " << threads << " threads";
    EXPECT_EQ(profiled.observations, base.observations)
        << "profiling changed the store at " << threads << " threads";
    const obs::ProfSnapshot snap = obs::ProfSnapshotNow();
    EXPECT_FALSE(snap.spans.empty()) << threads << " threads";
    EXPECT_GT(snap.root_total_ns, 0u) << threads << " threads";
  }
}

TEST(TelemetryDeterminismTest, TelemetryNeverChangesScanOutput) {
  const TelemetryOutput with = RunInstrumentedStudy(4, true);
  const TelemetryOutput without = RunInstrumentedStudy(4, false);
  EXPECT_EQ(with.observations, without.observations);
  EXPECT_TRUE(without.trace.empty());
  // A detached registry stays empty (renders the empty snapshot).
  obs::MetricsSnapshot snapshot;
  ASSERT_TRUE(obs::ParseSnapshot(without.metrics_json, snapshot));
  EXPECT_TRUE(snapshot.counters.empty());
}

TEST(TelemetryDeterminismTest, EngineCountersReconcileWithScanResults) {
  simnet::Internet net(simnet::PaperPopulationSpec(400), 11);
  obs::MetricsRegistry metrics;
  ScanEngineOptions options;
  options.threads = 3;
  options.metrics = &metrics;
  const DailyScanResult result =
      RunShardedDailyScans(net, /*days=*/2, /*seed=*/5, options);

  std::size_t scheduled = 0;
  for (const DayLoss& day : result.loss) scheduled += day.scheduled;
  EXPECT_EQ(metrics.GetCounter("scan.days").Value(), 2u);
  EXPECT_EQ(metrics.GetCounter("scan.probes.scheduled").Value(), scheduled);
  // Every scheduled probe ran exactly once in the main pass; the requeue
  // pass adds probe.probes beyond scheduled only when faults are injected.
  EXPECT_GE(metrics.GetCounter("probe.probes").Value(), scheduled);
  // Each probe lands in exactly one failure class.
  std::uint64_t by_class = 0;
  for (int c = 0; c < kProbeFailureClasses; ++c) {
    by_class += metrics
                    .GetCounter("probe.failure." +
                                std::string(ToString(
                                    static_cast<ProbeFailure>(c))))
                    .Value();
  }
  EXPECT_EQ(by_class, metrics.GetCounter("probe.probes").Value());
  // The fleet sweep ran: terminators exist and every terminator's stores
  // were visited (deduplicated, so counts are <= the terminator count).
  EXPECT_GT(metrics.GetGauge("fleet.terminators").Value(), 0);
  EXPECT_GT(metrics.GetCounter("fleet.stek.managers").Value(), 0u);
  EXPECT_LE(metrics.GetCounter("fleet.stek.managers").Value(),
            static_cast<std::uint64_t>(
                metrics.GetGauge("fleet.terminators").Value()));
}

TEST(TelemetryDeterminismTest, ProberRecordsAttemptLogAndResumeCounters) {
  simnet::Internet net(simnet::PaperPopulationSpec(300), 7);
  obs::MetricsRegistry metrics;
  Prober prober(net, 1);
  prober.SetMetrics(&metrics);

  // Attempt logging is off by default: the hot path stays allocation-free.
  ProbeOptions options;
  options.want_full_result = true;
  ProbeResult result = prober.Probe(0, kHour, options);
  EXPECT_TRUE(result.attempt_log.empty());

  prober.SetAttemptLogging(true);
  result = prober.Probe(0, kHour, options);
  ASSERT_FALSE(result.attempt_log.empty());
  EXPECT_EQ(result.attempt_log.front().start, kHour);
  EXPECT_EQ(result.attempt_log.back().backoff, 0)
      << "the final attempt has no next-attempt backoff";
  EXPECT_EQ(result.attempt_log.size(), result.observation.attempts);

  EXPECT_EQ(metrics.GetCounter("probe.probes").Value(), 2u);
  EXPECT_GE(metrics.GetCounter("probe.attempts").Value(), 2u);

  if (result.session.valid) {
    prober.TryResume(result.session, 0, kHour + kMinute);
    EXPECT_GE(metrics.GetCounter("resume.attempts").Value(), 1u);
    EXPECT_EQ(metrics.GetCounter("resume.accepted").Value() +
                  metrics.GetCounter("resume.rejected").Value(),
              1u);
  }
}

TEST(TelemetryDeterminismTest, CorruptStoreLinesAreCounted) {
  simnet::Internet net(simnet::PaperPopulationSpec(300), 7);
  std::ostringstream stream;
  ObservationWriter sink(stream);
  ScanEngineOptions options;
  options.store = &sink;
  RunShardedDailyScans(net, 1, 13, options);

  std::string data = stream.str();
  ASSERT_FALSE(data.empty());
  data += "not|a|valid|line\n";
  data += "garbage\n";

  std::size_t corrupt = 0;
  const auto parsed = ParseObservations(data, &corrupt);
  EXPECT_EQ(corrupt, 2u);
  EXPECT_FALSE(parsed.empty());
  // The clean prefix still parses to exactly the records written.
  std::size_t clean = 0;
  EXPECT_EQ(ParseObservations(stream.str(), &clean).size(), parsed.size());
  EXPECT_EQ(clean, 0u);
}

}  // namespace
}  // namespace tlsharm::scanner
