// scanstats: the scan pipeline's telemetry, reported.
//
// Runs a deterministic fault-injected daily-scan study with the full
// observability stack attached — metrics registry, JSONL probe trace,
// observation store — then reports what the telemetry shows: per-day probe
// loss, the failure taxonomy, retry effort, resumption and KEX-reuse rates,
// the STEK epoch timeline, and store-corruption counts.
//
// Environment knobs:
//   TLSHARM_THREADS  worker shards (any value: output is byte-identical)
//   TLSHARM_METRICS  path to also write the metrics snapshot JSON to
//   TLSHARM_TRACE    path to also write the JSONL probe trace to
//
// `scanstats --warehouse <dir>` additionally records the observation
// stream into a columnar warehouse at <dir> and cross-checks it against
// the text path: the warehouse's text export must be byte-identical to the
// live store, and the incremental fold must reproduce the engine's
// aggregates. Any drift is a hard failure, so the report's store numbers
// are certified warehouse-backed.
//
// `scanstats --prof` additionally enables the wall-clock performance
// plane (obs/prof.h) for the run and appends its aggregated report — span
// hotspots with p50/p95/p99, shard utilization, attribution — after the
// deterministic telemetry. The profiling plane never changes a byte of the
// normal report.
//
// `scanstats --selftest` instead verifies the observability contract and
// exits non-zero on any violation: metrics snapshot, trace bytes, and store
// bytes must be identical at 1, 2, and 8 threads; the snapshot must
// round-trip through ParseSnapshot/RenderSnapshot byte-for-byte; and every
// trace line must parse as JSON with the expected schema. scripts/check.sh
// runs this as its observability gate.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/prof_report.h"
#include "obs/trace.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"
#include "util/table.h"
#include "warehouse/fold.h"
#include "warehouse/import.h"

using namespace tlsharm;

namespace {

constexpr std::size_t kPopulation = 900;
constexpr int kDays = 4;
constexpr std::uint64_t kWorldSeed = 4242;
constexpr std::uint64_t kScanSeed = 777;

struct RunOutput {
  scanner::DailyScanResult result;
  std::string metrics_json;  // canonical one-line snapshot
  std::string trace;         // JSONL probe trace
  std::string store;         // raw observation lines
  std::size_t store_records = 0;
  std::size_t store_corrupt = 0;
};

// One instrumented study: fresh world, deterministic fault injection,
// retries + requeue, telemetry attached. Everything returned is a pure
// function of the constants above — the thread count must not show. With a
// warehouse dir, the same canonical stream is also recorded columnar.
RunOutput RunInstrumentedScan(int threads,
                              const std::string& warehouse_dir = "") {
  simnet::Internet net(simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  std::ostringstream store_stream;
  std::ostringstream trace_stream;
  scanner::ObservationWriter sink(store_stream);
  obs::JsonlTraceSink trace_sink(trace_stream);
  obs::MetricsRegistry metrics;

  scanner::ScanEngineOptions options;
  options.threads = threads;
  options.robustness.retry.max_attempts = 3;
  options.trace = &trace_sink;
  options.metrics = &metrics;

  scanner::MultiStoreWriter stores;
  stores.Add(&sink);
  std::unique_ptr<warehouse::WarehouseWriter> warehouse_writer;
  if (!warehouse_dir.empty()) {
    std::string error;
    warehouse_writer = warehouse::WarehouseWriter::Create(warehouse_dir,
                                                          &error);
    if (warehouse_writer == nullptr) {
      std::fprintf(stderr, "scanstats: %s\n", error.c_str());
      std::exit(1);
    }
    stores.Add(warehouse_writer.get());
  }
  options.store = &stores;

  RunOutput out;
  out.result = scanner::RunShardedDailyScans(net, kDays, kScanSeed, options);
  if (warehouse_writer != nullptr && !warehouse_writer->ok()) {
    std::fprintf(stderr, "scanstats: warehouse: %s\n",
                 warehouse_writer->error().c_str());
    std::exit(1);
  }
  out.store = store_stream.str();
  out.trace = trace_stream.str();

  // Reload the store we just wrote, surfacing (not skipping) corruption:
  // malformed lines land in the `store.corrupt` counter and the report.
  const auto reloaded =
      scanner::ParseObservations(out.store, &out.store_corrupt);
  out.store_records = reloaded.size();
  metrics.GetCounter("store.records").Add(out.store_records);
  metrics.GetCounter("store.corrupt").Add(out.store_corrupt);

  out.metrics_json = metrics.SnapshotJson();
  return out;
}

std::uint64_t CounterOf(const obs::MetricsSnapshot& snapshot,
                        const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

std::string Rate(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return buf;
}

// Renders a histogram bucket's range label from its inclusive upper bounds.
std::string BucketLabel(const std::vector<std::int64_t>& bounds,
                        std::size_t i) {
  if (i == 0) return "<= " + std::to_string(bounds[0]) + "s";
  if (i == bounds.size()) {
    return "> " + std::to_string(bounds.back()) + "s";
  }
  return std::to_string(bounds[i - 1] + 1) + "-" +
         std::to_string(bounds[i]) + "s";
}

void PrintReport(const RunOutput& run, const obs::MetricsSnapshot& snapshot,
                 int threads) {
  std::printf("== scanstats: telemetry for a %zu-domain, %d-day faulty "
              "study ==\n", kPopulation, kDays);
  std::printf("threads=%d (byte-identical at any TLSHARM_THREADS)\n\n",
              threads);

  std::printf("Per-day probe loss:\n");
  TextTable loss({"Day", "Scheduled", "Recovered", "Lost", "Loss rate"});
  for (std::size_t day = 0; day < run.result.loss.size(); ++day) {
    const auto& d = run.result.loss[day];
    loss.AddRow({std::to_string(day), std::to_string(d.scheduled),
                 std::to_string(d.recovered), std::to_string(d.lost),
                 Rate(d.lost, d.scheduled)});
  }
  std::printf("%s", loss.Render().c_str());

  const std::uint64_t probes = CounterOf(snapshot, "probe.probes");
  std::printf("\nFailure taxonomy (final probe outcomes):\n");
  TextTable taxonomy({"Class", "Probes", "Share"});
  for (int c = 0; c < scanner::kProbeFailureClasses; ++c) {
    const std::string name(
        ToString(static_cast<scanner::ProbeFailure>(c)));
    const std::uint64_t count =
        CounterOf(snapshot, "probe.failure." + name);
    if (count == 0) continue;
    taxonomy.AddRow({name, std::to_string(count), Rate(count, probes)});
  }
  std::printf("%s", taxonomy.Render().c_str());

  const std::uint64_t attempts = CounterOf(snapshot, "probe.attempts");
  const std::uint64_t retries = CounterOf(snapshot, "probe.retries");
  std::printf("\nRetry effort: %llu connection attempts for %llu probes "
              "(%llu retries)\n",
              static_cast<unsigned long long>(attempts),
              static_cast<unsigned long long>(probes),
              static_cast<unsigned long long>(retries));

  const std::uint64_t kex_reused = CounterOf(snapshot, "fleet.kex.reused");
  const std::uint64_t kex_fresh = CounterOf(snapshot, "fleet.kex.fresh");
  const std::uint64_t lookups = CounterOf(snapshot, "fleet.session.lookups");
  const std::uint64_t hits = CounterOf(snapshot, "fleet.session.hits");
  std::printf("\nResumption / crypto-shortcut rates:\n");
  TextTable rates({"Metric", "Value"});
  rates.AddRow({"KEX pairs served reused",
                std::to_string(kex_reused) + " (" +
                    Rate(kex_reused, kex_reused + kex_fresh) + ")"});
  rates.AddRow({"session-cache hit rate",
                std::to_string(hits) + "/" + std::to_string(lookups) + " (" +
                    Rate(hits, lookups) + ")"});
  std::printf("%s", rates.Render().c_str());

  std::printf("\nSTEK epoch timeline (issuing-epoch age at end of study):\n");
  const auto stek = snapshot.histograms.find("fleet.stek.issuing_age");
  if (stek != snapshot.histograms.end()) {
    TextTable ages({"Age bucket", "Managers"});
    for (std::size_t i = 0; i < stek->second.counts.size(); ++i) {
      if (stek->second.counts[i] == 0) continue;
      ages.AddRow({BucketLabel(stek->second.bounds, i),
                   std::to_string(stek->second.counts[i])});
    }
    std::printf("%s", ages.Render().c_str());
  }
  std::printf("  managers=%llu rotations=%llu live_epochs=%llu\n",
              static_cast<unsigned long long>(
                  CounterOf(snapshot, "fleet.stek.managers")),
              static_cast<unsigned long long>(
                  CounterOf(snapshot, "fleet.stek.rotations")),
              static_cast<unsigned long long>(
                  CounterOf(snapshot, "fleet.stek.live_epochs")));

  std::printf("\nObservation store: %zu records reloaded, %zu corrupt "
              "lines skipped\n", run.store_records, run.store_corrupt);
  std::printf("Probe trace: %zu bytes of JSONL (%llu attempt events)\n",
              run.trace.size(),
              static_cast<unsigned long long>(attempts));
}

// Writes `data` to `path`; returns false (with a message) on failure.
bool WriteFileOrComplain(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "scanstats: cannot write %s\n", path.c_str());
    return false;
  }
  out << data;
  return out.good();
}

// Cross-checks the just-recorded warehouse against the live run and prints
// its footprint. Fails (false) on any divergence from the text path.
bool ReportWarehouse(const std::string& dir, const RunOutput& run) {
  std::string error;
  const auto wh = warehouse::Warehouse::Open(dir, &error);
  if (!wh.has_value()) {
    std::fprintf(stderr, "scanstats: %s\n", error.c_str());
    return false;
  }
  std::ostringstream text_out;
  if (!warehouse::WarehouseToText(*wh, text_out, nullptr, &error)) {
    std::fprintf(stderr, "scanstats: warehouse export: %s\n", error.c_str());
    return false;
  }
  if (text_out.str() != run.store) {
    std::fprintf(stderr, "scanstats: warehouse text export differs from the "
                         "live observation store\n");
    return false;
  }
  simnet::Internet net(simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));
  scanner::DailyScanResult folded;
  if (!warehouse::FoldDailyScans(*wh, net, {}, &folded, &error)) {
    std::fprintf(stderr, "scanstats: warehouse fold: %s\n", error.c_str());
    return false;
  }
  if (folded.core_domains != run.result.core_domains ||
      folded.stek_spans.AllSpans() != run.result.stek_spans.AllSpans() ||
      folded.ecdhe_spans.AllSpans() != run.result.ecdhe_spans.AllSpans() ||
      folded.dhe_spans.AllSpans() != run.result.dhe_spans.AllSpans()) {
    std::fprintf(stderr, "scanstats: warehouse fold does not match the "
                         "engine aggregates\n");
    return false;
  }
  std::printf("wrote warehouse to %s: %llu rows in %zu day segments, "
              "%llu bytes (%.1f%% of the text store); export and fold "
              "verified against the live run\n",
              dir.c_str(),
              static_cast<unsigned long long>(wh->TotalRows()),
              wh->ObservationSegments().size(),
              static_cast<unsigned long long>(wh->TotalBytes()),
              100.0 * static_cast<double>(wh->TotalBytes()) /
                  static_cast<double>(run.store.size()));
  return true;
}

// --- selftest ---------------------------------------------------------------

bool CheckTraceSchema(const std::string& trace, std::string& error) {
  static const char* kRequired[] = {"day",     "seq",     "pass",
                                    "kind",    "domain",  "scheduled",
                                    "attempt", "start",   "dur",
                                    "backoff", "failure", "final"};
  std::istringstream in(trace);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    obs::JsonValue value;
    if (!obs::ParseJson(line, value) ||
        value.kind != obs::JsonValue::Kind::kObject) {
      error = "trace line " + std::to_string(line_no) + " is not JSON";
      return false;
    }
    for (const char* key : kRequired) {
      if (value.Find(key) == nullptr) {
        error = "trace line " + std::to_string(line_no) +
                " is missing key \"" + key + "\"";
        return false;
      }
    }
  }
  return true;
}

int SelfTest() {
  std::printf("== scanstats --selftest: observability determinism gate ==\n");
  obs::SetProfilingEnabled(false);
  const RunOutput base = RunInstrumentedScan(1);
  if (base.store.empty() || base.trace.empty()) {
    std::printf("FAIL: instrumented scan produced no output\n");
    return 1;
  }
  for (const int threads : {2, 8}) {
    const RunOutput other = RunInstrumentedScan(threads);
    if (other.metrics_json != base.metrics_json) {
      std::printf("FAIL: metrics snapshot differs at %d threads\n", threads);
      return 1;
    }
    if (other.trace != base.trace) {
      std::printf("FAIL: probe trace differs at %d threads\n", threads);
      return 1;
    }
    if (other.store != base.store) {
      std::printf("FAIL: observation store differs at %d threads\n", threads);
      return 1;
    }
    std::printf("  %d threads: snapshot, trace and store byte-identical\n",
                threads);
  }

  obs::MetricsSnapshot snapshot;
  if (!obs::ParseSnapshot(base.metrics_json, snapshot)) {
    std::printf("FAIL: metrics snapshot does not parse\n");
    return 1;
  }
  if (obs::RenderSnapshot(snapshot) != base.metrics_json) {
    std::printf("FAIL: snapshot does not round-trip byte-for-byte\n");
    return 1;
  }
  std::printf("  snapshot round-trips byte-for-byte (%zu bytes)\n",
              base.metrics_json.size());

  std::string error;
  if (!CheckTraceSchema(base.trace, error)) {
    std::printf("FAIL: %s\n", error.c_str());
    return 1;
  }
  const std::uint64_t attempts = CounterOf(snapshot, "probe.attempts");
  std::size_t lines = 0;
  for (const char c : base.trace) lines += c == '\n';
  if (lines != attempts) {
    std::printf("FAIL: %zu trace lines vs %llu recorded attempts\n", lines,
                static_cast<unsigned long long>(attempts));
    return 1;
  }
  std::printf("  trace schema ok: %zu lines == probe.attempts\n", lines);
  if (CounterOf(snapshot, "store.corrupt") != 0) {
    std::printf("FAIL: store reload reported corrupt lines\n");
    return 1;
  }

  // Two-plane isolation: with the wall-clock performance plane recording,
  // every deterministic artifact must still be byte-identical — at the
  // serial baseline and at 8 threads (where prof adds per-shard tracks).
  obs::SetProfilingEnabled(true);
  for (const int threads : {1, 8}) {
    obs::ProfReset();
    const RunOutput prof_run = RunInstrumentedScan(threads);
    if (prof_run.metrics_json != base.metrics_json ||
        prof_run.trace != base.trace || prof_run.store != base.store) {
      std::printf("FAIL: TLSHARM_PROF changed deterministic output at %d "
                  "threads\n", threads);
      obs::SetProfilingEnabled(false);
      return 1;
    }
    const obs::ProfSnapshot snap = obs::ProfSnapshotNow();
    if (snap.spans.empty() || snap.root_total_ns == 0) {
      std::printf("FAIL: profiling enabled but no spans recorded at %d "
                  "threads\n", threads);
      obs::SetProfilingEnabled(false);
      return 1;
    }
    std::printf("  %d threads + prof: artifacts unchanged, %zu span sites "
                "recorded\n", threads, snap.spans.size());
  }
  obs::SetProfilingEnabled(false);

  std::printf("selftest PASSED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest();
  }

  std::string warehouse_dir;
  bool prof = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warehouse") == 0 && i + 1 < argc) {
      warehouse_dir = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--prof") == 0) prof = true;
  }
  if (prof) {
    obs::SetProfilingEnabled(true);
    obs::ProfReset();
  }

  const int threads = scanner::ScanThreadsFromEnv();
  const RunOutput run = RunInstrumentedScan(threads, warehouse_dir);
  obs::MetricsSnapshot snapshot;
  if (!obs::ParseSnapshot(run.metrics_json, snapshot)) {
    std::fprintf(stderr, "scanstats: metrics snapshot failed to parse\n");
    return 1;
  }
  PrintReport(run, snapshot, threads);

  if (!warehouse_dir.empty() && !ReportWarehouse(warehouse_dir, run)) {
    return 1;
  }

  const std::string metrics_path = obs::MetricsPathFromEnv();
  if (!metrics_path.empty()) {
    if (!WriteFileOrComplain(metrics_path, run.metrics_json + "\n")) return 1;
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  const std::string trace_path = obs::TracePathFromEnv();
  if (!trace_path.empty()) {
    if (!WriteFileOrComplain(trace_path, run.trace)) return 1;
    std::printf("wrote probe trace to %s\n", trace_path.c_str());
  }

  if (prof) {
    std::printf("\n%s", obs::RenderProfReport(obs::ProfSnapshotNow()).c_str());
    const std::string prof_trace_path = obs::ProfTracePathFromEnv();
    if (!prof_trace_path.empty()) {
      std::string error;
      if (!obs::ProfWriteChromeTrace(prof_trace_path, &error)) {
        std::fprintf(stderr, "scanstats: %s\n", error.c_str());
        return 1;
      }
      std::printf("wrote Chrome trace to %s (load in Perfetto)\n",
                  prof_trace_path.c_str());
    }
  }
  return 0;
}
