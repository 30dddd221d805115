// tlsharm: the command-line front end over scans, warehouses, capture
// tapes and profiles. One binary, five subcommands:
//
//   tlsharm stats [--warehouse <dir>] [--prof]
//       Runs a deterministic fault-injected daily-scan study (900 domains,
//       4 days) with the full observability stack attached — metrics
//       registry, JSONL probe trace, observation store — and reports what
//       the telemetry shows: per-day probe loss, the failure taxonomy,
//       retry effort, resumption and KEX-reuse rates, the STEK epoch
//       timeline, and store-corruption counts. `--warehouse <dir>` also
//       records the study into a columnar warehouse and cross-checks it
//       against the text path (export bytes and fold aggregates); `--prof`
//       enables the wall-clock performance plane (obs/prof.h) and appends
//       its report. Neither changes a byte of the telemetry report.
//       Env: TLSHARM_THREADS (output is identical at any value),
//       TLSHARM_METRICS / TLSHARM_TRACE (also write the snapshot / trace
//       there), TLSHARM_PROF_TRACE (with --prof: Chrome trace path).
//
//   tlsharm query summary <dir>
//   tlsharm query count <dir> [filters]
//   tlsharm query group-by <key> <dir> [filters]
//   tlsharm query spans <dir>
//       Queries a columnar observation warehouse. Keys: day | failure |
//       suite | domain | kex_group. Filters (conjunctive): --day-min N
//       --day-max N --domain N --failure <class> --has-secret
//       stek|kex|session_id. Group-by rows are sorted by key, shares and
//       CDFs come from exact counts, and day-range filters prune whole
//       segments before any disk read. `spans` prints the STEK/(EC)DHE
//       secret-span CDFs through the incremental fold.
//
//   tlsharm import to-warehouse <store.txt|-> <dir>
//   tlsharm import to-text <dir> [out.txt|-]
//   tlsharm import verify <dir>
//       Moves observation studies between the columnar warehouse (what
//       campaigns record) and the text format, its export view. `verify`
//       decodes every segment against the manifest and reports its shape.
//
//   tlsharm harm curve <dir> [world_seed]
//       Folds the capture tape at <dir> (or <dir>/capture for a campaign
//       directory) through the adversary replay engine and prints the
//       canonical harm-curve JSONL: one line per (profile, vector,
//       compromise time T) with decryptable connections/bytes/domains and
//       the survivor taxonomy.
//   tlsharm harm explain <domain> <day> <dir> [world_seed]
//       Evidence view for one domain-day: every archived connection of
//       that day replayed against ground-truth TakeSnapshot secrets (STEK
//       and DH at the day's main-pass instant) plus the session-cache
//       liveness window, with the per-vector verdict for each record.
//       Both rebuild the recording world from TLSHARM_POPULATION and
//       world_seed (default 20160302) and refuse a tape any of whose
//       records that world could not have produced.
//
//   tlsharm prof <trace.json>
//       Loads a Chrome trace written by the performance plane
//       (TLSHARM_PROF_TRACE / ProfWriteChromeTrace) and prints the
//       aggregated report — per-span totals, self-time hotspots,
//       p50/p95/p99 — after re-nesting each thread's intervals.
//   tlsharm prof --scan | --campaign <dir>
//       Profiles a small live scan, or a crash-safe campaign into <dir>
//       (whose report adds the commit-barrier spans). TLSHARM_POPULATION /
//       TLSHARM_DAYS / TLSHARM_THREADS size the run (a TLSHARM_DAYS that is
//       not a whole number in 1..63 exits 2); TLSHARM_PROF_TRACE also
//       writes its Chrome trace. Profiling never changes an artifact.
//
// Every numeric argument (day, seed, domain, filter value) must be a
// non-negative base-10 integer, the whole argument; anything else prints
// the usage and exits 2, as does an argument a subcommand does not know.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/compromise.h"
#include "adversary/replay.h"
#include "campaign/campaign.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/prof_report.h"
#include "obs/trace.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"
#include "study_days.h"
#include "util/table.h"
#include "warehouse/capture.h"
#include "warehouse/fold.h"
#include "warehouse/import.h"
#include "warehouse/query.h"

using namespace tlsharm;

namespace {

// --- shared helpers ----------------------------------------------------------

int Usage() {
  std::fprintf(
      stderr,
      "usage: tlsharm stats [--warehouse <dir>] [--prof]\n"
      "       tlsharm query summary <dir>\n"
      "       tlsharm query count <dir> [filters]\n"
      "       tlsharm query group-by <key> <dir> [filters]\n"
      "       tlsharm query spans <dir>\n"
      "       tlsharm import to-warehouse <store.txt|-> <dir>\n"
      "       tlsharm import to-text <dir> [out.txt|-]\n"
      "       tlsharm import verify <dir>\n"
      "       tlsharm harm curve <dir> [world_seed]\n"
      "       tlsharm harm explain <domain> <day> <dir> [world_seed]\n"
      "       tlsharm prof <trace.json> | --scan | --campaign <dir>\n"
      "query keys: day | failure | suite | domain | kex_group\n"
      "query filters: --day-min N --day-max N --domain N --failure <class>\n"
      "               --has-secret stek|kex|session_id\n"
      "harm: <dir> is a capture tape or a campaign directory recorded with\n"
      "  capture taping on; TLSHARM_POPULATION and world_seed (default\n"
      "  20160302) must match the recording run.\n"
      "prof: TLSHARM_POPULATION, TLSHARM_DAYS and TLSHARM_THREADS size the\n"
      "  run modes; TLSHARM_PROF_TRACE=<path> writes their Chrome trace.\n"
      "numbers (days, seeds, domains) are non-negative base-10 integers.\n");
  return 2;
}

// Prints "tlsharm: <message>" on stderr; returns the failure exit status.
int Fail(const std::string& message) {
  std::fprintf(stderr, "tlsharm: %s\n", message.c_str());
  return 1;
}

// The one rule for numeric arguments: the whole argument is a base-10
// integer that fits in T and is not negative. No sign, no whitespace, no
// trailing junk.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE ||
      value > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

std::optional<warehouse::Warehouse> OpenWarehouse(const std::string& dir) {
  std::string error;
  auto wh = warehouse::Warehouse::Open(dir, &error);
  if (!wh.has_value()) Fail(error);
  return wh;
}

// Accepts a tape directory or a campaign directory (which keeps its tape
// under capture/).
std::optional<warehouse::CaptureTape> OpenTape(const std::string& dir_arg) {
  namespace fs = std::filesystem;
  std::string dir = dir_arg;
  if (fs::exists(fs::path(dir_arg) / "capture" / "MANIFEST")) {
    dir = (fs::path(dir_arg) / "capture").string();
  }
  std::string error;
  auto tape = warehouse::CaptureTape::Open(dir, &error);
  if (!tape.has_value()) Fail(error);
  return tape;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (out) out << data;
  if (out.good()) return true;
  Fail("cannot write " + path);
  return false;
}

// --- stats -------------------------------------------------------------------

constexpr std::size_t kStudyPopulation = 900;
constexpr int kStudyDays = 4;
constexpr std::uint64_t kStudyWorldSeed = 4242;
constexpr std::uint64_t kStudyScanSeed = 777;

struct StudyOutput {
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
StudyOutput RunInstrumentedStudy(int threads,
                                 const std::string& warehouse_dir) {
  simnet::Internet net(simnet::PaperPopulationSpec(kStudyPopulation),
                       kStudyWorldSeed);
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
    if (warehouse_writer == nullptr) std::exit(Fail(error));
    stores.Add(warehouse_writer.get());
  }
  options.store = &stores;

  StudyOutput out;
  out.result = scanner::RunShardedDailyScans(net, kStudyDays, kStudyScanSeed,
                                             options);
  if (warehouse_writer != nullptr && !warehouse_writer->ok()) {
    std::exit(Fail("warehouse: " + warehouse_writer->error()));
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

void PrintStudyReport(const StudyOutput& run,
                      const obs::MetricsSnapshot& snapshot, int threads) {
  std::printf("== tlsharm stats: telemetry for a %zu-domain, %d-day faulty "
              "study ==\n", kStudyPopulation, kStudyDays);
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

// Cross-checks the just-recorded warehouse against the live run and prints
// its footprint. Fails (false) on any divergence from the text path.
bool ReportWarehouse(const std::string& dir, const StudyOutput& run) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return false;
  std::string error;
  std::ostringstream text_out;
  if (!warehouse::WarehouseToText(*wh, text_out, nullptr, &error)) {
    Fail("warehouse export: " + error);
    return false;
  }
  if (text_out.str() != run.store) {
    Fail("warehouse text export differs from the live observation store");
    return false;
  }
  simnet::Internet net(simnet::PaperPopulationSpec(kStudyPopulation),
                       kStudyWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));
  scanner::DailyScanResult folded;
  if (!warehouse::FoldDailyScans(*wh, net, {}, &folded, &error)) {
    Fail("warehouse fold: " + error);
    return false;
  }
  if (folded.core_domains != run.result.core_domains ||
      folded.stek_spans.AllSpans() != run.result.stek_spans.AllSpans() ||
      folded.ecdhe_spans.AllSpans() != run.result.ecdhe_spans.AllSpans() ||
      folded.dhe_spans.AllSpans() != run.result.dhe_spans.AllSpans()) {
    Fail("warehouse fold does not match the engine aggregates");
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

int StatsMain(int argc, char** argv) {
  std::string warehouse_dir;
  bool prof = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warehouse") == 0 && i + 1 < argc) {
      warehouse_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--prof") == 0) {
      prof = true;
    } else {
      return Usage();
    }
  }
  if (prof) {
    obs::SetProfilingEnabled(true);
    obs::ProfReset();
  }

  const int threads = scanner::ScanThreadsFromEnv();
  const StudyOutput run = RunInstrumentedStudy(threads, warehouse_dir);
  obs::MetricsSnapshot snapshot;
  if (!obs::ParseSnapshot(run.metrics_json, snapshot)) {
    return Fail("metrics snapshot failed to parse");
  }
  PrintStudyReport(run, snapshot, threads);

  if (!warehouse_dir.empty() && !ReportWarehouse(warehouse_dir, run)) {
    return 1;
  }

  const std::string metrics_path = obs::MetricsPathFromEnv();
  if (!metrics_path.empty()) {
    if (!WriteFile(metrics_path, run.metrics_json + "\n")) return 1;
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  const std::string trace_path = obs::TracePathFromEnv();
  if (!trace_path.empty()) {
    if (!WriteFile(trace_path, run.trace)) return 1;
    std::printf("wrote probe trace to %s\n", trace_path.c_str());
  }

  if (prof) {
    std::printf("\n%s", obs::RenderProfReport(obs::ProfSnapshotNow()).c_str());
    const std::string prof_trace_path = obs::ProfTracePathFromEnv();
    if (!prof_trace_path.empty()) {
      std::string error;
      if (!obs::ProfWriteChromeTrace(prof_trace_path, &error)) {
        return Fail(error);
      }
      std::printf("wrote Chrome trace to %s (load in Perfetto)\n",
                  prof_trace_path.c_str());
    }
  }
  return 0;
}

// --- query -------------------------------------------------------------------

bool ParseFailureClass(const std::string& name,
                       scanner::ProbeFailure* failure) {
  for (int c = 0; c < scanner::kProbeFailureClasses; ++c) {
    const auto candidate = static_cast<scanner::ProbeFailure>(c);
    if (name == ToString(candidate)) {
      *failure = candidate;
      return true;
    }
  }
  return false;
}

// Parses trailing --flag value pairs into `filter`; false on a bad flag.
bool ParseFilters(int argc, char** argv, int first,
                  warehouse::ObsFilter* filter) {
  for (int i = first; i < argc; i += 2) {
    if (i + 1 >= argc) {
      Fail(std::string(argv[i]) + " needs a value");
      return false;
    }
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    int day = 0;
    scanner::DomainIndex domain = 0;
    if (flag == "--day-min" && ParseNumber(argv[i + 1], &day)) {
      filter->day_min = day;
    } else if (flag == "--day-max" && ParseNumber(argv[i + 1], &day)) {
      filter->day_max = day;
    } else if (flag == "--domain" && ParseNumber(argv[i + 1], &domain)) {
      filter->domain = domain;
    } else if (flag == "--failure") {
      scanner::ProbeFailure failure;
      if (!ParseFailureClass(value, &failure)) {
        Fail("unknown failure class \"" + value + "\"");
        return false;
      }
      filter->failure = failure;
    } else if (flag == "--has-secret") {
      const auto kind = warehouse::ParseSecretKind(value);
      if (!kind.has_value()) {
        Fail("unknown secret kind \"" + value + "\"");
        return false;
      }
      filter->has_secret = *kind;
    } else {
      Fail("bad filter \"" + flag + " " + value + "\"");
      return false;
    }
  }
  return true;
}

int Summary(const std::string& dir) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return 1;
  std::printf("warehouse %s\n", dir.c_str());
  std::printf("  days: %d (%zu segments)\n", wh->DayCount(),
              wh->ObservationSegments().size());
  std::printf("  observations: %llu\n",
              static_cast<unsigned long long>(wh->TotalRows()));
  std::printf("  bytes: %llu\n",
              static_cast<unsigned long long>(wh->TotalBytes()));
  TextTable days({"Day", "Rows", "Bytes", "File"});
  for (const auto& info : wh->ObservationSegments()) {
    days.AddRow({std::to_string(info.day), std::to_string(info.rows),
                 std::to_string(info.bytes), info.file});
  }
  std::printf("%s", days.Render().c_str());
  if (!wh->Experiments().empty()) {
    TextTable experiments({"Experiment", "Rows", "Bytes", "File"});
    for (const auto& info : wh->Experiments()) {
      experiments.AddRow({info.kind, std::to_string(info.rows),
                          std::to_string(info.bytes), info.file});
    }
    std::printf("%s", experiments.Render().c_str());
  }
  return 0;
}

int Count(const std::string& dir, const warehouse::ObsFilter& filter) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return 1;
  std::uint64_t count = 0;
  std::string error;
  if (!warehouse::CountObservations(*wh, filter, &count, &error)) {
    return Fail(error);
  }
  std::printf("%llu\n", static_cast<unsigned long long>(count));
  return 0;
}

// Renders a group key symbolically where the raw number would be opaque.
std::string RenderKey(warehouse::GroupKey key, std::uint64_t value) {
  if (key == warehouse::GroupKey::kFailure &&
      value < scanner::kProbeFailureClasses) {
    return std::string(
        ToString(static_cast<scanner::ProbeFailure>(value)));
  }
  if (key == warehouse::GroupKey::kSuite) {
    if (tls::IsKnownCipherSuite(static_cast<std::uint16_t>(value))) {
      return std::string(
          tls::ToString(static_cast<tls::CipherSuite>(value)));
    }
    if (value == 0) return "none";
  }
  return std::to_string(value);
}

int GroupBy(warehouse::GroupKey key, const std::string& dir,
            const warehouse::ObsFilter& filter) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return 1;
  std::vector<warehouse::GroupCount> groups;
  std::string error;
  if (!warehouse::GroupCountObservations(*wh, filter, key, &groups,
                                         &error)) {
    return Fail(error);
  }
  std::uint64_t total = 0;
  for (const auto& group : groups) total += group.count;
  TextTable table({std::string(ToString(key)), "Count", "Share", "CDF"});
  std::uint64_t running = 0;
  for (const auto& group : groups) {
    running += group.count;
    char share[32], cdf[32];
    std::snprintf(share, sizeof(share), "%.2f%%",
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(group.count) /
                                   static_cast<double>(total));
    std::snprintf(cdf, sizeof(cdf), "%.2f%%",
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(running) /
                                   static_cast<double>(total));
    table.AddRow({RenderKey(key, group.key), std::to_string(group.count),
                  share, cdf});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("total %llu\n", static_cast<unsigned long long>(total));
  return 0;
}

// Span CDF of one tracker: how many domains kept a secret <= N days.
void PrintSpanCdf(const char* label, const analysis::SpanTracker& tracker,
                  int day_count) {
  const auto spans = tracker.AllSpans();
  std::printf("%s: %zu domains with spans\n", label, spans.size());
  if (spans.empty()) return;
  std::vector<std::uint64_t> by_days(
      static_cast<std::size_t>(day_count) + 1, 0);
  for (const auto& [domain, days] : spans) {
    if (days >= 0 && days <= day_count) {
      ++by_days[static_cast<std::size_t>(days)];
    }
  }
  TextTable table({"Span (days)", "Domains", "CDF"});
  std::uint64_t running = 0;
  for (int days = 0; days <= day_count; ++days) {
    const std::uint64_t count = by_days[static_cast<std::size_t>(days)];
    if (count == 0) continue;
    running += count;
    char cdf[32];
    std::snprintf(cdf, sizeof(cdf), "%.2f%%",
                  100.0 * static_cast<double>(running) /
                      static_cast<double>(spans.size()));
    table.AddRow({std::to_string(days), std::to_string(count), cdf});
  }
  std::printf("%s", table.Render().c_str());
}

int Spans(const std::string& dir) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return 1;
  warehouse::ScanFold fold;
  std::string error;
  for (const auto& info : wh->ObservationSegments()) {
    if (!wh->ForEachObservation(
            info.day, info.day,
            [&](const scanner::StoredObservation& stored) {
              fold.Fold(stored.day, stored.observation);
            },
            &error)) {
      return Fail(error);
    }
    fold.CompleteDay(info.day);
  }
  const int days = wh->DayCount();
  PrintSpanCdf("stek", fold.StekSpans(), days);
  PrintSpanCdf("ecdhe", fold.EcdheSpans(), days);
  PrintSpanCdf("dhe", fold.DheSpans(), days);
  return 0;
}

int QueryMain(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string mode = argv[1];
  warehouse::ObsFilter filter;
  if (mode == "summary" && argc == 3) return Summary(argv[2]);
  if (mode == "count") {
    if (!ParseFilters(argc, argv, 3, &filter)) return Usage();
    return Count(argv[2], filter);
  }
  if (mode == "group-by" && argc >= 4) {
    const auto key = warehouse::ParseGroupKey(argv[2]);
    if (!key.has_value()) {
      Fail(std::string("unknown group key \"") + argv[2] + "\"");
      return Usage();
    }
    if (!ParseFilters(argc, argv, 4, &filter)) return Usage();
    return GroupBy(*key, argv[3], filter);
  }
  if (mode == "spans" && argc == 3) return Spans(argv[2]);
  return Usage();
}

// --- import ------------------------------------------------------------------

int ToWarehouse(const std::string& source, const std::string& dir) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (source != "-") {
    file.open(source);
    if (!file) return Fail("cannot open " + source);
    in = &file;
  }
  warehouse::ImportStats stats;
  std::string error;
  if (!warehouse::TextToWarehouse(*in, dir, &stats, &error)) {
    return Fail(error);
  }
  std::printf("imported %llu observations over %llu days into %s "
              "(%llu warehouse bytes, %llu corrupt lines skipped)\n",
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.days), dir.c_str(),
              static_cast<unsigned long long>(stats.warehouse_bytes),
              static_cast<unsigned long long>(stats.corrupt_lines));
  return 0;
}

int ToText(const std::string& dir, const std::string& target) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return 1;
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (target != "-") {
    file.open(target, std::ios::binary | std::ios::trunc);
    if (!file) return Fail("cannot write " + target);
    out = &file;
  }
  warehouse::ImportStats stats;
  std::string error;
  if (!warehouse::WarehouseToText(*wh, *out, &stats, &error)) {
    return Fail(error);
  }
  if (target != "-") {
    std::printf("exported %llu observations over %llu days to %s\n",
                static_cast<unsigned long long>(stats.rows),
                static_cast<unsigned long long>(stats.days), target.c_str());
  }
  return 0;
}

int Verify(const std::string& dir) {
  const auto wh = OpenWarehouse(dir);
  if (!wh.has_value()) return 1;
  std::string error;
  std::uint64_t rows = 0;
  if (!wh->ForEachObservation(
          0, 0x7fffffff,
          [&](const scanner::StoredObservation&) { ++rows; }, &error)) {
    return Fail("verify FAILED: " + error);
  }
  for (const auto& experiment : wh->Experiments()) {
    scanner::ResumptionLifetimeResult result;
    if (!wh->ReadExperiment(experiment.kind, &result, &error)) {
      return Fail("verify FAILED: " + error);
    }
  }
  std::printf("verify OK: %llu observations across %zu day segments "
              "(%d days), %zu experiment tables, %llu bytes\n",
              static_cast<unsigned long long>(rows),
              wh->ObservationSegments().size(), wh->DayCount(),
              wh->Experiments().size(),
              static_cast<unsigned long long>(wh->TotalBytes()));
  return 0;
}

int ImportMain(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "to-warehouse" && argc == 4) return ToWarehouse(argv[2], argv[3]);
  if (mode == "to-text" && (argc == 3 || argc == 4)) {
    return ToText(argv[2], argc == 4 ? argv[3] : "-");
  }
  if (mode == "verify" && argc == 3) return Verify(argv[2]);
  return Usage();
}

// --- harm --------------------------------------------------------------------

constexpr std::uint64_t kDefaultToolSeed = 20160302;  // bench/common.h

// Streams the tape's records for days [day_min, day_max] into `visit`,
// refusing the tape unless `net` could have recorded every one of them:
// the domain exists and serves HTTPS, and the endpoint is the one the
// prober connects to at the capture time (the prober records exactly
// EndpointFor). A tape from a world with another TLSHARM_POPULATION or
// seed fails here instead of folding into curves for the wrong fleet.
// Records after the first mismatch are not visited.
bool ReadTapeOnWorld(
    const warehouse::CaptureTape& tape, const simnet::Internet& net,
    int day_min, int day_max,
    const std::function<void(int day, const attack::CaptureRecord&)>& visit,
    std::string* error) {
  std::string mismatch;
  if (!tape.ForEachCapture(
          day_min, day_max,
          [&](int day, const attack::CaptureRecord& rec) {
            if (!mismatch.empty()) return;
            const auto domain = static_cast<simnet::DomainId>(rec.domain);
            if (rec.domain >= net.DomainCount() ||
                net.DomainEndpointCount(domain) == 0 ||
                rec.endpoint != net.EndpointFor(domain, rec.time)) {
              mismatch = "day " + std::to_string(day) + ", domain " +
                         std::to_string(rec.domain) + ", endpoint " +
                         std::to_string(rec.endpoint);
              return;
            }
            visit(day, rec);
          },
          error)) {
    return false;
  }
  if (!mismatch.empty()) {
    *error = "tape record (" + mismatch + ") was not recorded on this "
             "world — TLSHARM_POPULATION and the world seed must match the "
             "recording run";
    return false;
  }
  return true;
}

int RunCurve(const std::string& dir_arg, std::uint64_t world_seed) {
  const auto tape = OpenTape(dir_arg);
  if (!tape.has_value()) return 1;
  simnet::Internet net(
      simnet::PaperPopulationSpec(simnet::DefaultPopulationSize()),
      world_seed);
  adversary::HarmEngine engine(net);
  std::string error;
  if (!ReadTapeOnWorld(*tape, net, 0, std::numeric_limits<int>::max() / 2,
                       [&engine](int day, const attack::CaptureRecord& rec) {
                         engine.Ingest(day, rec);
                       },
                       &error)) {
    return Fail(error);
  }
  engine.Seal();
  std::fprintf(stderr,
               "tlsharm harm: %llu records, %zu candidate times, %zu "
               "profiles\n",
               static_cast<unsigned long long>(engine.RowCount()),
               engine.CandidateTimes().size(), engine.Profiles().size());
  const std::string jsonl =
      adversary::RenderHarmCurvesJsonl(engine.Sweep());
  std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
  return 0;
}

// The session-cache liveness window of a record, recomputed from world
// metadata alone (lifetime cut short by the first restart after capture).
// Returns false when a dump can never contain the secret.
bool CacheWindow(simnet::Internet& net, const attack::CaptureRecord& rec,
                 SimTime* end) {
  if (!rec.valid || rec.session_id.empty()) return false;
  const server::ServerConfig& config =
      net.TerminatorConfigOf(static_cast<simnet::TerminatorId>(rec.endpoint));
  if (!config.session_cache.enabled ||
      config.session_cache.issue_id_without_cache) {
    return false;
  }
  SimTime out = rec.time + config.session_cache.lifetime;
  const simnet::Internet::RestartSchedule restarts =
      net.RestartScheduleOf(static_cast<simnet::TerminatorId>(rec.endpoint));
  if (restarts.every > 0) {
    SimTime next = restarts.first;
    if (next <= rec.time) {
      next = restarts.first +
             ((rec.time - restarts.first) / restarts.every + 1) *
                 restarts.every;
    }
    out = std::min(out, next);
  }
  *end = out;
  return true;
}

const char* VerdictOf(const adversary::ReplayOutcome& outcome) {
  return outcome.ok ? "DECRYPTABLE" : attack::ToString(outcome.failure);
}

int RunExplain(const std::string& domain_name, int day,
               const std::string& dir_arg, std::uint64_t world_seed) {
  const auto tape = OpenTape(dir_arg);
  if (!tape.has_value()) return 1;
  simnet::Internet net(
      simnet::PaperPopulationSpec(simnet::DefaultPopulationSize()),
      world_seed);
  const std::optional<simnet::DomainId> id = net.FindDomain(domain_name);
  if (!id.has_value()) return Fail("unknown domain " + domain_name);
  std::vector<attack::CaptureRecord> records;
  std::string error;
  if (!ReadTapeOnWorld(*tape, net, day, day,
                       [&](int, const attack::CaptureRecord& rec) {
                         if (rec.domain == *id) records.push_back(rec);
                       },
                       &error)) {
    return Fail(error);
  }
  const std::string& profile = net.DomainOperator(*id);
  const SimTime t = scanner::ScanDayStart(day);
  std::printf("== %s day %d (operator %s), compromise at t=%lld ==\n",
              domain_name.c_str(), day, profile.c_str(),
              static_cast<long long>(t));
  if (records.empty()) {
    std::printf("no captures of this domain on day %d\n", day);
    return 0;
  }
  // STEK and reused-DH snapshots replay exactly on a fresh world (both are
  // schedule-derived); the session-cache verdict comes from the liveness
  // window, since historical cache contents are not reconstructable.
  const adversary::CompromisedSecrets stek_secrets = adversary::TakeSnapshot(
      net, {adversary::CompromiseVector::kStek, profile, t});
  const adversary::CompromisedSecrets dh_secrets = adversary::TakeSnapshot(
      net, {adversary::CompromiseVector::kDh, profile, t});
  for (const attack::CaptureRecord& rec : records) {
    std::printf("capture t=%lld endpoint=%u valid=%d suite=0x%04x "
                "wire_bytes=%llu\n",
                static_cast<long long>(rec.time), rec.endpoint,
                rec.valid ? 1 : 0, rec.suite,
                static_cast<unsigned long long>(rec.wire_bytes));
    std::printf("  stek: %s\n",
                VerdictOf(adversary::ReplaySnapshot(stek_secrets, rec)));
    std::printf("  dh:   %s\n",
                VerdictOf(adversary::ReplaySnapshot(dh_secrets, rec)));
    SimTime cache_end = 0;
    if (!CacheWindow(net, rec, &cache_end)) {
      std::printf("  cache: %s\n",
                  !rec.valid ? "capture_invalid"
                  : rec.session_id.empty() ? "no_session_id"
                                           : "cache_miss (never cached)");
    } else if (rec.time <= t && t < cache_end) {
      std::printf("  cache: DECRYPTABLE (entry live [%lld, %lld))\n",
                  static_cast<long long>(rec.time),
                  static_cast<long long>(cache_end));
    } else {
      std::printf("  cache: cache_miss (entry live [%lld, %lld))\n",
                  static_cast<long long>(rec.time),
                  static_cast<long long>(cache_end));
    }
  }
  return 0;
}

int HarmMain(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::uint64_t seed = kDefaultToolSeed;
  if (mode == "curve" && argc >= 3) {
    if (argc >= 4 && !ParseNumber(argv[3], &seed)) return Usage();
    return RunCurve(argv[2], seed);
  }
  if (mode == "explain" && argc >= 5) {
    int day = 0;
    if (!ParseNumber(argv[3], &day)) return Usage();
    if (argc >= 6 && !ParseNumber(argv[5], &seed)) return Usage();
    return RunExplain(argv[2], day, argv[4], seed);
  }
  return Usage();
}

// --- prof --------------------------------------------------------------------

constexpr std::uint64_t kProfWorldSeed = 424242;
constexpr std::uint64_t kProfScanSeed = 1;

void PrintProfSnapshot() {
  std::printf("%s", obs::RenderProfReport(obs::ProfSnapshotNow()).c_str());
  const std::string trace_path = obs::ProfTracePathFromEnv();
  if (!trace_path.empty()) {
    std::string error;
    if (obs::ProfWriteChromeTrace(trace_path, &error)) {
      std::printf("wrote Chrome trace to %s (load in Perfetto)\n",
                  trace_path.c_str());
    } else {
      Fail(error);
    }
  }
}

int SummarizeTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::ProfSnapshot snap;
  std::string error;
  if (!obs::LoadChromeTrace(buf.str(), &snap, &error)) {
    return Fail(path + ": " + error);
  }
  std::printf("== tlsharm prof: %s ==\n\n", path.c_str());
  std::printf("%s", obs::RenderProfReport(snap).c_str());
  return 0;
}

int RunProfiledScan() {
  const std::size_t population = simnet::DefaultPopulationSize(2000);
  const int days = examples::StudyDaysFromEnv(2);
  if (days < 0) return 2;
  const int threads = scanner::ScanThreadsFromEnv();
  std::printf("== tlsharm prof --scan: %zu domains, %d day(s), %d "
              "thread(s) ==\n\n", population, days, threads);

  obs::SetProfilingEnabled(true);
  obs::ProfReset();
  simnet::Internet net(simnet::PaperPopulationSpec(population),
                       kProfWorldSeed);
  scanner::ScanEngineOptions engine;
  engine.threads = threads;
  scanner::RunShardedDailyScans(net, days, kProfScanSeed, engine);
  PrintProfSnapshot();
  return 0;
}

int RunProfiledCampaign(const std::string& dir) {
  const std::size_t population = simnet::DefaultPopulationSize(2000);
  const int days = examples::StudyDaysFromEnv(2);
  if (days < 0) return 2;
  const int threads = scanner::ScanThreadsFromEnv();
  std::printf("== tlsharm prof --campaign: %zu domains, %d day(s), %d "
              "thread(s) into %s ==\n\n", population, days, threads,
              dir.c_str());

  obs::SetProfilingEnabled(true);
  obs::ProfReset();
  simnet::Internet net(simnet::PaperPopulationSpec(population),
                       kProfWorldSeed);
  campaign::CampaignSpec spec;
  spec.dir = dir;
  spec.days = days;
  spec.seed = kProfScanSeed;
  spec.threads = threads;
  spec.world_digest = kProfWorldSeed ^
                      (static_cast<std::uint64_t>(population) << 20);
  campaign::CampaignResult result;
  std::string error;
  if (!campaign::RunCampaign(net, spec, &result, &error)) {
    return Fail("campaign failed: " + error);
  }
  PrintProfSnapshot();
  return 0;
}

int ProfMain(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--scan") == 0) return RunProfiledScan();
  if (std::strcmp(argv[1], "--campaign") == 0) {
    if (argc < 3) return Usage();
    return RunProfiledCampaign(argv[2]);
  }
  if (argv[1][0] == '-') return Usage();
  return SummarizeTraceFile(argv[1]);
}

}  // namespace

int main(int argc, char** argv) {
  // Each subcommand sees its own name as argv[0].
  struct Subcommand {
    const char* name;
    int (*run)(int argc, char** argv);
  };
  static constexpr Subcommand kSubcommands[] = {
      {"stats", StatsMain}, {"query", QueryMain}, {"import", ImportMain},
      {"harm", HarmMain},   {"prof", ProfMain},
  };
  if (argc < 2) return Usage();
  for (const Subcommand& sub : kSubcommands) {
    if (std::strcmp(argv[1], sub.name) == 0) return sub.run(argc - 1, argv + 1);
  }
  return Usage();
}
