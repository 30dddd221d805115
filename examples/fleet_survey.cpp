// fleet_survey: the paper's measurement pipeline as a reusable tool.
//
// Builds a small simulated Top-N population, runs a one-week daily scan plus
// the service-group probes, and prints a survey report: secret longevity
// distributions, the largest shared-secret groups, and the domains with the
// worst combined vulnerability windows.
//
// With `--campaign <dir>` the week runs as a crash-safe campaign: every
// scanned day is journaled and committed durably into <dir> (RUNLOG,
// store.txt, warehouse/, state files). If the process dies mid-study,
// `--campaign <dir> --resume` restores the committed days from disk and
// scans only the remainder — the report and the on-disk artifacts come out
// byte-identical to an uninterrupted run.
//
// `--record` (campaign mode) additionally streams every tapped connection
// into the day-partitioned capture tape at <dir>/capture — the archive
// `tlsharm-harm` sweeps into record-now-decrypt-later harm curves.
//
// `--progress` prints an opt-in heartbeat to STDERR after each committed
// day — day counter, probes/sec, wall-clock ETA — for long campaigns.
// stdout and every artifact stay byte-identical with or without it.
//
// TLSHARM_POPULATION / TLSHARM_DAYS resize the survey (defaults 6000 / 7);
// TLSHARM_PROF=1 enables the wall-clock performance plane, and
// TLSHARM_PROF_TRACE=<path> additionally writes a Chrome trace-event JSON
// there at exit (load it in Perfetto; one track per worker shard).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "analysis/vuln.h"
#include "campaign/campaign.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"
#include "util/table.h"

using namespace tlsharm;

namespace {

// Env-sized survey: TLSHARM_POPULATION (>= 100) and TLSHARM_DAYS (1..63)
// override the defaults so a 2-day profiling campaign or a large soak run
// doesn't need a recompile.
int DaysFromEnv(int fallback) {
  if (const char* env = std::getenv("TLSHARM_DAYS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1 && parsed <= 63) return parsed;
  }
  return fallback;
}

// The --progress heartbeat: one stderr line per committed day with a
// wall-clock probes/sec and ETA. Wall time stays on stderr only — nothing
// here may reach stdout or a durable artifact.
class ProgressMeter {
 public:
  ProgressMeter() : start_(std::chrono::steady_clock::now()) {}

  void Report(const scanner::ScanProgress& p) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    const double rate = elapsed > 0.0
                            ? static_cast<double>(p.total_probes) / elapsed
                            : 0.0;
    const int done = p.day + 1;
    const int remaining = p.days - done;
    // Days are near-uniform cost, so a per-day average is a fair ETA.
    const double eta = done > 0 ? elapsed / done * remaining : 0.0;
    std::fprintf(stderr,
                 "progress: day %d/%d  %llu probes  %.0f probes/s  "
                 "eta %.1fs\n",
                 done, p.days,
                 static_cast<unsigned long long>(p.total_probes), rate, eta);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_dir;
  bool resume = false;
  bool progress = false;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--campaign") == 0 && i + 1 < argc) {
      campaign_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress = true;
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--campaign <dir> [--resume] [--record]] "
                   "[--progress]\n"
                   "  --campaign <dir>  journal the scan into <dir> so a\n"
                   "                    crashed study can be continued\n"
                   "  --resume          continue the campaign in <dir> from\n"
                   "                    its last committed day\n"
                   "  --record          also archive every tapped connection\n"
                   "                    into <dir>/capture for tlsharm-harm\n"
                   "  --progress        per-day heartbeat (day, probes/sec,\n"
                   "                    ETA) on stderr; artifacts unchanged\n",
                   argv[0]);
      return 2;
    }
  }
  if (resume && campaign_dir.empty()) {
    std::fprintf(stderr, "--resume requires --campaign <dir>\n");
    return 2;
  }
  if (record && campaign_dir.empty()) {
    std::fprintf(stderr, "--record requires --campaign <dir>\n");
    return 2;
  }

  std::printf("== fleet_survey: one-week HTTPS crypto-shortcut survey ==\n");
  constexpr std::uint64_t kWorldSeed = 424242;
  const std::size_t kPopulation = simnet::DefaultPopulationSize(6000);
  simnet::Internet net(simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
  const int days = DaysFromEnv(7);
  std::printf("population: %zu domains, %zu terminators\n",
              net.DomainCount(), net.TerminatorCount());

  // TLSHARM_FAULTS=<scale> injects deterministic network faults (1 = the
  // default ~5% refusal/reset/timeout mix); the scan below then runs with
  // retries plus an end-of-pass requeue, like the real tool-chain had to.
  // The same scale and seeds replay the identical faulty study.
  const simnet::FaultSpec faults = simnet::FaultSpecFromEnv();
  scanner::ScanEngineOptions engine;
  if (faults.enabled) {
    net.SetFaultSpec(faults);
    engine.robustness.retry.max_attempts = 3;
    std::printf("faults: enabled via TLSHARM_FAULTS (retries=3 + requeue)\n");
  }
  // TLSHARM_THREADS shards the daily scan across workers; any value
  // produces byte-identical results (the engine's determinism contract).
  engine.threads = scanner::ScanThreadsFromEnv();
  if (engine.threads > 1) {
    std::printf("scan engine: %d worker threads via TLSHARM_THREADS\n",
                engine.threads);
  }
  // TLSHARM_METRICS=<path> / TLSHARM_TRACE=<path> attach the observability
  // layer (both off by default; the survey's results and stdout are
  // unchanged either way, and the files are byte-identical at any thread
  // count).
  obs::MetricsRegistry metrics;
  const std::string metrics_path = obs::MetricsPathFromEnv();
  const std::string trace_path = obs::TracePathFromEnv();
  if (!metrics_path.empty()) engine.metrics = &metrics;
  std::ofstream trace_file;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_file.open(trace_path, std::ios::binary);
    if (trace_file) {
      trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_file);
      engine.trace = trace_sink.get();
    } else {
      std::fprintf(stderr, "cannot open TLSHARM_TRACE path %s\n",
                   trace_path.c_str());
    }
  }
  ProgressMeter meter;
  if (progress) {
    engine.progress = [&meter](const scanner::ScanProgress& p) {
      meter.Report(p);
    };
  }
  std::printf("\n");

  // --- longevity scan.
  scanner::DailyScanResult scan;
  if (!campaign_dir.empty()) {
    // Campaign mode: the journaled, crash-safe path. Threads, metrics and
    // robustness carry over; the probe trace does not (it is per-process
    // telemetry, not a committed artifact).
    if (engine.trace != nullptr) {
      std::fprintf(stderr,
                   "note: TLSHARM_TRACE is ignored in --campaign mode\n");
      engine.trace = nullptr;
      trace_sink.reset();
    }
    campaign::CampaignSpec spec;
    spec.dir = campaign_dir;
    spec.days = days;
    spec.seed = 1;
    spec.threads = engine.threads;
    spec.robustness = engine.robustness;
    spec.resume = resume;
    spec.record_captures = record;
    // The same world must back a resumed journal; TLSHARM_FAULTS shapes
    // observations, so it is part of the world's identity.
    spec.world_digest = kWorldSeed ^
                        (static_cast<std::uint64_t>(kPopulation) << 20) ^
                        (faults.enabled ? 0x0fau : 0u);
    spec.metrics = engine.metrics;
    spec.progress = engine.progress;
    campaign::CampaignResult result;
    std::string error;
    if (!campaign::RunCampaign(net, spec, &result, &error)) {
      std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
      return 1;
    }
    scan = std::move(result.scan);
    if (result.recovery.resumed) {
      std::printf("campaign: resumed %s — %d committed day(s) restored, "
                  "%d rescanned",
                  campaign_dir.c_str(), result.recovery.days_replayed,
                  days - result.first_scanned_day);
      if (result.recovery.store_tail_truncated > 0 ||
          result.recovery.stale_segments_removed > 0 ||
          result.recovery.tmp_files_removed > 0) {
        std::printf(" (repaired: %llu store bytes cut, %llu stale "
                    "segment(s), %llu temp file(s))",
                    static_cast<unsigned long long>(
                        result.recovery.store_tail_truncated),
                    static_cast<unsigned long long>(
                        result.recovery.stale_segments_removed),
                    static_cast<unsigned long long>(
                        result.recovery.tmp_files_removed));
      }
      std::printf("\n");
    } else {
      std::printf("campaign: journaled %d day(s) into %s\n", days,
                  campaign_dir.c_str());
    }
    if (record) {
      std::printf("capture tape: %s/capture (sweep it with tlsharm-harm "
                  "curve %s %llu)\n",
                  campaign_dir.c_str(), campaign_dir.c_str(),
                  static_cast<unsigned long long>(kWorldSeed));
    }
  } else {
    scan = scanner::RunShardedDailyScans(net, days, 1, engine);
  }
  if (engine.metrics != nullptr) {
    std::ofstream out(metrics_path, std::ios::binary);
    if (out) {
      out << metrics.SnapshotJson() << '\n';
      std::printf("telemetry: wrote metrics snapshot to %s\n",
                  metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open TLSHARM_METRICS path %s\n",
                   metrics_path.c_str());
    }
  }
  if (engine.trace != nullptr) {
    std::printf("telemetry: wrote %zu probe-trace events to %s\n",
                trace_sink->Emitted(), trace_path.c_str());
  }
  if (faults.enabled) {
    std::size_t scheduled = 0, recovered = 0, lost = 0;
    for (const auto& day : scan.loss) {
      scheduled += day.scheduled;
      recovered += day.recovered;
      lost += day.lost;
    }
    std::printf("probe loss over the week: %zu/%zu probes lost "
                "(%zu recovered by the requeue pass)\n",
                lost, scheduled, recovered);
  }
  std::size_t issuers = 0, week_long = 0;
  for (const auto id : scan.core_domains) {
    const int span = scan.stek_spans.MaxSpanDays(id);
    issuers += span > 0;
    week_long += span >= days;
  }
  std::printf("STEK longevity: %zu/%zu core domains issue tickets; %zu kept"
              " one STEK all week\n", issuers, scan.core_domains.size(),
              week_long);

  // --- groups.
  const auto stek_groups = scanner::MeasureStekGroups(net, 0, 2, 4, 2 * kHour);
  const auto cache_groups = scanner::MeasureSessionCacheGroups(net, 0, 3);
  std::printf("\nLargest shared-secret groups:\n");
  TextTable table({"Kind", "Operator", "# domains"});
  for (std::size_t i = 0; i < 3 && i < stek_groups.groups.size(); ++i) {
    if (stek_groups.groups[i].size() < 2) break;
    table.AddRow({"STEK",
                  net.GetDomain(stek_groups.groups[i].front()).operator_name,
                  FormatCount(stek_groups.groups[i].size())});
  }
  for (std::size_t i = 0; i < 3 && i < cache_groups.groups.size(); ++i) {
    if (cache_groups.groups[i].size() < 2) break;
    table.AddRow({"cache",
                  net.GetDomain(cache_groups.groups[i].front()).operator_name,
                  FormatCount(cache_groups.groups[i].size())});
  }
  std::printf("%s", table.Render().c_str());

  // --- worst offenders.
  struct Offender {
    simnet::DomainId id;
    int stek_span;
    int dh_span;
  };
  std::vector<Offender> offenders;
  for (const auto id : scan.core_domains) {
    const int stek = scan.stek_spans.MaxSpanDays(id);
    const int dh = std::max(scan.dhe_spans.MaxSpanDays(id),
                            scan.ecdhe_spans.MaxSpanDays(id));
    if (stek >= days || dh >= days) offenders.push_back({id, stek, dh});
  }
  std::sort(offenders.begin(), offenders.end(),
            [&net](const Offender& a, const Offender& b) {
              return net.GetDomain(a.id).rank < net.GetDomain(b.id).rank;
            });
  std::printf("\nDomains holding a secret the entire week (by rank):\n");
  TextTable worst({"Rank", "Domain", "STEK span", "DH span"});
  for (std::size_t i = 0; i < 12 && i < offenders.size(); ++i) {
    const auto& info = net.GetDomain(offenders[i].id);
    worst.AddRow({std::to_string(info.rank), info.name,
                  std::to_string(offenders[i].stek_span) + "d",
                  std::to_string(offenders[i].dh_span) + "d"});
  }
  std::printf("%s", worst.Render().c_str());
  std::printf("\nEvery row above is a domain whose recorded traffic stays"
              " decryptable for at least a week\nafter the fact — exactly"
              " the exposure the paper quantifies at Internet scale.\n");

  // Performance plane: if TLSHARM_PROF recorded this run and a trace path
  // is set, write the Chrome trace now. stderr only — the survey's stdout
  // is part of the deterministic surface the check gates diff.
  const std::string prof_trace_path = obs::ProfTracePathFromEnv();
  if (obs::ProfilingEnabled() && !prof_trace_path.empty()) {
    std::string error;
    if (!obs::ProfWriteChromeTrace(prof_trace_path, &error)) {
      std::fprintf(stderr, "fleet_survey: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote Chrome trace to %s (load in Perfetto)\n",
                 prof_trace_path.c_str());
  }
  return 0;
}
