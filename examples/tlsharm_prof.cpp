// tlsharm-prof: summarizer for the wall-clock performance plane.
//
// Three modes:
//
//   tlsharm-prof <trace.json>
//     Load a Chrome trace-event file written by the plane
//     (TLSHARM_PROF_TRACE / ProfWriteChromeTrace) and print the aggregated
//     report — per-span totals, self-time hotspots, p50/p95/p99 — after
//     re-nesting each thread's intervals to recover self-time.
//
//   tlsharm-prof --scan [N_DAYS]
//     Run a small instrumented scan (profiling forced on) and print the
//     live report. TLSHARM_POPULATION / TLSHARM_DAYS / TLSHARM_THREADS
//     size it; TLSHARM_PROF_TRACE=<path> also writes the Chrome trace.
//
//   tlsharm-prof --campaign <dir>
//     Same, but through the crash-safe campaign layer into <dir>, so the
//     report includes the commit-barrier spans (campaign.commit.day,
//     durable.fsync, warehouse.segment.*). scripts/check.sh runs this as
//     its prof smoke gate.
//
// The tool never touches the deterministic plane: whatever it profiles
// writes the same artifact bytes it would have written unprofiled.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.h"
#include "obs/prof.h"
#include "obs/prof_report.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"

using namespace tlsharm;

namespace {

constexpr std::uint64_t kWorldSeed = 424242;
constexpr std::uint64_t kScanSeed = 1;

int DaysFromEnv() {
  if (const char* env = std::getenv("TLSHARM_DAYS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1 && parsed <= 63) return parsed;
  }
  return 2;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> | --scan | --campaign <dir>\n"
               "  <trace.json>      summarize a Chrome trace written via\n"
               "                    TLSHARM_PROF_TRACE\n"
               "  --scan            profile a small live scan\n"
               "  --campaign <dir>  profile a small campaign into <dir>\n"
               "sizing env knobs: TLSHARM_POPULATION, TLSHARM_DAYS,\n"
               "TLSHARM_THREADS; TLSHARM_PROF_TRACE=<path> writes the\n"
               "Chrome trace for the run modes\n",
               argv0);
  return 2;
}

void PrintSnapshot() {
  std::printf("%s", obs::RenderProfReport(obs::ProfSnapshotNow()).c_str());
  const std::string trace_path = obs::ProfTracePathFromEnv();
  if (!trace_path.empty()) {
    std::string error;
    if (obs::ProfWriteChromeTrace(trace_path, &error)) {
      std::printf("wrote Chrome trace to %s (load in Perfetto)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "tlsharm-prof: %s\n", error.c_str());
    }
  }
}

int SummarizeTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "tlsharm-prof: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::ProfSnapshot snap;
  std::string error;
  if (!obs::LoadChromeTrace(buf.str(), &snap, &error)) {
    std::fprintf(stderr, "tlsharm-prof: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("== tlsharm-prof: %s ==\n\n", path.c_str());
  std::printf("%s", obs::RenderProfReport(snap).c_str());
  return 0;
}

int RunScan() {
  const std::size_t population = simnet::DefaultPopulationSize(2000);
  const int days = DaysFromEnv();
  const int threads = scanner::ScanThreadsFromEnv();
  std::printf("== tlsharm-prof --scan: %zu domains, %d day(s), %d "
              "thread(s) ==\n\n", population, days, threads);

  obs::SetProfilingEnabled(true);
  obs::ProfReset();
  simnet::Internet net(simnet::PaperPopulationSpec(population), kWorldSeed);
  scanner::ScanEngineOptions engine;
  engine.threads = threads;
  scanner::RunShardedDailyScans(net, days, kScanSeed, engine);
  PrintSnapshot();
  return 0;
}

int RunCampaignProfile(const std::string& dir) {
  const std::size_t population = simnet::DefaultPopulationSize(2000);
  const int days = DaysFromEnv();
  const int threads = scanner::ScanThreadsFromEnv();
  std::printf("== tlsharm-prof --campaign: %zu domains, %d day(s), %d "
              "thread(s) into %s ==\n\n", population, days, threads,
              dir.c_str());

  obs::SetProfilingEnabled(true);
  obs::ProfReset();
  simnet::Internet net(simnet::PaperPopulationSpec(population), kWorldSeed);
  campaign::CampaignSpec spec;
  spec.dir = dir;
  spec.days = days;
  spec.seed = kScanSeed;
  spec.threads = threads;
  spec.world_digest = kWorldSeed ^
                      (static_cast<std::uint64_t>(population) << 20);
  campaign::CampaignResult result;
  std::string error;
  if (!campaign::RunCampaign(net, spec, &result, &error)) {
    std::fprintf(stderr, "tlsharm-prof: campaign failed: %s\n",
                 error.c_str());
    return 1;
  }
  PrintSnapshot();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  if (std::strcmp(argv[1], "--scan") == 0) return RunScan();
  if (std::strcmp(argv[1], "--campaign") == 0) {
    if (argc < 3) return Usage(argv[0]);
    return RunCampaignProfile(argv[2]);
  }
  if (argv[1][0] == '-') return Usage(argv[0]);
  return SummarizeTraceFile(argv[1]);
}
