// tlsbench: the repository benchmark.
//
//   tlsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>]
//
// Runs one workload (see workloads.cc) as an untimed warm-up rep, then
// back-to-back measured reps for `--seconds` (at least three reps), checks
// every rep's deterministic outputs against the warm-up's and against one
// reference-configuration rep, and prints each metric by name with its
// unit. With --trace 1 it adds one traced rep and reports the per-layer
// metrics instead of the end-to-end ones. The last stdout line is the
// JSON result; the exit code is 0 only when every output check passed.
//
// Runs are hermetic: the library reads TLSHARM_* knobs (one of them at
// static initialization), so tlsbench refuses to start while any is set.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "stats.h"
#include "sysinfo.h"
#include "workloads.h"

extern char** environ;

namespace tlsbench {
namespace {

constexpr int kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir = ".bench_build/tlsbench-work";
};

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n >= 1 &&
               n <= 3600) {
      args->seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseUnsigned(value, &n) && n <= 1) {
      args->trace = static_cast<int>(n);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

std::string RefusedEnv() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "TLSHARM_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      return eq == nullptr ? std::string(*e)
                         : std::string(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  return "";
}

void PrintRep(const char* label, const RepResult& r) {
  std::printf("%-10s setup %.4f s  measure %.3f s  analysis %.3f s  "
              "probes %llu  %.1f us/probe  rss %.0f/%.0f MiB  %s\n",
              label, r.setup_s, r.measure_s, r.analysis_s,
              static_cast<unsigned long long>(r.probes),
              r.probes > 0 ? r.cpu_s * 1e6 / static_cast<double>(r.probes) : 0,
              r.scan_peak_mb, r.analysis_peak_mb,
              r.error.empty() ? "ok" : r.error.c_str());
  if (!r.peak_reset_ok) {
    std::printf("%-10s VmHWM reset refused: rss figures are process-wide\n",
                "");
  }
  std::printf("%-10s digests %s\n", "", r.digests.Render().c_str());
}

// Median, quartiles, sample count, and the highest percentile that still
// has ten samples beyond it (none for a handful of reps).
void PrintSummary(const MetricSpec& m, const std::vector<double>& samples,
                  double value) {
  const Quartiles q = QuartilesOf(samples);
  const auto tail = HighestTailPercentile(samples.size());
  std::string tail_text = "none";
  if (tail) {
    tail_text = "p" + FormatNumber(*tail) + "=" +
                FormatNumber(Percentile(samples, *tail));
  }
  std::printf("  %-18s %14.6g %-9s (%s better)  q1 %.6g  q3 %.6g  n %zu  "
              "tail %s\n",
              m.name, value, m.unit, m.better, q.q1, q.q3, samples.size(),
              tail_text.c_str());
}

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "tlsbench: unknown workload '%s'; choose one of:",
                 args.workload.c_str());
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "tlsbench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const Seeds seeds = DeriveSeeds(args.seed);
  const HostInfo host = ProbeHost();
  std::printf("tlsbench workload=%s seed=%llu seconds=%d trace=%d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("why: %s\n", workload->why);
  std::printf("config: %s world_seed=%016llx scan_seed=%016llx "
              "config_digest=%016llx\n",
              DescribeConfig(workload->config).c_str(),
              static_cast<unsigned long long>(seeds.world),
              static_cast<unsigned long long>(seeds.scan),
              static_cast<unsigned long long>(
                  ConfigDigest(*workload, workload->config, seeds)));
  std::printf("reference: %s\n", DescribeConfig(workload->reference).c_str());
  std::printf("host: nproc=%u cpu=\"%s\" kernel=\"%s\"\n", host.nproc,
              host.cpu_model.c_str(), host.kernel.c_str());
  std::fflush(stdout);

  RepOptions rep_options;
  rep_options.work_dir = args.work_dir;
  // reps[0] is the warm-up: it pays the process's first-touch costs (heap
  // growth, page cache, lazy library statics) and is checked like every
  // other rep, but no metric reads it. The measured reps follow until the
  // next one would end past `--seconds`.
  std::vector<RepResult> reps;
  reps.push_back(RunRep(*workload, workload->config, seeds, rep_options));
  PrintRep("warm-up", reps.back());
  std::fflush(stdout);
  const double start = WallSeconds();
  double last_rep_s = 0;
  while (reps.back().error.empty() &&
         (static_cast<int>(reps.size()) <= kMinReps ||
          WallSeconds() - start + last_rep_s <= args.seconds)) {
    const double rep_start = WallSeconds();
    reps.push_back(RunRep(*workload, workload->config, seeds, rep_options));
    last_rep_s = WallSeconds() - rep_start;
    const std::string label = "rep " + std::to_string(reps.size() - 1);
    PrintRep(label.c_str(), reps.back());
    std::fflush(stdout);
  }

  // Peak memory of the untraced workload reps alone: later reps (traced,
  // reference) run other configurations.
  double peak_rss_mb = 0;
  for (const RepResult& r : reps) {
    peak_rss_mb = std::max({peak_rss_mb, r.scan_peak_mb, r.analysis_peak_mb});
  }

  RepResult traced;
  if (args.trace == 1) {
    RepOptions o = rep_options;
    o.traced = true;
    o.trace_path = args.work_dir + "/trace-" + workload->name + "-seed" +
                   std::to_string(args.seed) + ".json";
    traced = RunRep(*workload, workload->config, seeds, o);
    PrintRep("traced", traced);
    std::printf("%-10s chrome trace: %s\n", "", o.trace_path.c_str());
  }
  const RepResult reference =
      RunRep(*workload, workload->reference, seeds, rep_options);
  PrintRep("reference", reference);

  // --- output checks --------------------------------------------------------
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].probes;
    std::string why = reps[i].error;
    if (why.empty() && reps[i].digests != reps[0].digests) {
      why = "digests differ from the warm-up rep";
    }
    if (!why.empty()) {
      failed += reps[i].probes;
      failures.push_back((i == 0 ? std::string("warm-up")
                                 : "rep " + std::to_string(i)) +
                         ": " + why);
    }
  }
  if (args.trace == 1 && (!traced.error.empty() ||
                          traced.digests != reps[0].digests)) {
    failures.push_back("traced rep: " + (traced.error.empty()
                                             ? std::string("digests differ")
                                             : traced.error));
  }
  if (!reference.error.empty() || reference.digests != reps[0].digests) {
    failures.push_back("reference: " + (reference.error.empty()
                                            ? std::string("digests differ")
                                            : reference.error));
  }
  if (!failures.empty()) failed = attempted;
  const bool correct = failures.empty();
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (correct) {
    std::printf("checks: the warm-up, %zu reps%s and the reference agree: "
                "%s\n",
                reps.size() - 1, args.trace == 1 ? ", the traced rep" : "",
                reps[0].digests.Render().c_str());
  }

  // --- metrics ----------------------------------------------------------------
  std::vector<double> setup, rate, cpu, wall, analysis;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    if (!r.error.empty() || r.probes == 0) continue;
    const double probes = static_cast<double>(r.probes);
    setup.push_back(r.setup_s);
    rate.push_back(probes / r.measure_s);
    cpu.push_back(r.cpu_s * 1e6 / probes);
    wall.push_back(r.wall_s);
    analysis.push_back(r.analysis_s);
  }
  std::vector<MetricValue> metrics;
  if (args.trace == 0) {
    const std::vector<double> peak = {peak_rss_mb};  // one process-wide peak
    const std::map<std::string, const std::vector<double>*> samples = {
        {"setup_s", &setup},
        {"probes_per_s", &rate},
        {"cpu_us_per_probe", &cpu},
        {"peak_rss_mb", &peak},
    };
    std::printf("end-to-end (median over reps; quartiles; highest percentile "
                "with >= 10 samples beyond it):\n");
    for (const MetricSpec& m : EndToEndMetrics()) {
      const std::vector<double>& s = *samples.at(m.name);
      const double value = Median(s);
      PrintSummary(m, s, value);
      metrics.push_back({m.name, m.unit, value});
    }
  } else {
    std::map<std::string, double> layers = traced.layers;
    layers["analysis_s"] = Median(analysis);
    const double untraced_wall = Median(wall);
    layers["trace.overhead_pct"] =
        untraced_wall > 0 ? 100.0 * (traced.wall_s / untraced_wall - 1.0) : 0;
    std::printf("per-layer (traced rep; analysis_s is the untraced median):\n");
    for (const MetricSpec& m : PerLayerMetrics()) {
      const double value = layers.count(m.name) ? layers[m.name] : 0.0;
      std::printf("  %-34s %16.6g %s\n", m.name, value, m.unit);
      metrics.push_back({m.name, m.unit, value});
    }
    std::printf("calling-thread self time by layer (traced wall %.4f s):\n",
                traced.wall_s);
    double sum = 0;
    for (const auto& [layer, s] : traced.calling_thread_self_s) {
      std::printf("  %-14s %10.4f s  %6.2f%%\n", layer.c_str(), s,
                  traced.wall_s > 0 ? 100.0 * s / traced.wall_s : 0);
      sum += s;
    }
    std::printf("  %-14s %10.4f s  %6.2f%%  (root_self_ns %.0f)\n", "sum", sum,
                traced.wall_s > 0 ? 100.0 * sum / traced.wall_s : 0,
                layers["trace.root_self_ns"]);
  }
  std::printf("%s\n",
              RenderResultLine(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tlsbench

int main(int argc, char** argv) {
  const std::string refused = tlsbench::RefusedEnv();
  if (!refused.empty()) {
    std::fprintf(stderr,
                 "tlsbench: refusing to run with %s set; the library reads "
                 "TLSHARM_* knobs, so runs must start without them\n",
                 refused.c_str());
    return 2;
  }
  tlsbench::Args args;
  if (!tlsbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return tlsbench::Run(args);
}
