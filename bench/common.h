// Shared infrastructure for the experiment benches: world construction,
// paper-vs-measured row printing, and scaling helpers.
//
// Every bench accepts two environment knobs:
//   TLSHARM_POPULATION — simulated Top-N list size (default 20,000)
//   TLSHARM_DAYS       — study length in days (default 63, the paper's 9
//                        weeks); a value that is not a whole number in
//                        2..63 exits 2 (the rule of examples/study_days.h)
// Absolute paper counts are compared after scaling by population/1M.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../examples/study_days.h"
#include "simnet/internet.h"
#include "util/stats.h"
#include "util/table.h"

namespace tlsharm::bench {

inline int StudyDays() {
  const int days = examples::StudyDaysFromEnv(63, /*min_days=*/2);
  if (days < 0) std::exit(2);
  return days;
}

inline std::uint64_t StudySeed() { return 20160302; }

// Peak resident set size (VmHWM — the process high-water mark) in MiB from
// /proc/self/status; 0.0 when unavailable. Monotonic over the process
// lifetime: sampling after a phase reports the peak of everything run so
// far, which is exactly the bound a memory gate wants.
inline double ReadPeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::atof(line + 6) / 1024.0;  // the kernel reports kB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

struct World {
  std::unique_ptr<simnet::Internet> net;
  std::size_t population;
  double scale;  // population / 1,000,000 (for count comparisons)
  int days;
};

inline World BuildWorld(const char* bench_name) {
  World world;
  world.population = simnet::DefaultPopulationSize();
  world.days = StudyDays();
  world.scale = static_cast<double>(world.population) / 1'000'000.0;
  std::printf("== %s ==\n", bench_name);
  std::printf("population=%zu (Top-1M scale factor %.4f), days=%d\n",
              world.population, world.scale, world.days);
  const auto start = std::chrono::steady_clock::now();
  world.net = std::make_unique<simnet::Internet>(
      simnet::PaperPopulationSpec(world.population), StudySeed());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  std::printf("world: %zu domains, %zu terminators (built in %lld ms)\n\n",
              world.net->DomainCount(), world.net->TerminatorCount(),
              static_cast<long long>(elapsed.count()));
  return world;
}

// One "paper vs measured" comparison row.
inline void PrintRow(const std::string& metric, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-58s paper=%-14s measured=%s\n", metric.c_str(),
              paper.c_str(), measured.c_str());
}

inline std::string Pct(double fraction, int decimals = 1) {
  return FormatPercent(fraction, decimals);
}

inline std::string Count(double scaled) {
  return FormatCount(static_cast<std::uint64_t>(scaled + 0.5));
}

// Renders a paper count alongside what it would be at our scale.
inline std::string PaperCountAtScale(std::uint64_t paper_count,
                                     double scale) {
  return FormatCount(paper_count) + "(" +
         FormatCount(static_cast<std::uint64_t>(paper_count * scale + 0.5)) +
         "@scale)";
}

// Machine-readable bench results: collects flat key/value pairs and writes
// them as BENCH_<name>.json in the working directory, so CI can track
// throughput numbers without parsing the human-readable tables.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    fields_.emplace_back(key, buf);
  }
  void Add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void AddString(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }
  // Embeds an already-rendered JSON value verbatim (e.g. a metrics
  // snapshot from obs::MetricsRegistry::SnapshotJson()).
  void AddRaw(const std::string& key, std::string rendered_json) {
    fields_.emplace_back(key, std::move(rendered_json));
  }

  // Writes BENCH_<name>.json and returns the path ("" on failure).
  std::string Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return "";
    std::fputs("{\n", out);
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(out, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fputs("}\n", out);
    std::fclose(out);
    return path;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;  // rendered
};

}  // namespace tlsharm::bench
