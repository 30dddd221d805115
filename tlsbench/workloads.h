// The benchmark's workloads and the one repetition ("rep") each run is
// made of. A rep builds a fresh simulated world, runs the workload through
// the library's public API, and — for the daily campaign — turns the
// campaign directory into harm curves. Every rep also digests its
// deterministic outputs, so repeated reps, the traced rep and the
// reference configuration can be compared byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tlsbench {

enum class WorkloadKind {
  kCampaign,  // durable campaign with capture tape, then the harm analysis
  kScan,      // bare sharded daily scans, nothing stored
  kLifetime,  // session-ID then ticket resumption-lifetime sweeps
};

// Everything that shapes one rep. A lazy fleet with `fleet_budget_mb`
// MiB of working set, or (lazy_fleet == false) the library's default fleet.
struct RunConfig {
  std::size_t population = 0;  // Top-N list size
  int days = 0;                // study days (lifetime sweeps run on day 1)
  int threads = 1;
  bool lazy_fleet = false;
  std::size_t fleet_budget_mb = 0;
  double fault_scale = 0;  // DefaultFaultSpec scale; 0 = no faults
  int max_attempts = 1;    // per-probe attempts (requeue is always on)
  bool record_captures = false;
};

struct Workload {
  const char* name;
  const char* why;
  WorkloadKind kind;
  RunConfig config;
  // Run once per invocation; its outputs must digest identically.
  RunConfig reference;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The metric catalog, in BENCHMARK.json order (a unit test holds the two
// together). End-to-end metrics come from untraced reps; per-layer ones
// from the traced rep.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "higher" | "lower"
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Seeds derived from the single workload seed: the world (which also
// seeds the fault injector) and the scan/prober derivations.
struct Seeds {
  std::uint64_t world = 0;
  std::uint64_t scan = 0;
};
Seeds DeriveSeeds(std::uint64_t seed);

// FNV-1a 64 over a canonical rendering of the workload and its seeds.
std::uint64_t ConfigDigest(const Workload& workload, const RunConfig& config,
                           const Seeds& seeds);
std::string DescribeConfig(const RunConfig& config);

// Digests of a rep's deterministic outputs (0 = not produced by this
// workload). Content hashes are FNV-1a 64; the MANIFEST entries are the
// CRC-32 of the on-disk MANIFEST bytes.
struct Digests {
  std::uint64_t metrics = 0;   // scan metrics + fleet-sweep snapshots
  std::uint64_t loss = 0;      // per-day loss ledger
  std::uint64_t scan = 0;      // scan aggregates (spans, core domains)
  std::uint64_t warehouse_manifest = 0;
  std::uint64_t tape_manifest = 0;
  std::uint64_t harm_curves = 0;  // RenderHarmCurvesJsonl bytes
  std::uint64_t lifetimes = 0;    // both lifetime-sweep results

  bool operator==(const Digests&) const = default;
  std::uint64_t Combined() const;
  std::string Render() const;
};

struct RepOptions {
  std::string work_dir;  // work directory owned by this rep
  bool traced = false;
  std::string trace_path;  // Chrome trace output when traced
};

struct RepResult {
  std::string error;  // API failure or failed output check; "" when fine

  // Phase timings of the calling thread.
  double setup_s = 0;
  double measure_s = 0;
  double analysis_s = 0;  // campaign only
  double wall_s = 0;      // setup + measurement + analysis
  double cpu_s = 0;       // process CPU over the measurement phase

  std::uint64_t probes = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;

  double scan_peak_mb = 0;      // VmHWM through the measurement phase
  double analysis_peak_mb = 0;  // VmHWM of the analysis phase alone
  bool peak_reset_ok = true;    // clear_refs accepted

  Digests digests;

  // Traced reps only: per-layer values by metric name, plus the calling
  // thread's self time per layer for the reconciliation table.
  std::map<std::string, double> layers;
  std::map<std::string, double> calling_thread_self_s;
};

RepResult RunRep(const Workload& workload, const RunConfig& config,
                 const Seeds& seeds, const RepOptions& options);

}  // namespace tlsbench
