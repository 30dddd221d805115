#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>
#include <system_error>

#include "adversary/replay.h"
#include "campaign/campaign.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/prof_report.h"
#include "scanner/experiments.h"
#include "scanner/scan_engine.h"
#include "simnet/faults.h"
#include "simnet/internet.h"
#include "stats.h"
#include "sysinfo.h"
#include "util/crc32.h"
#include "warehouse/capture.h"
#include "warehouse/fold.h"
#include "warehouse/format.h"
#include "warehouse/warehouse.h"

namespace tlsbench {

using namespace tlsharm;

namespace {

// The benchmark's own spans, one around each public call a rep makes.
// Spans inside src/ (crypto.*, scan.*, campaign.*, warehouse.*, tape.*,
// durable.*) nest under these on whichever thread runs them.
const obs::ProfSite kRep("bench.rep");
const obs::ProfSite kBuild("bench.simnet.build");
const obs::ProfSite kPrepare("bench.campaign.prepare");
const obs::ProfSite kCampaignRun("bench.campaign.run");
const obs::ProfSite kScanRun("bench.scanner.run");
const obs::ProfSite kProgress("bench.scanner.progress");
const obs::ProfSite kLifetimeId("bench.scanner.lifetime_id");
const obs::ProfSite kLifetimeTicket("bench.scanner.lifetime_ticket");
const obs::ProfSite kFleetSweep("bench.server.fleet_sweep");
const obs::ProfSite kOpen("bench.warehouse.open");
const obs::ProfSite kFold("bench.warehouse.fold");
const obs::ProfSite kTapeRead("bench.warehouse.tape_read");
const obs::ProfSite kIngest("bench.adversary.ingest", obs::kProfNoTrace);
const obs::ProfSite kSeal("bench.adversary.seal");
const obs::ProfSite kSweep("bench.adversary.sweep");

// Lifetime sweeps use the library's defaults: +1 s, then every 5 min up to
// 24 h, on study day 1.
constexpr int kLifetimeDay = 1;
constexpr SimTime kLifetimeStep = 5 * kMinute;
constexpr SimTime kLifetimeMaxDelay = 24 * kHour;

// An effectively unbounded fleet budget (1 TiB), for reference runs.
constexpr std::size_t kUnboundedFleetMb = std::size_t{1} << 20;

// --- digests --------------------------------------------------------------

class Fnv {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, sizeof(b));
  }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t ScanDigest(const scanner::DailyScanResult& scan) {
  Fnv f;
  f.U64(scan.core_domains.size());
  for (const auto d : scan.core_domains) f.U64(d);
  f.U64(scan.core_ever_ticket);
  f.U64(scan.core_ever_ecdhe);
  f.U64(scan.core_ever_dhe_connect);
  f.U64(scan.core_any_mechanism);
  for (const analysis::SpanTracker* t :
       {&scan.stek_spans, &scan.ecdhe_spans, &scan.dhe_spans}) {
    tlsharm::Bytes state;
    t->EncodeState(state);
    f.U64(state.size());
    f.Bytes(state.data(), state.size());
  }
  return f.Value();
}

std::uint64_t LossDigest(const std::vector<scanner::DayLoss>& loss) {
  Fnv f;
  f.U64(loss.size());
  for (const scanner::DayLoss& day : loss) {
    f.U64(day.scheduled);
    f.U64(day.recovered);
    f.U64(day.lost);
    for (const std::size_t n : day.lost_by_class) f.U64(n);
  }
  return f.Value();
}

void HashLifetimes(Fnv& f, const scanner::ResumptionLifetimeResult& r) {
  f.U64(r.trusted_https);
  f.U64(r.indicated);
  f.U64(r.resumed_1s);
  f.U64(r.lifetimes.size());
  for (const scanner::LifetimeMeasurement& m : r.lifetimes) {
    f.U64(m.domain);
    f.U64(static_cast<std::uint64_t>(m.max_delay));
    f.U64(m.lifetime_hint);
  }
}

// CRC-32 of a MANIFEST file; 0 with `error` set when unreadable.
std::uint64_t ManifestCrc(const std::string& dir, std::string* error) {
  tlsharm::Bytes bytes;
  const std::string path = dir + "/" + warehouse::kManifestName;
  if (!warehouse::ReadWarehouseFile(path, &bytes, error)) return 0;
  return tlsharm::Crc32(bytes);
}

// Probes a lifetime sweep issued, derived exactly from its result: one
// initial handshake per trusted HTTPS domain, the +1 s attempt for every
// domain that indicated resumption, then for each domain that resumed at
// +1 s every `step` attempt up to and including the first failure (none
// after a success at the last step).
std::uint64_t LifetimeProbes(const scanner::ResumptionLifetimeResult& r) {
  const SimTime last = kLifetimeMaxDelay / kLifetimeStep * kLifetimeStep;
  std::uint64_t probes = r.trusted_https + r.indicated;
  for (const scanner::LifetimeMeasurement& m : r.lifetimes) {
    if (m.max_delay < kLifetimeStep) {
      probes += 1;
    } else {
      probes += static_cast<std::uint64_t>(m.max_delay / kLifetimeStep) +
                (m.max_delay < last ? 1 : 0);
    }
  }
  return probes;
}

// --- prof snapshot helpers --------------------------------------------------

struct SpanSums {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
using SpanTable = std::map<std::string, SpanSums>;

SpanTable Tabulate(const obs::ProfSnapshot& snap) {
  SpanTable table;
  for (const obs::ProfSpanStats& s : snap.spans) {
    table[s.name] = SpanSums{s.count, s.total_ns, s.self_ns};
  }
  return table;
}

const SpanSums& Lookup(const SpanTable& table, const std::string& name) {
  static const SpanSums kNone;
  const auto it = table.find(name);
  return it == table.end() ? kNone : it->second;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Spans the scan engine records on its worker threads when it runs with
// more than one shard (crypto.* only counts during the measurement phase).
bool WorkerSpan(std::string_view name) {
  return StartsWith(name, "scan.shard") || StartsWith(name, "scan.probe.") ||
         StartsWith(name, "crypto.");
}

// The layer a span's self time belongs to, named after src/ modules.
std::string LayerOf(std::string_view name) {
  if (StartsWith(name, "bench.")) {
    const std::string_view rest = name.substr(6);
    return std::string(rest.substr(0, rest.find('.')));
  }
  if (StartsWith(name, "scan.")) return "scanner";
  if (StartsWith(name, "tape.")) return "warehouse";
  if (StartsWith(name, "durable.")) return "util.durable";
  return std::string(name.substr(0, name.find('.')));
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

simnet::PopulationSpec PopulationOf(const RunConfig& config) {
  simnet::PopulationSpec spec = simnet::PaperPopulationSpec(config.population);
  if (config.lazy_fleet) {
    spec.fleet_mode = simnet::FleetMode::kLazy;
    spec.fleet_budget_mb = config.fleet_budget_mb;
  }
  return spec;
}

// Identity of the world for the campaign journal: everything that shapes
// observations (population, world seed, fault scale), nothing that does
// not (fleet mode, threads).
std::uint64_t WorldDigest(const RunConfig& config, const Seeds& seeds) {
  Fnv f;
  f.U64(config.population);
  f.U64(seeds.world);
  f.Str(FormatNumber(config.fault_scale));
  return f.Value();
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// --- workload table -----------------------------------------------------------

// Sizes keep one rep at about 1.5-3 s of measurement, so a 30 s run holds
// nine or more measured reps. Shard counts stay below the 4 vCPUs of the
// host the benchmark was tuned on: with every vCPU busy, host steal time
// swung wall throughput by 30-45% between runs, against about 5% at two
// shards.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"daily-campaign",
       "the daily longevity campaign as users run it, then its harm "
       "analysis: the only workload with durable commits, warehouse and "
       "tape encoding, and the adversary fold",
       WorkloadKind::kCampaign,
       {.population = 3000, .days = 10, .threads = 2, .fault_scale = 1.0,
        .max_attempts = 3, .record_captures = true},
       {.population = 3000, .days = 10, .threads = 1, .fault_scale = 1.0,
        .max_attempts = 3, .record_captures = true}},
      {"fleet-churn",
       "a lazy fleet about 3x over its budget, so eviction rebuilds and "
       "re-signs terminators: the million-domain regime at small scale",
       WorkloadKind::kScan,
       // Single-threaded, as the paper-scale single-core target is: the
       // working set is about 3.3 MiB, so each terminator is rebuilt ~3.4x.
       {.population = 4096, .days = 2, .threads = 1, .lazy_fleet = true,
        .fleet_budget_mb = 1},
       {.population = 4096, .days = 2, .threads = 1, .lazy_fleet = true,
        .fleet_budget_mb = kUnboundedFleetMb}},
      {"resume-lifetime",
       "the Figs. 1-2 resumption-lifetime sweeps: the only workload that "
       "reads the session cache and the ticket path, costing PRF work "
       "rather than handshakes",
       WorkloadKind::kLifetime,
       {.population = 1000, .days = 2, .threads = 1},
       // Already single-threaded: cross-check a tightly bounded lazy fleet
       // instead, whose evictions must not change any resumption outcome.
       {.population = 1000, .days = 2, .threads = 1, .lazy_fleet = true,
        .fleet_budget_mb = 1}},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"probes_per_s", "probes/s", "higher"},
      {"cpu_us_per_probe", "us", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"simnet.build_s", "s", "lower"},
      {"simnet.fleet.materializations_n", "count", "lower"},
      {"simnet.fleet.evictions_n", "count", "lower"},
      {"simnet.fleet.miss_ratio", "fraction", "lower"},
      {"simnet.fleet.resident_mb", "MiB", "lower"},
      {"crypto.sign_s", "s", "lower"},
      {"crypto.sign_n", "count", "lower"},
      {"crypto.verify_s", "s", "lower"},
      {"crypto.verify_n", "count", "lower"},
      {"crypto.ffdh_keygen_s", "s", "lower"},
      {"crypto.ffdh_keygen_n", "count", "lower"},
      {"crypto.ffdh_shared_s", "s", "lower"},
      {"crypto.ffdh_shared_n", "count", "lower"},
      {"crypto.prf_s", "s", "lower"},
      {"crypto.prf_n", "count", "lower"},
      {"crypto.hmac_s", "s", "lower"},
      {"crypto.hmac_n", "count", "lower"},
      {"scanner.probe_self_s", "s", "lower"},
      {"scanner.probe_us_p50", "us", "lower"},
      {"scanner.probe_us_p99", "us", "lower"},
      {"scanner.merge_wait_s", "s", "lower"},
      {"scanner.shard_stall_pct", "%", "lower"},
      {"scanner.day_s_p50", "s", "lower"},
      {"scanner.attempts_n", "count", "lower"},
      {"scanner.retries_n", "count", "lower"},
      {"scanner.recovered_n", "count", "higher"},
      {"scanner.lost_ratio", "fraction", "lower"},
      {"scanner.lifetime_id_s", "s", "lower"},
      {"scanner.lifetime_ticket_s", "s", "lower"},
      {"server.session.lookups_n", "count", "lower"},
      {"server.session.hits_n", "count", "higher"},
      {"server.session.hit_ratio", "fraction", "higher"},
      {"server.session.inserts_n", "count", "lower"},
      {"server.kex.fresh_n", "count", "lower"},
      {"server.kex.reused_n", "count", "higher"},
      {"warehouse.stage_s", "s", "lower"},
      {"warehouse.encode_s", "s", "lower"},
      {"warehouse.fold_s", "s", "lower"},
      {"warehouse.fold_rows_n", "count", "lower"},
      {"warehouse.tape_read_s", "s", "lower"},
      {"warehouse.bytes_per_row", "B", "lower"},
      {"warehouse.tape_bytes_per_record", "B", "lower"},
      {"campaign.run_s", "s", "lower"},
      {"campaign.commit_s", "s", "lower"},
      {"campaign.barriers_n", "count", "lower"},
      {"util.durable.fsync_s", "s", "lower"},
      {"util.durable.fsync_n", "count", "lower"},
      {"util.durable.write_s", "s", "lower"},
      {"adversary.ingest_s", "s", "lower"},
      {"adversary.seal_s", "s", "lower"},
      {"adversary.sweep_s", "s", "lower"},
      {"adversary.rows_n", "count", "lower"},
      {"adversary.curve_points_n", "count", "lower"},
      {"adversary.rss_mb", "MiB", "lower"},
      {"analysis_s", "s", "lower"},
      {"trace.wall_s", "s", "lower"},
      {"trace.attributed_pct", "%", "higher"},
      {"trace.root_self_ns", "ns", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  return kMetrics;
}

Seeds DeriveSeeds(std::uint64_t seed) {
  return Seeds{SplitMix64(seed ^ 0x776f726c64ull),   // "world"
               SplitMix64(seed ^ 0x7363616eull)};    // "scan"
}

std::string DescribeConfig(const RunConfig& config) {
  std::string fleet =
      config.lazy_fleet
          ? "lazy/" + (config.fleet_budget_mb >= kUnboundedFleetMb
                           ? std::string("unbounded")
                           : std::to_string(config.fleet_budget_mb) + "MiB")
          : std::string("library-default");
  return "population=" + std::to_string(config.population) +
         " days=" + std::to_string(config.days) +
         " threads=" + std::to_string(config.threads) + " fleet=" + fleet +
         " faults=" + FormatNumber(config.fault_scale) +
         " attempts=" + std::to_string(config.max_attempts) +
         " capture=" + (config.record_captures ? "on" : "off");
}

std::uint64_t ConfigDigest(const Workload& workload, const RunConfig& config,
                           const Seeds& seeds) {
  Fnv f;
  f.Str(workload.name);
  f.Str(DescribeConfig(config));
  f.U64(seeds.world);
  f.U64(seeds.scan);
  return f.Value();
}

std::uint64_t Digests::Combined() const {
  Fnv f;
  for (const std::uint64_t d : {metrics, loss, scan, warehouse_manifest,
                                tape_manifest, harm_curves, lifetimes}) {
    f.U64(d);
  }
  return f.Value();
}

std::string Digests::Render() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "metrics=%016" PRIx64 " loss=%016" PRIx64 " scan=%016" PRIx64
                " warehouse_manifest=%08" PRIx64 " tape_manifest=%08" PRIx64
                " harm_curves=%016" PRIx64 " lifetimes=%016" PRIx64
                " combined=%016" PRIx64,
                metrics, loss, scan, warehouse_manifest, tape_manifest,
                harm_curves, lifetimes, Combined());
  return buf;
}

// --- one rep ----------------------------------------------------------------

namespace {

// Everything one rep produces, kept until its per-layer metrics and
// digests are taken.
struct RepState {
  std::string dir;  // campaign directory
  std::unique_ptr<simnet::Internet> net;
  obs::MetricsRegistry metrics;      // the scan engine's / campaign's
  obs::MetricsRegistry fleet_sweep;  // CollectFleetMetrics after measuring
  simnet::Internet::FleetStats fleet;
  double measure_start = 0;
  std::vector<double> day_ends;  // wall time of each ScanProgress callback

  scanner::DailyScanResult scan;
  campaign::CampaignResult campaign;
  scanner::ResumptionLifetimeResult id_sweep;
  scanner::ResumptionLifetimeResult ticket_sweep;

  scanner::DailyScanResult folded;
  warehouse::FoldStats fold_stats;
  std::vector<adversary::HarmCurve> curves;
  std::uint64_t harm_rows = 0;
  double warehouse_rows = 0;
  double warehouse_bytes = 0;
  double tape_rows = 0;
  double tape_bytes = 0;
};

// Builds the world and, for the campaign, an empty campaign directory.
std::string Setup(const Workload& workload, const RunConfig& config,
                  const Seeds& seeds, RepState& s) {
  {
    obs::ProfScope span(kBuild);
    s.net = std::make_unique<simnet::Internet>(PopulationOf(config),
                                               seeds.world);
    if (config.fault_scale > 0) {
      s.net->SetFaultSpec(simnet::DefaultFaultSpec(config.fault_scale));
    }
  }
  if (workload.kind != WorkloadKind::kCampaign) return "";
  obs::ProfScope span(kPrepare);
  std::error_code ec;
  std::filesystem::remove_all(s.dir, ec);
  std::filesystem::create_directories(s.dir, ec);
  return ec ? "cannot create " + s.dir + ": " + ec.message() : "";
}

// The measurement phase: the workload's calls into the library, nothing
// else.
std::string Measure(const Workload& workload, const RunConfig& config,
                    const Seeds& seeds, RepState& s) {
  auto progress = [&s](const scanner::ScanProgress&) {
    obs::ProfScope span(kProgress);
    s.day_ends.push_back(WallSeconds());
  };
  scanner::ScanRobustness robustness;
  robustness.retry.max_attempts = config.max_attempts;
  switch (workload.kind) {
    case WorkloadKind::kCampaign: {
      campaign::CampaignSpec spec;
      spec.dir = s.dir;
      spec.days = config.days;
      spec.seed = seeds.scan;
      spec.threads = config.threads;
      spec.robustness = robustness;
      spec.world_digest = WorldDigest(config, seeds);
      spec.record_captures = config.record_captures;
      spec.metrics = &s.metrics;
      spec.progress = progress;
      std::string error;
      obs::ProfScope span(kCampaignRun);
      if (!campaign::RunCampaign(*s.net, spec, &s.campaign, &error)) {
        return "RunCampaign: " + error;
      }
      return "";
    }
    case WorkloadKind::kScan: {
      scanner::ScanEngineOptions engine;
      engine.threads = config.threads;
      engine.robustness = robustness;
      engine.metrics = &s.metrics;
      engine.progress = progress;
      obs::ProfScope span(kScanRun);
      s.scan = scanner::RunShardedDailyScans(*s.net, config.days, seeds.scan,
                                             engine);
      return "";
    }
    case WorkloadKind::kLifetime: {
      {
        obs::ProfScope span(kLifetimeId);
        s.id_sweep = scanner::MeasureSessionIdLifetime(
            *s.net, kLifetimeDay, seeds.scan, kLifetimeMaxDelay,
            kLifetimeStep);
      }
      obs::ProfScope span(kLifetimeTicket);
      s.ticket_sweep = scanner::MeasureTicketLifetime(
          *s.net, kLifetimeDay, seeds.scan, kLifetimeMaxDelay, kLifetimeStep);
      return "";
    }
  }
  return "unknown workload kind";
}

// The campaign's analysis phase: campaign directory -> harm curves.
std::string Analyze(const RunConfig& config, RepState& s) {
  std::string error;
  std::optional<warehouse::Warehouse> wh;
  std::optional<warehouse::CaptureTape> tape;
  {
    obs::ProfScope span(kOpen);
    wh = warehouse::Warehouse::Open(
        s.dir + "/" + campaign::kWarehouseDirName, &error);
    if (wh) {
      tape = warehouse::CaptureTape::Open(
          s.dir + "/" + campaign::kCaptureTapeDirName, &error);
    }
  }
  if (!wh || !tape) return "open: " + error;
  s.warehouse_rows = static_cast<double>(wh->TotalRows());
  s.warehouse_bytes = static_cast<double>(wh->TotalBytes());
  s.tape_rows = static_cast<double>(tape->TotalRows());
  for (const warehouse::SegmentInfo& seg : tape->Segments()) {
    s.tape_bytes += static_cast<double>(seg.bytes);
  }

  warehouse::FoldOptions cold;
  cold.use_checkpoints = false;
  {
    obs::ProfScope span(kFold);
    if (!warehouse::FoldDailyScans(*wh, *s.net, cold, &s.folded, &error,
                                   &s.fold_stats)) {
      return "FoldDailyScans: " + error;
    }
  }
  adversary::HarmEngine engine(*s.net);
  {
    obs::ProfScope span(kTapeRead);
    const bool ok = tape->ForEachCapture(
        0, config.days - 1,
        [&engine](int day, const attack::CaptureRecord& record) {
          obs::ProfScope ingest(kIngest);
          engine.Ingest(day, record);
        },
        &error);
    if (!ok) return "ForEachCapture: " + error;
  }
  {
    obs::ProfScope span(kSeal);
    engine.Seal();
  }
  {
    obs::ProfScope span(kSweep);
    s.curves = engine.Sweep();
  }
  s.harm_rows = engine.RowCount();
  return "";
}

// Per-layer metrics of a traced rep from the prof snapshot `snap` (whole
// rep), the span tables taken at the phase boundaries, and the counts.
void FillLayers(const RunConfig& config, bool lifetime, const RepState& s,
                const obs::ProfSnapshot& snap, const SpanTable& after_setup,
                const SpanTable& after_measure, RepResult& out) {
  const SpanTable all = Tabulate(snap);
  auto self_s = [&all](const std::string& name) {
    return Seconds(Lookup(all, name).self_ns);
  };
  auto total_s = [&all](const std::string& name) {
    return Seconds(Lookup(all, name).total_ns);
  };
  auto count = [&all](const std::string& name) {
    return static_cast<double>(Lookup(all, name).count);
  };
  const obs::MetricsSnapshot scan_metrics = s.metrics.Snapshot();
  const obs::MetricsSnapshot sweep_metrics = s.fleet_sweep.Snapshot();
  auto counter = [](const obs::MetricsSnapshot& m, const std::string& name) {
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, double>& L = out.layers;

  const double attempts = lifetime ? static_cast<double>(out.probes)
                                   : counter(scan_metrics, "probe.attempts");
  L["simnet.build_s"] = total_s("bench.simnet.build");
  L["simnet.fleet.materializations_n"] =
      static_cast<double>(s.fleet.materializations);
  L["simnet.fleet.evictions_n"] = static_cast<double>(s.fleet.evictions);
  L["simnet.fleet.miss_ratio"] =
      ratio(static_cast<double>(s.fleet.materializations), attempts);
  L["simnet.fleet.resident_mb"] =
      static_cast<double>(s.fleet.resident_bytes) / (1024.0 * 1024.0);
  for (const char* op : {"sign", "verify", "prf", "hmac"}) {
    const std::string span = std::string("crypto.") + op;
    L[span + "_s"] = self_s(span);
    L[span + "_n"] = count(span);
  }
  for (const char* op : {"keygen", "shared"}) {
    const std::string span = std::string("crypto.ffdh.") + op;
    L[std::string("crypto.ffdh_") + op + "_s"] = self_s(span);
    L[std::string("crypto.ffdh_") + op + "_n"] = count(span);
  }
  // On the lifetime sweeps the sweep spans' self time is the sweep wall
  // minus the crypto spans inside it.
  L["scanner.probe_self_s"] =
      lifetime ? self_s("bench.scanner.lifetime_id") +
                     self_s("bench.scanner.lifetime_ticket")
               : self_s("scan.probe.main") + self_s("scan.probe.dhe") +
                     self_s("scan.probe.requeue");
  for (const obs::ProfSpanStats& span : snap.spans) {
    if (span.name != "scan.probe.main") continue;
    L["scanner.probe_us_p50"] = obs::ProfQuantileNs(span, 0.50) / 1e3;
    L["scanner.probe_us_p99"] = obs::ProfQuantileNs(span, 0.99) / 1e3;
  }
  L["scanner.merge_wait_s"] =
      self_s("scan.join.main") + self_s("scan.join.requeue");
  std::uint64_t busy = 0, stall = 0;
  for (const obs::ProfTrackStats& t : snap.tracks) {
    busy += t.busy_ns;
    stall += t.stall_ns;
  }
  L["scanner.shard_stall_pct"] =
      100.0 * ratio(static_cast<double>(stall),
                    static_cast<double>(busy + stall));
  std::vector<double> day_s;
  double prev = s.measure_start;
  for (const double t : s.day_ends) {
    day_s.push_back(t - prev);
    prev = t;
  }
  L["scanner.day_s_p50"] = Median(day_s);
  L["scanner.attempts_n"] = attempts;
  L["scanner.retries_n"] = counter(scan_metrics, "probe.retries");
  L["scanner.recovered_n"] = static_cast<double>(out.recovered);
  L["scanner.lost_ratio"] = ratio(static_cast<double>(out.lost),
                                  static_cast<double>(out.scheduled));
  L["scanner.lifetime_id_s"] = total_s("bench.scanner.lifetime_id");
  L["scanner.lifetime_ticket_s"] = total_s("bench.scanner.lifetime_ticket");
  const double lookups = counter(sweep_metrics, "fleet.session.lookups");
  const double hits = counter(sweep_metrics, "fleet.session.hits");
  L["server.session.lookups_n"] = lookups;
  L["server.session.hits_n"] = hits;
  L["server.session.hit_ratio"] = ratio(hits, lookups);
  L["server.session.inserts_n"] =
      counter(sweep_metrics, "fleet.session.inserts");
  L["server.kex.fresh_n"] = counter(sweep_metrics, "fleet.kex.fresh");
  L["server.kex.reused_n"] = counter(sweep_metrics, "fleet.kex.reused");
  L["warehouse.stage_s"] =
      self_s("scan.store.append") + self_s("scan.store.endday") +
      self_s("scan.store.finish") + self_s("scan.capture.flush") +
      self_s("scan.capture.endday") + self_s("scan.capture.finish");
  L["warehouse.encode_s"] =
      self_s("warehouse.segment.encode") + self_s("tape.segment.encode");
  L["warehouse.fold_s"] = total_s("bench.warehouse.fold");
  L["warehouse.fold_rows_n"] = static_cast<double>(s.fold_stats.rows_folded);
  L["warehouse.tape_read_s"] = self_s("bench.warehouse.tape_read");
  L["warehouse.bytes_per_row"] = ratio(s.warehouse_bytes, s.warehouse_rows);
  L["warehouse.tape_bytes_per_record"] = ratio(s.tape_bytes, s.tape_rows);
  L["campaign.run_s"] = total_s("bench.campaign.run");
  L["campaign.commit_s"] = total_s("campaign.commit.day");
  L["campaign.barriers_n"] = static_cast<double>(s.campaign.barriers_passed);
  L["util.durable.fsync_s"] = self_s("durable.fsync");
  L["util.durable.fsync_n"] = count("durable.fsync");
  L["util.durable.write_s"] = self_s("durable.write");
  L["adversary.ingest_s"] = total_s("bench.adversary.ingest");
  L["adversary.seal_s"] = total_s("bench.adversary.seal");
  L["adversary.sweep_s"] = total_s("bench.adversary.sweep");
  L["adversary.rows_n"] = static_cast<double>(s.harm_rows);
  std::uint64_t points = 0;
  for (const adversary::HarmCurve& c : s.curves) points += c.points.size();
  L["adversary.curve_points_n"] = static_cast<double>(points);
  L["adversary.rss_mb"] = out.analysis_peak_mb;
  L["trace.root_self_ns"] = static_cast<double>(snap.root_self_ns);

  // Calling-thread reconciliation: every span this thread closed, by
  // layer. With more than one shard the scan engine probes on worker
  // threads, so worker spans recorded during the measurement phase are
  // left out; setup and analysis run on this thread alone.
  const double wall = total_s("bench.rep");
  double attributed = 0;
  for (const auto& [name, sums] : all) {
    if (name == "bench.rep") continue;
    std::uint64_t self = sums.self_ns;
    if (config.threads > 1 && WorkerSpan(name)) {
      self -= Lookup(after_measure, name).self_ns -
              Lookup(after_setup, name).self_ns;
    }
    if (self == 0) continue;
    out.calling_thread_self_s[LayerOf(name)] += Seconds(self);
    attributed += Seconds(self);
  }
  L["trace.wall_s"] = wall;
  L["trace.attributed_pct"] = 100.0 * ratio(attributed, wall);
}

// Output checks and digests of a finished rep; "" when every check holds.
std::string CheckAndDigest(WorkloadKind kind, RepState& s, Digests& d) {
  Fnv m;
  m.Str(s.metrics.SnapshotJson());
  m.Str(s.campaign.metrics_json);
  m.Str(s.fleet_sweep.SnapshotJson());
  d.metrics = m.Value();
  if (kind == WorkloadKind::kLifetime) {
    Fnv f;
    HashLifetimes(f, s.id_sweep);
    HashLifetimes(f, s.ticket_sweep);
    d.lifetimes = f.Value();
    return "";
  }
  d.loss = LossDigest(s.scan.loss);
  d.scan = ScanDigest(s.scan);
  if (kind != WorkloadKind::kCampaign) return "";

  std::string error;
  d.warehouse_manifest =
      ManifestCrc(s.dir + "/" + campaign::kWarehouseDirName, &error);
  if (error.empty()) {
    d.tape_manifest =
        ManifestCrc(s.dir + "/" + campaign::kCaptureTapeDirName, &error);
  }
  if (!error.empty()) return "manifest: " + error;
  if (ScanDigest(s.folded) != d.scan) {
    return "FoldDailyScans disagrees with the campaign's aggregates";
  }
  if (s.fold_stats.rows_folded !=
      static_cast<std::uint64_t>(s.warehouse_rows)) {
    return "FoldDailyScans folded " + std::to_string(s.fold_stats.rows_folded) +
           " of " + FormatNumber(s.warehouse_rows) + " warehouse rows";
  }
  // The digest covers exactly the JSONL bytes tlsharm-harm would print,
  // rendered one curve at a time to bound memory.
  Fnv harm;
  std::vector<adversary::HarmCurve> one(1);
  for (adversary::HarmCurve& curve : s.curves) {
    for (const adversary::HarmPoint& p : curve.points) {
      std::uint64_t sum = p.decryptable;
      for (const std::uint64_t n : p.survivors) sum += n;
      if (sum != p.connections) {
        return "harm curve " + curve.profile + " at t=" +
               std::to_string(p.t) + ": decryptable + survivors != " +
               "connections";
      }
    }
    one[0] = std::move(curve);
    const std::string jsonl = adversary::RenderHarmCurvesJsonl(one);
    harm.Bytes(jsonl.data(), jsonl.size());
  }
  d.harm_curves = harm.Value();
  return "";
}

}  // namespace

RepResult RunRep(const Workload& workload, const RunConfig& config,
                 const Seeds& seeds, const RepOptions& options) {
  RepResult out;
  RepState s;
  s.dir = options.work_dir + "/campaign";
  const bool campaign = workload.kind == WorkloadKind::kCampaign;

  if (options.traced) {
    obs::ProfReset();
    obs::SetProfilingEnabled(true);
    obs::SetProfTraceEnabled(true);
  }
  SpanTable after_setup;
  SpanTable after_measure;
  // Peaks are phase-attributed: VmHWM restarts here and again before the
  // analysis phase, so scan_peak_mb and analysis_peak_mb separate.
  out.peak_reset_ok = ResetPeakRss();
  std::optional<obs::ProfScope> root(std::in_place, kRep);
  const double rep_start = WallSeconds();

  out.error = Setup(workload, config, seeds, s);
  out.setup_s = WallSeconds() - rep_start;
  if (options.traced) after_setup = Tabulate(obs::ProfSnapshotNow());

  if (out.error.empty()) {
    s.measure_start = WallSeconds();
    const double cpu_start = ProcessCpuSeconds();
    out.error = Measure(workload, config, seeds, s);
    out.cpu_s = ProcessCpuSeconds() - cpu_start;
    out.measure_s = WallSeconds() - s.measure_start;
  }
  if (campaign) s.scan = std::move(s.campaign.scan);
  for (const scanner::DayLoss& day : s.scan.loss) {
    out.scheduled += day.scheduled;
    out.recovered += day.recovered;
    out.lost += day.lost;
  }
  out.probes = workload.kind == WorkloadKind::kLifetime
                   ? LifetimeProbes(s.id_sweep) + LifetimeProbes(s.ticket_sweep)
                   : out.scheduled;
  s.fleet = s.net->Fleet();
  {
    obs::ProfScope span(kFleetSweep);
    obs::CollectFleetMetrics(*s.net, scanner::ScanDayStart(config.days),
                             s.fleet_sweep);
  }
  out.scan_peak_mb = PeakRssMb();
  if (options.traced) after_measure = Tabulate(obs::ProfSnapshotNow());

  if (out.error.empty() && campaign) {
    out.peak_reset_ok = ResetPeakRss() && out.peak_reset_ok;
    const double analysis_start = WallSeconds();
    out.error = Analyze(config, s);
    out.analysis_s = WallSeconds() - analysis_start;
    out.analysis_peak_mb = PeakRssMb();
  }
  root.reset();
  out.wall_s = WallSeconds() - rep_start;

  if (options.traced) {
    const obs::ProfSnapshot snap = obs::ProfSnapshotNow();
    obs::SetProfilingEnabled(false);
    obs::SetProfTraceEnabled(false);
    std::string trace_error;
    if (!options.trace_path.empty() &&
        !obs::ProfWriteChromeTrace(options.trace_path, &trace_error)) {
      std::fprintf(stderr, "tlsbench: chrome trace not written: %s\n",
                   trace_error.c_str());
    }
    FillLayers(config, workload.kind == WorkloadKind::kLifetime, s, snap,
               after_setup, after_measure, out);
    obs::ProfReset();
  }
  if (out.error.empty()) out.error = CheckAndDigest(workload.kind, s, out.digests);

  std::error_code ec;
  std::filesystem::remove_all(s.dir, ec);
  return out;
}

}  // namespace tlsbench
