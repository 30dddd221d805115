// tlsharm-harm: record-now-decrypt-later harm curves from a capture tape.
//
//   tlsharm-harm curve <dir> [world_seed]
//       Opens the capture tape at <dir> (or <dir>/capture for a campaign
//       directory), folds it through the adversary replay engine against
//       the world metadata (TLSHARM_POPULATION + world_seed, default
//       20160302 — must match the recording run), and prints the canonical
//       harm-curve JSONL to stdout: one line per (profile, vector,
//       compromise time T) with decryptable connections/bytes/domains and
//       the survivor taxonomy.
//
//   tlsharm-harm explain <domain> <day> <dir> [world_seed]
//       Evidence view for one domain-day: every archived connection of
//       that day replayed against ground-truth TakeSnapshot secrets (STEK
//       and DH at the day's main-pass instant) plus the session-cache
//       liveness window, with the per-vector verdict for each record.
//
//   tlsharm-harm --selftest
//       The adversary determinism gate (scripts/check.sh runs this):
//       capture records and harm-curve JSONL must be byte-identical at 1,
//       2 and 8 threads AND identical whether curves are computed live
//       (CaptureBufferSink) or replayed from a round-tripped columnar
//       tape; every curve point's survivors must account for every
//       connection; the archive sweep must agree exactly with a
//       ground-truth snapshot replay at the end-of-study compromise time
//       for a fleet-shared interval-rotation STEK profile and a
//       fleet-shared (EC)DHE-reuse profile; the session-cache sweep must
//       match an independent brute-force recount; and the curves must be
//       consistent with the scan-side vulnerability-window estimate
//       (analysis/spans) for both profiles. Exits non-zero on any
//       violation.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/compromise.h"
#include "adversary/replay.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"
#include "warehouse/capture.h"

using namespace tlsharm;

namespace {

constexpr std::size_t kPopulation = 900;
constexpr int kDays = 6;
constexpr std::uint64_t kWorldSeed = 4242;
constexpr std::uint64_t kScanSeed = 777;
constexpr std::uint64_t kDefaultToolSeed = 20160302;  // bench/common.h

std::unique_ptr<simnet::Internet> BuildSelftestWorld() {
  return std::make_unique<simnet::Internet>(
      simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
}

struct ScanRun {
  scanner::DailyScanResult result;
  attack::CaptureBufferSink captures;
};

void RunCaptureScan(int threads, ScanRun& out) {
  const auto net = BuildSelftestWorld();
  scanner::ScanEngineOptions options;
  options.threads = threads;
  options.capture = &out.captures;
  out.result = scanner::RunShardedDailyScans(*net, kDays, kScanSeed, options);
}

void FoldBuffer(adversary::HarmEngine& engine,
                const attack::CaptureBufferSink& sink) {
  for (std::size_t i = 0; i < sink.Records().size(); ++i) {
    engine.Ingest(sink.Days()[i], sink.Records()[i]);
  }
  engine.Seal();
}

const adversary::HarmPoint* PointAt(
    const std::vector<adversary::HarmCurve>& curves,
    const std::string& profile, adversary::CompromiseVector vector,
    SimTime t) {
  for (const adversary::HarmCurve& curve : curves) {
    if (curve.profile != profile || curve.vector != vector) continue;
    for (const adversary::HarmPoint& point : curve.points) {
      if (point.t == t) return &point;
    }
  }
  return nullptr;
}

// Endpoints serving each operator's domains.
std::map<std::string, std::set<simnet::TerminatorId>> FleetsOf(
    const simnet::Internet& net) {
  std::map<std::string, std::set<simnet::TerminatorId>> fleets;
  for (std::size_t d = 0; d < net.DomainCount(); ++d) {
    const simnet::DomainInfo& info =
        net.GetDomain(static_cast<simnet::DomainId>(d));
    fleets[info.operator_name].insert(info.endpoints.begin(),
                                      info.endpoints.end());
  }
  return fleets;
}

const std::string& OperatorOf(const simnet::Internet& net,
                              std::uint32_t domain) {
  // The interned accessor: GetDomain returns a materialized value, so a
  // reference into it would dangle.
  return net.DomainOperator(static_cast<simnet::DomainId>(domain));
}

// The biggest profile whose whole fleet shares ONE interval-rotated STEK
// manager and that has a valid ticketed capture at `t` — the conditions
// under which the archive sweep must equal a ground-truth snapshot replay
// exactly. "Biggest" (most endpoints, ties by name) so a real fleet
// operator is preferred over a single-box domain.
std::string PickStekProfile(simnet::Internet& net,
                            const std::vector<attack::CaptureRecord>& records,
                            SimTime t) {
  std::string best;
  std::size_t best_size = 0;
  for (const auto& [name, endpoints] : FleetsOf(net)) {
    if (endpoints.size() <= best_size) continue;
    bool eligible = !endpoints.empty();
    const void* shared = nullptr;
    for (const simnet::TerminatorId e : endpoints) {
      const server::ServerConfig& config = net.TerminatorConfigOf(e);
      if (!config.tickets.enabled ||
          config.stek.rotation != server::StekRotation::kInterval) {
        eligible = false;
        break;
      }
      const void* manager = &net.SteksOf(e);
      if (shared == nullptr) shared = manager;
      if (manager != shared) eligible = false;
    }
    if (!eligible) continue;
    for (const attack::CaptureRecord& rec : records) {
      if (rec.time == t && rec.valid && !rec.ticket.empty() &&
          OperatorOf(net, rec.domain) == name) {
        best = name;
        best_size = endpoints.size();
        break;
      }
    }
  }
  return best;
}

// Same idea for the DH vector: one shared KEX cache, every endpoint
// reusing its ECDHE value, and a valid captured KEX at `t`.
std::string PickDhProfile(simnet::Internet& net,
                          const std::vector<attack::CaptureRecord>& records,
                          SimTime t, SimTime* reuse_ttl) {
  std::string best;
  std::size_t best_size = 0;
  for (const auto& [name, endpoints] : FleetsOf(net)) {
    if (endpoints.size() <= best_size) continue;
    bool eligible = !endpoints.empty();
    const void* shared = nullptr;
    SimTime ttl = 0;
    for (const simnet::TerminatorId e : endpoints) {
      const server::ServerConfig& config = net.TerminatorConfigOf(e);
      if (!config.ecdhe_reuse.reuse) {
        eligible = false;
        break;
      }
      ttl = config.ecdhe_reuse.ttl;
      const void* cache = &net.KexOf(e);
      if (shared == nullptr) shared = cache;
      if (cache != shared) eligible = false;
    }
    if (!eligible) continue;
    for (const attack::CaptureRecord& rec : records) {
      if (rec.time == t && rec.valid && !rec.server_kex.empty() &&
          OperatorOf(net, rec.domain) == name) {
        best = name;
        best_size = endpoints.size();
        *reuse_ttl = ttl;
        break;
      }
    }
  }
  return best;
}

// Ground truth: steal the profile's secret at spec.at and replay every one
// of its archived connections through the real decryptors.
std::uint64_t SnapshotDecryptCount(
    simnet::Internet& net, const adversary::CompromiseSpec& spec,
    const std::vector<attack::CaptureRecord>& records) {
  const adversary::CompromisedSecrets secrets =
      adversary::TakeSnapshot(net, spec);
  std::uint64_t count = 0;
  for (const attack::CaptureRecord& rec : records) {
    if (OperatorOf(net, rec.domain) != spec.profile) continue;
    if (adversary::ReplaySnapshot(secrets, rec).ok) ++count;
  }
  return count;
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

std::uint64_t BruteCacheCount(simnet::Internet& net,
                              const std::vector<attack::CaptureRecord>& records,
                              const std::string& profile, SimTime t) {
  std::uint64_t count = 0;
  for (const attack::CaptureRecord& rec : records) {
    if (OperatorOf(net, rec.domain) != profile) continue;
    SimTime end = 0;
    if (!CacheWindow(net, rec, &end)) continue;
    if (rec.time <= t && t < end) ++count;
  }
  return count;
}

int MaxSpanOf(const analysis::SpanTracker& spans, const simnet::Internet& net,
              const std::string& profile) {
  int best = 0;
  for (std::size_t d = 0; d < net.DomainCount(); ++d) {
    if (net.GetDomain(static_cast<simnet::DomainId>(d)).operator_name !=
        profile) {
      continue;
    }
    best = std::max(best,
                    spans.MaxSpanDays(static_cast<scanner::DomainIndex>(d)));
  }
  return best;
}

// Decryptable-age span of a curve point, in whole study days.
int PointSpanDays(const adversary::HarmPoint& point) {
  if (point.oldest_decrypted < 0) return 0;
  return static_cast<int>(point.t / kDay - point.oldest_decrypted / kDay) + 1;
}

int SelfTest() {
  std::printf("== tlsharm-harm --selftest: adversary determinism gate ==\n");
  ScanRun base;
  RunCaptureScan(1, base);
  if (base.captures.Records().empty()) {
    std::printf("FAIL: capture-recording scan produced no records\n");
    return 1;
  }
  const auto meta_net = BuildSelftestWorld();
  adversary::HarmEngine engine(*meta_net);
  FoldBuffer(engine, base.captures);
  const std::vector<adversary::HarmCurve> curves = engine.Sweep();
  const std::string jsonl = adversary::RenderHarmCurvesJsonl(curves);
  if (jsonl.empty()) {
    std::printf("FAIL: empty harm-curve JSONL\n");
    return 1;
  }
  std::printf("  archive: %llu records, %zu candidate times, %zu profiles, "
              "%zu JSONL bytes\n",
              static_cast<unsigned long long>(engine.RowCount()),
              engine.CandidateTimes().size(), engine.Profiles().size(),
              jsonl.size());

  for (const int threads : {2, 8}) {
    ScanRun other;
    RunCaptureScan(threads, other);
    if (other.captures.Records() != base.captures.Records() ||
        other.captures.Days() != base.captures.Days()) {
      std::printf("FAIL: capture records differ at %d threads\n", threads);
      return 1;
    }
    const auto net = BuildSelftestWorld();
    adversary::HarmEngine other_engine(*net);
    FoldBuffer(other_engine, other.captures);
    if (adversary::RenderHarmCurvesJsonl(other_engine.Sweep()) != jsonl) {
      std::printf("FAIL: harm curves differ at %d threads\n", threads);
      return 1;
    }
    std::printf("  %d threads: records and curves byte-identical\n", threads);
  }

  // Every point must account for every connection: decryptable + survivors
  // partition the archive, and times must ascend.
  for (const adversary::HarmCurve& curve : curves) {
    if (curve.points.size() != engine.CandidateTimes().size()) {
      std::printf("FAIL: %s/%s has %zu points for %zu candidate times\n",
                  curve.profile.c_str(), adversary::ToString(curve.vector),
                  curve.points.size(), engine.CandidateTimes().size());
      return 1;
    }
    SimTime prev = std::numeric_limits<SimTime>::min();
    for (const adversary::HarmPoint& point : curve.points) {
      if (point.t <= prev) {
        std::printf("FAIL: %s/%s points not strictly ascending\n",
                    curve.profile.c_str(), adversary::ToString(curve.vector));
        return 1;
      }
      prev = point.t;
      std::uint64_t accounted = point.decryptable;
      for (const std::uint64_t n : point.survivors) accounted += n;
      if (accounted != point.connections) {
        std::printf("FAIL: %s/%s at t=%lld accounts for %llu of %llu "
                    "connections\n",
                    curve.profile.c_str(), adversary::ToString(curve.vector),
                    static_cast<long long>(point.t),
                    static_cast<unsigned long long>(accounted),
                    static_cast<unsigned long long>(point.connections));
        return 1;
      }
    }
  }
  std::printf("  survivor taxonomy partitions every curve point\n");

  // Live-vs-replayed identity: round-trip the archive through the columnar
  // tape and recompute — records and curves must not change by a byte.
  namespace fs = std::filesystem;
  const fs::path tape_dir =
      fs::temp_directory_path() / "tlsharm-harm-selftest-tape";
  std::error_code ec;
  fs::remove_all(tape_dir, ec);
  std::string error;
  auto writer = warehouse::CaptureTapeWriter::Create(tape_dir.string(), &error);
  if (writer == nullptr) {
    std::printf("FAIL: %s\n", error.c_str());
    return 1;
  }
  int current_day = -1;
  for (std::size_t i = 0; i < base.captures.Records().size(); ++i) {
    const int day = base.captures.Days()[i];
    if (current_day >= 0 && day != current_day) writer->EndDay(current_day);
    writer->Append(day, base.captures.Records()[i]);
    current_day = day;
  }
  if (current_day >= 0) writer->EndDay(current_day);
  writer->Finish();
  if (!writer->ok()) {
    std::printf("FAIL: tape write: %s\n", writer->error().c_str());
    return 1;
  }
  const auto tape = warehouse::CaptureTape::Open(tape_dir.string(), &error);
  if (!tape.has_value()) {
    std::printf("FAIL: tape open: %s\n", error.c_str());
    return 1;
  }
  attack::CaptureBufferSink replayed;
  if (!tape->ForEachCapture(
          0, kDays - 1,
          [&replayed](int day, const attack::CaptureRecord& rec) {
            replayed.Append(day, rec);
          },
          &error)) {
    std::printf("FAIL: tape read: %s\n", error.c_str());
    return 1;
  }
  if (replayed.Records() != base.captures.Records() ||
      replayed.Days() != base.captures.Days()) {
    std::printf("FAIL: tape round-trip changed the records\n");
    return 1;
  }
  {
    const auto net = BuildSelftestWorld();
    adversary::HarmEngine replay_engine(*net);
    FoldBuffer(replay_engine, replayed);
    if (adversary::RenderHarmCurvesJsonl(replay_engine.Sweep()) != jsonl) {
      std::printf("FAIL: curves from the replayed tape differ from live\n");
      return 1;
    }
  }
  fs::remove_all(tape_dir, ec);
  std::printf("  live vs tape-replayed: records and curves identical "
              "(%llu rows, %llu tape bytes)\n",
              static_cast<unsigned long long>(writer->RowsWritten()),
              static_cast<unsigned long long>(writer->BytesWritten()));

  // Ground-truth cross-check at the end-of-study compromise time: for a
  // fleet-shared secret captured at T, the archive sweep must equal a
  // TakeSnapshot + ReplaySnapshot pass exactly.
  const SimTime t_end = scanner::ScanDayStart(kDays - 1);
  const std::string stek_profile =
      PickStekProfile(*meta_net, base.captures.Records(), t_end);
  if (stek_profile.empty()) {
    std::printf("FAIL: no shared interval-rotation STEK profile in the "
                "archive\n");
    return 1;
  }
  const std::uint64_t stek_truth = SnapshotDecryptCount(
      *meta_net,
      {adversary::CompromiseVector::kStek, stek_profile, t_end},
      base.captures.Records());
  const adversary::HarmPoint* stek_point = PointAt(
      curves, stek_profile, adversary::CompromiseVector::kStek, t_end);
  if (stek_point == nullptr || stek_point->decryptable != stek_truth ||
      stek_truth == 0) {
    std::printf("FAIL: stek sweep for %s at t=%lld says %llu decryptable, "
                "snapshot replay says %llu\n",
                stek_profile.c_str(), static_cast<long long>(t_end),
                static_cast<unsigned long long>(
                    stek_point == nullptr ? 0 : stek_point->decryptable),
                static_cast<unsigned long long>(stek_truth));
    return 1;
  }
  using attack::DecryptFailureClass;
  if (stek_point->survivors[static_cast<int>(
          DecryptFailureClass::kWrongStek)] == 0) {
    std::printf("FAIL: interval rotation left no wrong_stek survivors for "
                "%s\n", stek_profile.c_str());
    return 1;
  }
  std::printf("  stek %s: sweep == snapshot replay at end of study "
              "(%llu decryptable, wrong_stek survivors present)\n",
              stek_profile.c_str(),
              static_cast<unsigned long long>(stek_truth));

  SimTime dh_ttl = 0;
  const std::string dh_profile =
      PickDhProfile(*meta_net, base.captures.Records(), t_end, &dh_ttl);
  if (dh_profile.empty()) {
    std::printf("FAIL: no shared ECDHE-reuse profile in the archive\n");
    return 1;
  }
  const std::uint64_t dh_truth = SnapshotDecryptCount(
      *meta_net, {adversary::CompromiseVector::kDh, dh_profile, t_end},
      base.captures.Records());
  const adversary::HarmPoint* dh_point =
      PointAt(curves, dh_profile, adversary::CompromiseVector::kDh, t_end);
  if (dh_point == nullptr || dh_point->decryptable != dh_truth ||
      dh_truth == 0) {
    std::printf("FAIL: dh sweep for %s at t=%lld says %llu decryptable, "
                "snapshot replay says %llu\n",
                dh_profile.c_str(), static_cast<long long>(t_end),
                static_cast<unsigned long long>(
                    dh_point == nullptr ? 0 : dh_point->decryptable),
                static_cast<unsigned long long>(dh_truth));
    return 1;
  }
  if (dh_ttl > 0 && dh_ttl < (kDays - 1) * kDay &&
      dh_point->survivors[static_cast<int>(
          DecryptFailureClass::kKexMismatch)] == 0) {
    std::printf("FAIL: %s regenerates its KEX value every %lld s but the "
                "curve shows no kex_mismatch survivors\n",
                dh_profile.c_str(), static_cast<long long>(dh_ttl));
    return 1;
  }
  std::printf("  dh %s: sweep == snapshot replay at end of study "
              "(%llu decryptable)\n",
              dh_profile.c_str(), static_cast<unsigned long long>(dh_truth));

  // Vulnerability-window consistency (the acceptance cross-check): the
  // decryptable-age span of the harm curve must agree with the scan-side
  // secret-lifetime estimate within a day of granularity slack.
  const int stek_obs = MaxSpanOf(base.result.stek_spans, *meta_net,
                                 stek_profile);
  const int stek_curve_span = PointSpanDays(*stek_point);
  if (stek_curve_span < 1 || stek_curve_span > stek_obs + 1) {
    std::printf("FAIL: stek %s curve span %d days vs scan window estimate "
                "%d days\n",
                stek_profile.c_str(), stek_curve_span, stek_obs);
    return 1;
  }
  const int dh_obs = MaxSpanOf(base.result.ecdhe_spans, *meta_net,
                               dh_profile);
  const int dh_curve_span = PointSpanDays(*dh_point);
  if (dh_curve_span < 1 || dh_curve_span > dh_obs + 1) {
    std::printf("FAIL: dh %s curve span %d days vs scan window estimate "
                "%d days\n",
                dh_profile.c_str(), dh_curve_span, dh_obs);
    return 1;
  }
  std::printf("  vuln-window consistency: stek %d days (scan estimate %d), "
              "ecdhe %d days (scan estimate %d)\n",
              stek_curve_span, stek_obs, dh_curve_span, dh_obs);

  // The session-cache sweep against an independent brute-force recount at
  // three sampled compromise times, for every profile.
  const std::vector<SimTime>& times = engine.CandidateTimes();
  const SimTime samples[] = {times.front(), times[times.size() / 2],
                             times.back()};
  std::uint64_t cache_total = 0;
  for (const std::string& profile : engine.Profiles()) {
    for (const SimTime t : samples) {
      const std::uint64_t brute = BruteCacheCount(
          *meta_net, base.captures.Records(), profile, t);
      const adversary::HarmPoint* point = PointAt(
          curves, profile, adversary::CompromiseVector::kSessionCache, t);
      if (point == nullptr || point->decryptable != brute) {
        std::printf("FAIL: cache sweep for %s at t=%lld says %llu, "
                    "brute-force recount says %llu\n",
                    profile.c_str(), static_cast<long long>(t),
                    static_cast<unsigned long long>(
                        point == nullptr ? 0 : point->decryptable),
                    static_cast<unsigned long long>(brute));
        return 1;
      }
      cache_total += brute;
    }
  }
  if (cache_total == 0) {
    std::printf("FAIL: session-cache curves are identically zero\n");
    return 1;
  }
  std::printf("  session-cache sweep matches brute-force recount "
              "(%llu live entries across sampled times)\n",
              static_cast<unsigned long long>(cache_total));

  std::printf("selftest PASSED\n");
  return 0;
}

// --- tooling modes ----------------------------------------------------------

// Resolves <dir> to the tape directory (campaign dirs keep it under
// capture/) and streams it into a fresh engine. Returns nullptr on error.
std::optional<warehouse::CaptureTape> OpenTapeArg(const std::string& dir_arg,
                                                  std::string* error) {
  namespace fs = std::filesystem;
  std::string dir = dir_arg;
  if (fs::exists(fs::path(dir_arg) / "capture" / "MANIFEST")) {
    dir = (fs::path(dir_arg) / "capture").string();
  }
  return warehouse::CaptureTape::Open(dir, error);
}

bool FoldTape(const warehouse::CaptureTape& tape, simnet::Internet& net,
              adversary::HarmEngine& engine, std::string* error) {
  const std::size_t domains = net.DomainCount();
  const std::size_t terminators = net.TerminatorCount();
  bool world_mismatch = false;
  if (!tape.ForEachCapture(
          0, std::numeric_limits<int>::max() / 2,
          [&](int day, const attack::CaptureRecord& rec) {
            if (rec.domain >= domains || rec.endpoint >= terminators) {
              world_mismatch = true;
              return;
            }
            if (!world_mismatch) engine.Ingest(day, rec);
          },
          error)) {
    return false;
  }
  if (world_mismatch) {
    *error = "tape references domains/endpoints outside this world — "
             "TLSHARM_POPULATION and the world seed must match the "
             "recording run";
    return false;
  }
  engine.Seal();
  return true;
}

int RunCurve(const std::string& dir_arg, std::uint64_t world_seed) {
  std::string error;
  const auto tape = OpenTapeArg(dir_arg, &error);
  if (!tape.has_value()) {
    std::fprintf(stderr, "tlsharm-harm: %s\n", error.c_str());
    return 1;
  }
  simnet::Internet net(
      simnet::PaperPopulationSpec(simnet::DefaultPopulationSize()),
      world_seed);
  adversary::HarmEngine engine(net);
  if (!FoldTape(*tape, net, engine, &error)) {
    std::fprintf(stderr, "tlsharm-harm: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "tlsharm-harm: %llu records, %zu candidate times, %zu "
               "profiles\n",
               static_cast<unsigned long long>(engine.RowCount()),
               engine.CandidateTimes().size(), engine.Profiles().size());
  const std::string jsonl =
      adversary::RenderHarmCurvesJsonl(engine.Sweep());
  std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
  return 0;
}

const char* VerdictOf(const adversary::ReplayOutcome& outcome) {
  return outcome.ok ? "DECRYPTABLE" : attack::ToString(outcome.failure);
}

int RunExplain(const std::string& domain_name, int day,
               const std::string& dir_arg, std::uint64_t world_seed) {
  std::string error;
  const auto tape = OpenTapeArg(dir_arg, &error);
  if (!tape.has_value()) {
    std::fprintf(stderr, "tlsharm-harm: %s\n", error.c_str());
    return 1;
  }
  simnet::Internet net(
      simnet::PaperPopulationSpec(simnet::DefaultPopulationSize()),
      world_seed);
  const std::optional<simnet::DomainId> id = net.FindDomain(domain_name);
  if (!id.has_value()) {
    std::fprintf(stderr, "tlsharm-harm: unknown domain %s\n",
                 domain_name.c_str());
    return 1;
  }
  std::vector<attack::CaptureRecord> records;
  if (!tape->ForEachCapture(
          day, day,
          [&](int, const attack::CaptureRecord& rec) {
            if (rec.domain == *id) records.push_back(rec);
          },
          &error)) {
    std::fprintf(stderr, "tlsharm-harm: %s\n", error.c_str());
    return 1;
  }
  const std::string& profile = net.GetDomain(*id).operator_name;
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

int Usage() {
  std::fprintf(stderr,
               "usage: tlsharm-harm curve <dir> [world_seed]\n"
               "       tlsharm-harm explain <domain> <day> <dir> "
               "[world_seed]\n"
               "       tlsharm-harm --selftest\n"
               "<dir> is a capture tape or a campaign directory recorded "
               "with capture taping on;\nTLSHARM_POPULATION and world_seed "
               "(default %llu) must match the recording run.\n",
               static_cast<unsigned long long>(kDefaultToolSeed));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest();
  }
  if (argc >= 3 && std::strcmp(argv[1], "curve") == 0) {
    const std::uint64_t seed =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : kDefaultToolSeed;
    return RunCurve(argv[2], seed);
  }
  if (argc >= 5 && std::strcmp(argv[1], "explain") == 0) {
    const std::uint64_t seed =
        argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : kDefaultToolSeed;
    return RunExplain(argv[2], std::atoi(argv[3]), argv[4], seed);
  }
  return Usage();
}
