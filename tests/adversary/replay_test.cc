// The harm-curve sweep: partition invariants, canonical JSONL at any scan
// thread count, segment round-trip identity, an independent brute-force
// recount of the cache sweep, the end-of-study snapshot cross-checks for
// the STEK and DH vectors, and the curves' consistency with the scan-side
// secret-span estimate.
#include "adversary/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/compromise.h"
#include "obs/json.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"
#include "warehouse/capture.h"

namespace tlsharm::adversary {
namespace {

// Four days, not three: the shortest fleet-shared ECDHE reuse TTL in this
// world is edgecast's two days, and ShortReuseTtlLeavesKexMismatchSurvivors
// needs a TTL strictly shorter than the first-to-last scan distance.
constexpr std::size_t kPopulation = 150;
constexpr int kDays = 4;
constexpr std::uint64_t kWorldSeed = 91;
constexpr std::uint64_t kScanSeed = 17;

struct SweepFixture {
  std::unique_ptr<simnet::Internet> net;
  attack::CaptureBufferSink captures;
  scanner::DailyScanResult result;
  std::unique_ptr<HarmEngine> engine;
  std::vector<HarmCurve> curves;

  explicit SweepFixture(int threads) {
    net = std::make_unique<simnet::Internet>(
        simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
    scanner::ScanEngineOptions options;
    options.threads = threads;
    options.capture = &captures;
    result = scanner::RunShardedDailyScans(*net, kDays, kScanSeed, options);
    engine = std::make_unique<HarmEngine>(*net);
    for (std::size_t i = 0; i < captures.Records().size(); ++i) {
      engine->Ingest(captures.Days()[i], captures.Records()[i]);
    }
    engine->Seal();
    curves = engine->Sweep();
  }
};

SweepFixture& Fixture() {
  static SweepFixture* fixture = new SweepFixture(2);
  return *fixture;
}

std::uint64_t SurvivorTotal(const HarmPoint& point) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : point.survivors) total += n;
  return total;
}

const std::string& OperatorOf(const simnet::Internet& net,
                              std::uint32_t domain) {
  return net.DomainOperator(static_cast<simnet::DomainId>(domain));
}

// The curve's point at compromise time `t`, by value: the curve may be a
// temporary.
std::optional<HarmPoint> PointAt(const HarmCurve& curve, SimTime t) {
  for (const HarmPoint& point : curve.points) {
    if (point.t == t) return point;
  }
  return std::nullopt;
}

// Ground truth: steal the profile's secret at spec.at and replay every one
// of its archived connections through the real decryptors.
std::uint64_t SnapshotDecryptCount(
    simnet::Internet& net, const CompromiseSpec& spec,
    const std::vector<attack::CaptureRecord>& records) {
  const CompromisedSecrets secrets = TakeSnapshot(net, spec);
  std::uint64_t count = 0;
  for (const attack::CaptureRecord& rec : records) {
    if (OperatorOf(net, rec.domain) == spec.profile &&
        ReplaySnapshot(secrets, rec).ok) {
      ++count;
    }
  }
  return count;
}

// Profiles whose whole fleet shares one secret store (`store_of` maps an
// endpoint to it), every endpoint passes `config_ok`, and some valid
// capture at `t` carries the secret (`carries`) — the conditions under
// which the archive sweep must equal a ground-truth snapshot replay at `t`
// exactly. Ordered biggest fleet first (ties by name), so a real fleet
// operator comes before a single-box domain.
std::vector<std::string> SharedSecretProfiles(
    SweepFixture& fx, SimTime t,
    const std::function<const void*(simnet::TerminatorId)>& store_of,
    const std::function<bool(const server::ServerConfig&)>& config_ok,
    const std::function<bool(const attack::CaptureRecord&)>& carries) {
  std::map<std::string, std::set<simnet::TerminatorId>> fleets;
  for (std::size_t d = 0; d < fx.net->DomainCount(); ++d) {
    const simnet::DomainInfo& info =
        fx.net->GetDomain(static_cast<simnet::DomainId>(d));
    fleets[info.operator_name].insert(info.endpoints.begin(),
                                      info.endpoints.end());
  }
  std::set<std::string> captured_at_t;
  for (const attack::CaptureRecord& rec : fx.captures.Records()) {
    if (rec.time == t && rec.valid && carries(rec)) {
      captured_at_t.insert(OperatorOf(*fx.net, rec.domain));
    }
  }
  std::vector<std::pair<std::size_t, std::string>> eligible;
  for (const auto& [name, endpoints] : fleets) {
    if (endpoints.empty() || captured_at_t.count(name) == 0) continue;
    std::set<const void*> stores;
    bool configs_ok = true;
    for (const simnet::TerminatorId e : endpoints) {
      configs_ok = configs_ok && config_ok(fx.net->TerminatorConfigOf(e));
      stores.insert(store_of(e));
    }
    if (configs_ok && stores.size() == 1) {
      eligible.emplace_back(endpoints.size(), name);
    }
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  std::vector<std::string> names;
  for (const auto& [size, name] : eligible) names.push_back(name);
  return names;
}

std::vector<std::string> SharedStekProfiles(
    SweepFixture& fx, SimTime t,
    const std::function<bool(const server::ServerConfig&)>& config_ok) {
  return SharedSecretProfiles(
      fx, t,
      [&fx](simnet::TerminatorId e) -> const void* {
        return &fx.net->SteksOf(e);
      },
      config_ok,
      [](const attack::CaptureRecord& rec) { return !rec.ticket.empty(); });
}

std::vector<std::string> SharedKexProfiles(SweepFixture& fx, SimTime t) {
  return SharedSecretProfiles(
      fx, t,
      [&fx](simnet::TerminatorId e) -> const void* {
        return &fx.net->KexOf(e);
      },
      [](const server::ServerConfig& config) {
        return config.ecdhe_reuse.reuse;
      },
      [](const attack::CaptureRecord& rec) {
        return !rec.server_kex.empty();
      });
}

// The scan's secret-lifetime estimate for a profile: its domains' longest
// observed span, in days.
int MaxSpanOf(const analysis::SpanTracker& spans, const simnet::Internet& net,
              const std::string& profile) {
  int best = 0;
  for (std::size_t d = 0; d < net.DomainCount(); ++d) {
    if (OperatorOf(net, static_cast<std::uint32_t>(d)) != profile) continue;
    best = std::max(best,
                    spans.MaxSpanDays(static_cast<scanner::DomainIndex>(d)));
  }
  return best;
}

// Decryptable-age span of a curve point, in whole study days.
int PointSpanDays(const HarmPoint& point) {
  if (point.oldest_decrypted < 0) return 0;
  return static_cast<int>(point.t / kDay - point.oldest_decrypted / kDay) + 1;
}

TEST(HarmEngineTest, EveryPointPartitionsTheArchive) {
  SweepFixture& fx = Fixture();
  ASSERT_FALSE(fx.curves.empty());
  ASSERT_GT(fx.engine->RowCount(), 0u);
  for (const HarmCurve& curve : fx.curves) {
    ASSERT_EQ(curve.points.size(), fx.engine->CandidateTimes().size());
    SimTime prev = -1;
    for (const HarmPoint& point : curve.points) {
      EXPECT_GT(point.t, prev);
      prev = point.t;
      EXPECT_EQ(point.decryptable + SurvivorTotal(point), point.connections)
          << curve.profile << "/" << ToString(curve.vector);
      EXPECT_LE(point.decryptable_bytes, point.wire_bytes);
      EXPECT_LE(point.decryptable_domains, point.decryptable);
      EXPECT_EQ(point.survivors[0], 0u) << "kNone slot must stay empty";
      if (point.decryptable == 0) {
        EXPECT_EQ(point.oldest_decrypted, -1);
      } else {
        EXPECT_GE(point.oldest_decrypted, 0);
        EXPECT_LE(point.oldest_decrypted, point.t + kDay * kDays);
      }
    }
  }
}

TEST(HarmEngineTest, JsonlIsThreadCountIndependent) {
  const std::string jsonl = RenderHarmCurvesJsonl(Fixture().curves);
  ASSERT_FALSE(jsonl.empty());
  for (const int threads : {1, 8}) {
    const SweepFixture other(threads);
    EXPECT_EQ(other.captures.Records(), Fixture().captures.Records())
        << threads << " threads";
    EXPECT_EQ(other.captures.Days(), Fixture().captures.Days());
    EXPECT_EQ(RenderHarmCurvesJsonl(other.curves), jsonl)
        << "harm curves diverged at " << threads << " threads";
  }
}

TEST(HarmEngineTest, CurvesCoverEveryProfileAndVectorInOrder) {
  SweepFixture& fx = Fixture();
  const std::vector<std::string> profiles = fx.engine->Profiles();
  ASSERT_EQ(fx.curves.size(), profiles.size() * kCompromiseVectorCount);
  std::size_t i = 0;
  for (const std::string& profile : profiles) {
    for (int v = 0; v < kCompromiseVectorCount; ++v, ++i) {
      EXPECT_EQ(fx.curves[i].profile, profile);
      EXPECT_EQ(static_cast<int>(fx.curves[i].vector), v);
    }
  }
  EXPECT_TRUE(std::is_sorted(profiles.begin(), profiles.end()));
}

TEST(HarmEngineTest, JsonlIsCanonicalIntegerOnlyAndParses) {
  SweepFixture& fx = Fixture();
  const std::string jsonl = RenderHarmCurvesJsonl(fx.curves);
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t count = 0;
  std::size_t curve_index = 0;
  std::size_t point_index = 0;
  while (std::getline(lines, line)) {
    ++count;
    obs::JsonValue value;
    ASSERT_TRUE(obs::ParseJson(line, value)) << line;
    const HarmCurve& curve = fx.curves[curve_index];
    const HarmPoint& point = curve.points[point_index];
    ASSERT_NE(value.Find("profile"), nullptr);
    EXPECT_EQ(value.Find("profile")->string, curve.profile);
    EXPECT_EQ(value.Find("vector")->string, ToString(curve.vector));
    EXPECT_EQ(value.Find("t")->integer, point.t);
    EXPECT_EQ(value.Find("connections")->integer,
              static_cast<std::int64_t>(point.connections));
    EXPECT_EQ(value.Find("decryptable")->integer,
              static_cast<std::int64_t>(point.decryptable));
    const obs::JsonValue* ppm = value.Find("decryptable_ppm");
    ASSERT_NE(ppm, nullptr);
    if (point.connections > 0) {
      EXPECT_EQ(ppm->integer,
                static_cast<std::int64_t>(point.decryptable * 1000000 /
                                          point.connections));
    }
    const obs::JsonValue* survivors = value.Find("survivors");
    ASSERT_NE(survivors, nullptr);
    std::uint64_t rendered = 0;
    for (const auto& [name, n] : survivors->object) {
      EXPECT_NE(name, "none");
      rendered += static_cast<std::uint64_t>(n.integer);
      EXPECT_GT(n.integer, 0) << "zero classes must be omitted";
    }
    EXPECT_EQ(rendered, SurvivorTotal(point));
    if (++point_index == curve.points.size()) {
      point_index = 0;
      ++curve_index;
    }
  }
  EXPECT_EQ(curve_index, fx.curves.size());
  std::size_t expected = 0;
  for (const HarmCurve& curve : fx.curves) expected += curve.points.size();
  EXPECT_EQ(count, expected);
  EXPECT_EQ(RenderHarmCurvesJsonl({}), "");
}

TEST(HarmEngineTest, UnknownProfileYieldsEmptyCurve) {
  SweepFixture& fx = Fixture();
  const HarmCurve curve = fx.engine->SweepProfileVector(
      "no-such-operator", CompromiseVector::kDh);
  EXPECT_EQ(curve.profile, "no-such-operator");
  EXPECT_EQ(curve.vector, CompromiseVector::kDh);
  EXPECT_TRUE(curve.points.empty());
}

TEST(HarmEngineTest, SegmentRoundTripFoldsToIdenticalCurves) {
  SweepFixture& fx = Fixture();
  // Re-encode the archive through the columnar capture codec day by day,
  // decode it back, and fold the decoded rows: byte-for-byte the same
  // curves as the live fold.
  std::map<int, std::vector<attack::CaptureRecord>> by_day;
  for (std::size_t i = 0; i < fx.captures.Records().size(); ++i) {
    by_day[fx.captures.Days()[i]].push_back(fx.captures.Records()[i]);
  }
  HarmEngine replayed(*fx.net);
  for (const auto& [day, rows] : by_day) {
    const Bytes segment = warehouse::EncodeCaptureSegment(day, rows);
    int decoded_day = -1;
    std::vector<attack::CaptureRecord> decoded;
    std::string error;
    ASSERT_TRUE(
        warehouse::DecodeCaptureSegment(segment, &decoded_day, &decoded,
                                        &error))
        << error;
    ASSERT_EQ(decoded_day, day);
    ASSERT_EQ(decoded, rows);
    for (const attack::CaptureRecord& rec : decoded) {
      replayed.Ingest(decoded_day, rec);
    }
  }
  replayed.Seal();
  EXPECT_EQ(replayed.Sweep(), fx.curves);
  EXPECT_EQ(RenderHarmCurvesJsonl(replayed.Sweep()),
            RenderHarmCurvesJsonl(fx.curves));
}

TEST(HarmEngineTest, CacheSweepMatchesBruteForceRecount) {
  SweepFixture& fx = Fixture();
  // Recompute every cache liveness window independently from world
  // metadata (lifetime + restart schedule) and recount at each sampled T
  // with a plain O(rows) pass per profile — the two-pointer sweep must
  // agree everywhere.
  struct Window {
    std::string profile;
    SimTime time = 0;
    SimTime end = 0;
  };
  std::vector<Window> windows;
  for (const attack::CaptureRecord& rec : fx.captures.Records()) {
    if (!rec.valid || rec.session_id.empty()) continue;
    const auto id = static_cast<simnet::TerminatorId>(rec.endpoint);
    const server::SessionCacheConfig& cache =
        fx.net->TerminatorConfigOf(id).session_cache;
    if (!cache.enabled || cache.issue_id_without_cache) continue;
    SimTime end = rec.time + cache.lifetime;
    const simnet::Internet::RestartSchedule restarts =
        fx.net->RestartScheduleOf(id);
    if (restarts.every > 0) {
      SimTime next = restarts.first;
      if (next <= rec.time) {
        next = restarts.first +
               ((rec.time - restarts.first) / restarts.every + 1) *
                   restarts.every;
      }
      end = std::min(end, next);
    }
    windows.push_back(
        {fx.net->GetDomain(static_cast<simnet::DomainId>(rec.domain))
             .operator_name,
         rec.time, end});
  }
  ASSERT_FALSE(windows.empty());

  const std::vector<SimTime>& times = fx.engine->CandidateTimes();
  const std::vector<SimTime> sampled = {times.front(),
                                        times[times.size() / 2],
                                        times.back()};
  std::uint64_t live_total = 0;
  for (const HarmCurve& curve : fx.curves) {
    if (curve.vector != CompromiseVector::kSessionCache) continue;
    for (const SimTime t : sampled) {
      const auto it = std::find_if(
          curve.points.begin(), curve.points.end(),
          [t](const HarmPoint& p) { return p.t == t; });
      ASSERT_NE(it, curve.points.end());
      std::uint64_t brute = 0;
      for (const Window& w : windows) {
        if (w.profile == curve.profile && w.time <= t && t < w.end) ++brute;
      }
      EXPECT_EQ(it->decryptable, brute)
          << curve.profile << " at t=" << t;
      live_total += brute;
    }
  }
  EXPECT_GT(live_total, 0u);
}

TEST(HarmEngineTest, StekSweepMatchesEndOfStudySnapshot) {
  SweepFixture& fx = Fixture();
  const SimTime t_end = scanner::ScanDayStart(kDays - 1);
  // The archive-derived sweep and a ground-truth TakeSnapshot +
  // ReplaySnapshot pass must agree exactly at the end of the study for
  // every fleet whose issuing key is observable at T: a single shared
  // STEK manager with a ticketed capture at exactly t_end. (A fleet whose
  // endpoint was last seen before an unobserved rotation legitimately
  // diverges — the adversary cannot know a key it never saw evidence of.)
  const std::vector<std::string> eligible = SharedStekProfiles(
      fx, t_end, [](const server::ServerConfig&) { return true; });
  ASSERT_FALSE(eligible.empty());
  std::size_t checked = 0;
  for (const std::string& profile : eligible) {
    const std::optional<HarmPoint> point = PointAt(
        fx.engine->SweepProfileVector(profile, CompromiseVector::kStek), t_end);
    ASSERT_TRUE(point.has_value()) << profile;
    const std::uint64_t truth =
        SnapshotDecryptCount(*fx.net, {CompromiseVector::kStek, profile, t_end},
                             fx.captures.Records());
    EXPECT_EQ(point->decryptable, truth) << profile;
    if (truth > 0) ++checked;
  }
  EXPECT_GT(checked, 0u) << "no profile decrypted anything at end of study";
}

TEST(HarmEngineTest, DhSweepMatchesEndOfStudySnapshot) {
  SweepFixture& fx = Fixture();
  const SimTime t_end = scanner::ScanDayStart(kDays - 1);
  // The mirror of the STEK check: for every fleet that shares one KEX
  // cache, reuses its ECDHE values and was captured at exactly t_end, the
  // sweep equals a TakeSnapshot + ReplaySnapshot pass.
  const std::vector<std::string> eligible = SharedKexProfiles(fx, t_end);
  ASSERT_FALSE(eligible.empty());
  std::size_t checked = 0;
  for (const std::string& profile : eligible) {
    const std::optional<HarmPoint> point = PointAt(
        fx.engine->SweepProfileVector(profile, CompromiseVector::kDh), t_end);
    ASSERT_TRUE(point.has_value()) << profile;
    const std::uint64_t truth = SnapshotDecryptCount(
        *fx.net, {CompromiseVector::kDh, profile, t_end},
        fx.captures.Records());
    EXPECT_EQ(point->decryptable, truth) << profile;
    if (truth > 0) ++checked;
  }
  EXPECT_GT(checked, 0u) << "no DH profile decrypted anything at end of study";
}

// Interval rotation retires keys during the study, so the biggest shared
// interval-rotation STEK fleet must show both sides at end of study:
// traffic a stolen key decrypts and traffic it cannot (wrong_stek). Its
// curve must also agree with the scan's STEK-span estimate to within a day.
TEST(HarmEngineTest, IntervalRotationLeavesWrongStekSurvivors) {
  SweepFixture& fx = Fixture();
  const SimTime t_end = scanner::ScanDayStart(kDays - 1);
  const std::vector<std::string> eligible = SharedStekProfiles(
      fx, t_end, [](const server::ServerConfig& config) {
        return config.tickets.enabled &&
               config.stek.rotation == server::StekRotation::kInterval;
      });
  ASSERT_FALSE(eligible.empty())
      << "no shared interval-rotation STEK fleet in the archive";
  const std::string& profile = eligible.front();
  const std::uint64_t truth =
      SnapshotDecryptCount(*fx.net, {CompromiseVector::kStek, profile, t_end},
                           fx.captures.Records());
  ASSERT_GT(truth, 0u) << profile;
  const std::optional<HarmPoint> point = PointAt(
      fx.engine->SweepProfileVector(profile, CompromiseVector::kStek), t_end);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->decryptable, truth) << profile;
  EXPECT_GT(point->survivors[static_cast<int>(
                attack::DecryptFailureClass::kWrongStek)],
            0u)
      << profile;
  const int span = PointSpanDays(*point);
  EXPECT_GE(span, 1) << profile;
  EXPECT_LE(span, MaxSpanOf(fx.result.stek_spans, *fx.net, profile) + 1)
      << profile;
}

// A fleet-shared ECDHE value regenerated more often than the study lasts:
// at end of study the stolen cache holds only the latest value, so older
// captures survive as kex_mismatch. Its curve must also agree with the
// scan's ECDHE-span estimate to within a day.
TEST(HarmEngineTest, ShortReuseTtlLeavesKexMismatchSurvivors) {
  SweepFixture& fx = Fixture();
  const SimTime t_end = scanner::ScanDayStart(kDays - 1);
  // One shared cache, so the whole fleet runs one reuse policy.
  const auto ttl_of = [&fx](const std::string& name) -> SimTime {
    for (const attack::CaptureRecord& rec : fx.captures.Records()) {
      if (OperatorOf(*fx.net, rec.domain) == name) {
        return fx.net->TerminatorConfigOf(rec.endpoint).ecdhe_reuse.ttl;
      }
    }
    return 0;
  };
  std::string profile;
  for (const std::string& name : SharedKexProfiles(fx, t_end)) {
    const SimTime ttl = ttl_of(name);
    if (ttl > 0 && ttl < (kDays - 1) * kDay) {
      profile = name;
      break;
    }
  }
  ASSERT_FALSE(profile.empty())
      << "no shared ECDHE-reuse fleet regenerates within the study";
  const std::uint64_t truth =
      SnapshotDecryptCount(*fx.net, {CompromiseVector::kDh, profile, t_end},
                           fx.captures.Records());
  ASSERT_GT(truth, 0u) << profile;
  const std::optional<HarmPoint> point = PointAt(
      fx.engine->SweepProfileVector(profile, CompromiseVector::kDh), t_end);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->decryptable, truth) << profile;
  EXPECT_GT(point->survivors[static_cast<int>(
                attack::DecryptFailureClass::kKexMismatch)],
            0u)
      << profile;
  const int span = PointSpanDays(*point);
  EXPECT_GE(span, 1) << profile;
  EXPECT_LE(span, MaxSpanOf(fx.result.ecdhe_spans, *fx.net, profile) + 1)
      << profile;
}

}  // namespace
}  // namespace tlsharm::adversary
