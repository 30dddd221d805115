// The harm-curve sweep: partition invariants, canonical JSONL, segment
// round-trip identity, an independent brute-force recount of the cache
// sweep, and the end-of-study snapshot cross-check.
#include "adversary/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
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

constexpr std::size_t kPopulation = 150;
constexpr int kDays = 3;
constexpr std::uint64_t kWorldSeed = 91;
constexpr std::uint64_t kScanSeed = 17;

struct SweepFixture {
  std::unique_ptr<simnet::Internet> net;
  attack::CaptureBufferSink captures;
  std::unique_ptr<HarmEngine> engine;
  std::vector<HarmCurve> curves;

  SweepFixture() {
    net = std::make_unique<simnet::Internet>(
        simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
    scanner::ScanEngineOptions options;
    options.threads = 2;
    options.capture = &captures;
    scanner::RunShardedDailyScans(*net, kDays, kScanSeed, options);
    engine = std::make_unique<HarmEngine>(*net);
    for (std::size_t i = 0; i < captures.Records().size(); ++i) {
      engine->Ingest(captures.Days()[i], captures.Records()[i]);
    }
    engine->Seal();
    curves = engine->Sweep();
  }
};

SweepFixture& Fixture() {
  static SweepFixture* fixture = new SweepFixture;
  return *fixture;
}

std::uint64_t SurvivorTotal(const HarmPoint& point) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : point.survivors) total += n;
  return total;
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
  std::set<std::string> eligible;
  {
    std::map<std::string, std::set<const void*>> managers;
    std::map<std::string, bool> ticketed_at_end;
    for (std::size_t d = 0; d < fx.net->DomainCount(); ++d) {
      const simnet::DomainInfo& info =
          fx.net->GetDomain(static_cast<simnet::DomainId>(d));
      for (const simnet::TerminatorId e : info.endpoints) {
        managers[info.operator_name].insert(&fx.net->SteksOf(e));
      }
    }
    for (const attack::CaptureRecord& rec : fx.captures.Records()) {
      if (rec.valid && !rec.ticket.empty() && rec.time == t_end) {
        ticketed_at_end
            [fx.net->GetDomain(static_cast<simnet::DomainId>(rec.domain))
                 .operator_name] = true;
      }
    }
    for (const auto& [name, set] : managers) {
      if (set.size() == 1 && ticketed_at_end[name]) eligible.insert(name);
    }
  }
  ASSERT_FALSE(eligible.empty());
  std::size_t checked = 0;
  for (const std::string& profile : eligible) {
    const HarmCurve curve =
        fx.engine->SweepProfileVector(profile, CompromiseVector::kStek);
    const auto it = std::find_if(
        curve.points.begin(), curve.points.end(),
        [t_end](const HarmPoint& p) { return p.t == t_end; });
    ASSERT_NE(it, curve.points.end());
    const CompromisedSecrets secrets =
        TakeSnapshot(*fx.net, {CompromiseVector::kStek, profile, t_end});
    std::uint64_t replayed = 0;
    for (const attack::CaptureRecord& rec : fx.captures.Records()) {
      if (fx.net->GetDomain(static_cast<simnet::DomainId>(rec.domain))
              .operator_name != profile) {
        continue;
      }
      if (ReplaySnapshot(secrets, rec).ok) ++replayed;
    }
    EXPECT_EQ(it->decryptable, replayed) << profile;
    if (replayed > 0) ++checked;
  }
  EXPECT_GT(checked, 0u) << "no profile decrypted anything at end of study";
}

}  // namespace
}  // namespace tlsharm::adversary
