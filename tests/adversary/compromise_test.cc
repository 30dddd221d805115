// The compromise model: snapshots steal each fleet secret exactly once,
// cache dumps honour liveness, and ReplaySnapshot reproduces the real
// decryptors' verdicts with the closed failure taxonomy.
#include "adversary/compromise.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "scanner/scan_engine.h"
#include "simnet/internet.h"

namespace tlsharm::adversary {
namespace {

constexpr std::size_t kPopulation = 150;
constexpr int kDays = 3;
constexpr std::uint64_t kWorldSeed = 91;
constexpr std::uint64_t kScanSeed = 17;

// One capture-recording scan, shared across the tests in this file.
struct ScanFixture {
  std::unique_ptr<simnet::Internet> net;
  attack::CaptureBufferSink captures;

  ScanFixture() {
    net = std::make_unique<simnet::Internet>(
        simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
    scanner::ScanEngineOptions options;
    options.threads = 2;
    options.capture = &captures;
    scanner::RunShardedDailyScans(*net, kDays, kScanSeed, options);
  }
};

ScanFixture& Fixture() {
  static ScanFixture* fixture = new ScanFixture;
  return *fixture;
}

const std::string& OperatorOf(const simnet::Internet& net,
                              std::uint32_t domain) {
  // The interned accessor: GetDomain returns a materialized value, so a
  // reference into it would dangle.
  return net.DomainOperator(static_cast<simnet::DomainId>(domain));
}

// A profile whose terminators all share one STEK manager, or "".
std::string SharedStekProfile(simnet::Internet& net) {
  std::map<std::string, std::set<simnet::TerminatorId>> fleets;
  for (std::size_t d = 0; d < net.DomainCount(); ++d) {
    const simnet::DomainInfo& info =
        net.GetDomain(static_cast<simnet::DomainId>(d));
    fleets[info.operator_name].insert(info.endpoints.begin(),
                                      info.endpoints.end());
  }
  for (const auto& [name, endpoints] : fleets) {
    if (endpoints.size() < 2) continue;
    std::set<const void*> managers;
    bool ticketed = true;
    for (const simnet::TerminatorId e : endpoints) {
      managers.insert(&net.SteksOf(e));
      ticketed = ticketed && net.TerminatorConfigOf(e).tickets.enabled;
    }
    if (ticketed && managers.size() == 1) return name;
  }
  return "";
}

TEST(CompromiseTest, SharedFleetStekIsStolenOnce) {
  ScanFixture& fx = Fixture();
  const std::string profile = SharedStekProfile(*fx.net);
  ASSERT_FALSE(profile.empty()) << "population has no shared-STEK fleet";
  const CompromisedSecrets secrets = TakeSnapshot(
      *fx.net, {CompromiseVector::kStek, profile,
                scanner::ScanDayStart(kDays - 1)});
  EXPECT_EQ(secrets.steks.size(), 1u)
      << "a fleet-shared key must be one theft";
  EXPECT_FALSE(secrets.steks[0].stek.key_name.empty());
}

TEST(CompromiseTest, GlobalCompromiseCoversEveryProfile) {
  ScanFixture& fx = Fixture();
  const SimTime t = scanner::ScanDayStart(kDays - 1);
  const CompromisedSecrets everyone =
      TakeSnapshot(*fx.net, {CompromiseVector::kStek, "", t});
  const std::string profile = SharedStekProfile(*fx.net);
  ASSERT_FALSE(profile.empty());
  const CompromisedSecrets one =
      TakeSnapshot(*fx.net, {CompromiseVector::kStek, profile, t});
  EXPECT_GE(everyone.steks.size(), one.steks.size());
  EXPECT_GT(everyone.steks.size(), 1u);
}

TEST(CompromiseTest, CacheDumpOnlyHoldsLiveEntries) {
  ScanFixture& fx = Fixture();
  const SimTime t = scanner::ScanDayStart(kDays - 1);
  const CompromisedSecrets secrets =
      TakeSnapshot(*fx.net, {CompromiseVector::kSessionCache, "", t});
  ASSERT_FALSE(secrets.cache_dump.empty())
      << "the scan just populated session caches at t";
  for (const auto& [id, session] : secrets.cache_dump) {
    EXPECT_LE(session.created, t);
    EXPECT_FALSE(id.empty());
    EXPECT_FALSE(session.master_secret.empty());
  }
  // Long after every lifetime expired, the same vector steals nothing.
  const CompromisedSecrets stale = TakeSnapshot(
      *fx.net, {CompromiseVector::kSessionCache, "", t + 365 * kDay});
  EXPECT_TRUE(stale.cache_dump.empty());
}

TEST(CompromiseTest, ReplayClassifiesWithClosedTaxonomy) {
  using attack::DecryptFailureClass;
  ScanFixture& fx = Fixture();
  const SimTime t = scanner::ScanDayStart(kDays - 1);

  const attack::CaptureRecord* invalid = nullptr;
  const attack::CaptureRecord* unticketed = nullptr;
  for (const attack::CaptureRecord& rec : fx.captures.Records()) {
    if (!rec.valid && invalid == nullptr) invalid = &rec;
    if (rec.valid && rec.ticket.empty() && unticketed == nullptr) {
      unticketed = &rec;
    }
  }
  ASSERT_NE(invalid, nullptr);

  const CompromisedSecrets stek =
      TakeSnapshot(*fx.net, {CompromiseVector::kStek, "", t});
  const ReplayOutcome broken = ReplaySnapshot(stek, *invalid);
  EXPECT_FALSE(broken.ok);
  EXPECT_EQ(broken.failure, DecryptFailureClass::kCaptureInvalid);
  if (unticketed != nullptr) {
    const ReplayOutcome bare = ReplaySnapshot(stek, *unticketed);
    EXPECT_FALSE(bare.ok);
    EXPECT_EQ(bare.failure, DecryptFailureClass::kNoTicket);
  }
}

TEST(CompromiseTest, EndOfStudySnapshotsDecryptRecordedTraffic) {
  using attack::DecryptFailureClass;
  ScanFixture& fx = Fixture();
  const SimTime t = scanner::ScanDayStart(kDays - 1);

  // A fleet-wide STEK theft at the end of the study must open at least the
  // tickets issued that day, and every success must recover a real master
  // secret; survivors must carry a STEK-vector failure class.
  const CompromisedSecrets stek =
      TakeSnapshot(*fx.net, {CompromiseVector::kStek, "", t});
  std::size_t opened = 0;
  for (const attack::CaptureRecord& rec : fx.captures.Records()) {
    const ReplayOutcome outcome = ReplaySnapshot(stek, rec);
    if (outcome.ok) {
      ++opened;
      EXPECT_FALSE(outcome.master_secret.empty());
      EXPECT_EQ(outcome.failure, DecryptFailureClass::kNone);
    } else {
      EXPECT_TRUE(outcome.failure == DecryptFailureClass::kCaptureInvalid ||
                  outcome.failure == DecryptFailureClass::kNoTicket ||
                  outcome.failure == DecryptFailureClass::kWrongStek)
          << attack::ToString(outcome.failure);
    }
  }
  EXPECT_GT(opened, 0u);

  // The cache dump decrypts a same-instant connection of its profile.
  std::size_t cache_opened = 0;
  for (const attack::CaptureRecord& rec : fx.captures.Records()) {
    if (!rec.valid || rec.session_id.empty() || rec.time != t) continue;
    const CompromisedSecrets cache = TakeSnapshot(
        *fx.net,
        {CompromiseVector::kSessionCache, OperatorOf(*fx.net, rec.domain), t});
    if (ReplaySnapshot(cache, rec).ok) {
      ++cache_opened;
      break;
    }
  }
  EXPECT_GT(cache_opened, 0u);
}

TEST(CompromiseTest, VectorNamesAreStable) {
  EXPECT_STREQ(ToString(CompromiseVector::kStek), "stek");
  EXPECT_STREQ(ToString(CompromiseVector::kSessionCache), "session_cache");
  EXPECT_STREQ(ToString(CompromiseVector::kDh), "dh");
}

}  // namespace
}  // namespace tlsharm::adversary
