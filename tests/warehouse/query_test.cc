// Query-layer semantics over a small hand-built warehouse: conjunctive
// filters, secret-presence predicates, and sorted deterministic group-by
// output.
#include "warehouse/query.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

namespace tlsharm::warehouse {
namespace {

using scanner::HandshakeObservation;

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest runs each TEST as its own process in
    // parallel, and a shared fixture path races against the other cases.
    dir_ = ::testing::TempDir() + "warehouse_query_test_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::string error;
    auto writer = WarehouseWriter::Create(dir_, &error);
    ASSERT_NE(writer, nullptr) << error;

    // Day 0: two successes (one with a ticket), one timeout.
    writer->Append(0, Success(1, /*ticket=*/true));
    writer->Append(0, Success(2, /*ticket=*/false));
    writer->Append(0, Failure(3, scanner::ProbeFailure::kTimeout));
    writer->EndDay(0);
    // Day 1: domain 1 again (ticket), domain 3 now refused.
    writer->Append(1, Success(1, /*ticket=*/true));
    writer->Append(1, Failure(3, scanner::ProbeFailure::kRefused));
    writer->EndDay(1);
    // Day 2: only a DHE-pass style observation.
    writer->Append(2, Dhe(2));
    writer->EndDay(2);
    writer->Finish();
    ASSERT_TRUE(writer->ok()) << writer->error();

    auto wh = Warehouse::Open(dir_, &error);
    ASSERT_TRUE(wh.has_value()) << error;
    warehouse_.emplace(std::move(*wh));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static HandshakeObservation Success(scanner::DomainIndex domain,
                                      bool ticket) {
    HandshakeObservation obs;
    obs.domain = domain;
    obs.connected = true;
    obs.handshake_ok = true;
    obs.trusted = true;
    obs.failure = scanner::ProbeFailure::kNone;
    obs.suite = tls::CipherSuite::kEcdheWithAes128CbcSha256;
    obs.kex_group = 23;
    obs.kex_value = domain * 11 + 1;
    obs.session_id_set = true;
    obs.session_id = domain + 500;
    obs.ticket_issued = ticket;
    obs.stek_id = ticket ? domain + 900 : scanner::kNoSecret;
    obs.ticket_lifetime_hint = ticket ? 7200 : 0;
    return obs;
  }

  static HandshakeObservation Failure(scanner::DomainIndex domain,
                                      scanner::ProbeFailure failure) {
    HandshakeObservation obs;
    obs.domain = domain;
    obs.connected = failure != scanner::ProbeFailure::kNoHttps;
    obs.failure = failure;
    return obs;
  }

  static HandshakeObservation Dhe(scanner::DomainIndex domain) {
    HandshakeObservation obs;
    obs.domain = domain;
    obs.connected = true;
    obs.handshake_ok = true;
    obs.failure = scanner::ProbeFailure::kNone;
    obs.suite = tls::CipherSuite::kDheWithAes128CbcSha256;
    obs.kex_group = 14;
    obs.kex_value = domain * 13 + 7;
    return obs;
  }

  std::string dir_;
  std::optional<Warehouse> warehouse_;
};

TEST_F(QueryTest, UnfilteredCountSeesEverything) {
  std::uint64_t count = 0;
  std::string error;
  ASSERT_TRUE(CountObservations(*warehouse_, {}, &count, &error)) << error;
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(count, warehouse_->TotalRows());
}

TEST_F(QueryTest, FiltersCompose) {
  std::string error;
  std::uint64_t count = 0;

  ObsFilter by_domain;
  by_domain.domain = 1;
  ASSERT_TRUE(CountObservations(*warehouse_, by_domain, &count, &error));
  EXPECT_EQ(count, 2u);

  // A day-range filter prunes day 0's segment unread and loses nothing:
  // days 1 and 2 hold 2 + 1 rows.
  ObsFilter from_day_one;
  from_day_one.day_min = 1;
  ASSERT_TRUE(CountObservations(*warehouse_, from_day_one, &count, &error));
  EXPECT_EQ(count, 3u);

  ObsFilter by_day_and_domain = by_domain;
  by_day_and_domain.day_min = 1;
  ASSERT_TRUE(
      CountObservations(*warehouse_, by_day_and_domain, &count, &error));
  EXPECT_EQ(count, 1u);

  ObsFilter by_failure;
  by_failure.failure = scanner::ProbeFailure::kTimeout;
  ASSERT_TRUE(CountObservations(*warehouse_, by_failure, &count, &error));
  EXPECT_EQ(count, 1u);

  ObsFilter by_stek;
  by_stek.has_secret = SecretKind::kStek;
  ASSERT_TRUE(CountObservations(*warehouse_, by_stek, &count, &error));
  EXPECT_EQ(count, 2u);  // domain 1, days 0 and 1

  ObsFilter by_kex;
  by_kex.has_secret = SecretKind::kKex;
  ASSERT_TRUE(CountObservations(*warehouse_, by_kex, &count, &error));
  EXPECT_EQ(count, 4u);

  ObsFilter by_session;
  by_session.has_secret = SecretKind::kSessionId;
  by_session.day_max = 0;
  ASSERT_TRUE(CountObservations(*warehouse_, by_session, &count, &error));
  EXPECT_EQ(count, 2u);
}

TEST_F(QueryTest, GroupByDayIsSortedAndComplete) {
  std::vector<GroupCount> groups;
  std::string error;
  ASSERT_TRUE(GroupCountObservations(*warehouse_, {}, GroupKey::kDay,
                                     &groups, &error))
      << error;
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key, 0u);
  EXPECT_EQ(groups[0].count, 3u);
  EXPECT_EQ(groups[1].key, 1u);
  EXPECT_EQ(groups[1].count, 2u);
  EXPECT_EQ(groups[2].key, 2u);
  EXPECT_EQ(groups[2].count, 1u);
  // Each day group is exactly its segment's row count.
  ASSERT_EQ(warehouse_->ObservationSegments().size(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].count, warehouse_->ObservationSegments()[i].rows)
        << "day " << groups[i].key;
  }
}

TEST_F(QueryTest, GroupByFailureCountsClasses) {
  std::vector<GroupCount> groups;
  std::string error;
  ASSERT_TRUE(GroupCountObservations(*warehouse_, {}, GroupKey::kFailure,
                                     &groups, &error))
      << error;
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key,
            static_cast<std::uint64_t>(scanner::ProbeFailure::kNone));
  EXPECT_EQ(groups[0].count, 4u);
  EXPECT_EQ(groups[1].key,
            static_cast<std::uint64_t>(scanner::ProbeFailure::kRefused));
  EXPECT_EQ(groups[1].count, 1u);
  EXPECT_EQ(groups[2].key,
            static_cast<std::uint64_t>(scanner::ProbeFailure::kTimeout));
  EXPECT_EQ(groups[2].count, 1u);
}

TEST_F(QueryTest, GroupBySuiteWithFilter) {
  ObsFilter ok_only;
  ok_only.failure = scanner::ProbeFailure::kNone;
  std::vector<GroupCount> groups;
  std::string error;
  ASSERT_TRUE(GroupCountObservations(*warehouse_, ok_only, GroupKey::kSuite,
                                     &groups, &error))
      << error;
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].key, 0x0067u);  // DHE
  EXPECT_EQ(groups[0].count, 1u);
  EXPECT_EQ(groups[1].key, 0xc027u);  // ECDHE
  EXPECT_EQ(groups[1].count, 3u);
}

TEST_F(QueryTest, NameParsersRoundTrip) {
  for (const char* name : {"stek", "kex", "session_id"}) {
    const auto kind = ParseSecretKind(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_STREQ(ToString(*kind), name);
  }
  EXPECT_FALSE(ParseSecretKind("bogus").has_value());
  for (const char* name : {"day", "failure", "suite", "domain", "kex_group"}) {
    const auto key = ParseGroupKey(name);
    ASSERT_TRUE(key.has_value()) << name;
    EXPECT_STREQ(ToString(*key), name);
  }
  EXPECT_FALSE(ParseGroupKey("bogus").has_value());
}

}  // namespace
}  // namespace tlsharm::warehouse
