#include "simnet/spec.h"

#include <gtest/gtest.h>

namespace tlsharm::simnet {
namespace {

TEST(ProfilesTest, SpecHasAllArchetypes) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  EXPECT_EQ(spec.top_list_size, 10000u);
  std::set<std::string> names;
  for (const auto& op : spec.operators) names.insert(op.name);
  for (const char* expected :
       {"cloudflare", "googleplex", "blogspot", "automattic", "shopify",
        "apache-daily", "nginx-daily", "iis-monthly", "smallhost-never"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(ProfilesTest, TrustedSharesRoughlyNormalized) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  double total = 0;
  for (const auto& op : spec.operators) total += op.trusted_share;
  EXPECT_GT(total, 0.8);
  EXPECT_LT(total, 1.1);
}

TEST(ProfilesTest, GoogleStekPoolShared) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  int pool_members = 0;
  for (const auto& op : spec.operators) {
    if (op.stek_pool == "google") ++pool_members;
  }
  EXPECT_EQ(pool_members, 2);  // googleplex + blogspot
}

TEST(ProfilesTest, NamedDomainsCoverPaperTables) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  std::set<std::string> names;
  for (const auto& named : spec.named_domains) names.insert(named.domain);
  // Table 2 rows.
  for (const char* domain :
       {"yahoo.com", "qq.com", "taobao.com", "pinterest.com", "yandex.ru",
        "netflix.com", "imgur.com", "tmall.com", "fc2.com", "pornhub.com"}) {
    EXPECT_TRUE(names.count(domain)) << domain;
  }
  // Table 3 rows.
  for (const char* domain :
       {"ebay.in", "ebay.it", "bleacherreport.com", "kayak.com",
        "cbssports.com", "gamefaqs.com", "overstock.com", "cookpad.com"}) {
    EXPECT_TRUE(names.count(domain)) << domain;
  }
  // Table 4 rows.
  for (const char* domain :
       {"whatsapp.com", "vice.com", "9gag.com", "liputan6.com", "paytm.com",
        "playstation.com", "woot.com", "leagueoflegends.com"}) {
    EXPECT_TRUE(names.count(domain)) << domain;
  }
}

TEST(ProfilesTest, NamedGroupsCoverPaperOperators) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  std::set<std::string> names;
  for (const auto& group : spec.named_groups) {
    names.insert(group.operator_name);
  }
  for (const char* expected :
       {"fastly", "tmall", "jackhenry", "hostway", "affinity"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(ProfilesTest, JackHenryRotatesOnDay59) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  for (const auto& group : spec.named_groups) {
    if (group.operator_name == "jackhenry") {
      ASSERT_EQ(group.stek_rotation_days.size(), 1u);
      EXPECT_EQ(group.stek_rotation_days[0], 59);
      return;
    }
  }
  FAIL() << "jackhenry group missing";
}

TEST(ProfilesTest, DefaultPopulationSizeRespectsEnv) {
  // Only checks the default path (env mutation is process-global; the
  // parsing branch is covered by setting and restoring).
  const std::size_t before = DefaultPopulationSize();
  EXPECT_GE(before, 2000u);
  setenv("TLSHARM_POPULATION", "5000", 1);
  EXPECT_EQ(DefaultPopulationSize(), 5000u);
  setenv("TLSHARM_POPULATION", "1500", 1);
  EXPECT_EQ(DefaultPopulationSize(), 1500u);
  setenv("TLSHARM_POPULATION", "10", 1);  // below floor: ignored
  EXPECT_NE(DefaultPopulationSize(), 10u);
  EXPECT_EQ(DefaultPopulationSize(6000), 6000u);  // the caller's fallback
  unsetenv("TLSHARM_POPULATION");
}

TEST(ProfilesTest, ReuseMixesAreWellFormed) {
  const PopulationSpec spec = PaperPopulationSpec(10000);
  for (const auto& op : spec.operators) {
    for (const auto* mix : {&op.dhe_reuse, &op.ecdhe_reuse}) {
      EXPECT_GE(mix->reuse_fraction, 0.0);
      EXPECT_LE(mix->reuse_fraction, 1.0);
      double weight_total = 0;
      for (const auto& [weight, ttl] : mix->ttl_mix) {
        EXPECT_GT(weight, 0.0);
        EXPECT_GE(ttl, 0);
        weight_total += weight;
      }
      if (mix->reuse_fraction > 0) EXPECT_GT(weight_total, 0.0);
    }
  }
}

}  // namespace
}  // namespace tlsharm::simnet
