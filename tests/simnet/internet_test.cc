#include "simnet/internet.h"

#include <gtest/gtest.h>

#include "tls/client.h"

namespace tlsharm::simnet {
namespace {

// One small world shared by the suite (construction is the expensive part).
Internet& SmallWorld() {
  static Internet* net = new Internet(PaperPopulationSpec(4000), 42);
  return *net;
}

TEST(InternetTest, PopulationHasExpectedShape) {
  Internet& net = SmallWorld();
  // stable + transients; transient pool factor 1.4 → roughly 2.5x stable.
  EXPECT_GT(net.DomainCount(), 5000u);
  EXPECT_LT(net.DomainCount(), 12000u);

  std::size_t https = 0, trusted = 0, stable = 0;
  for (DomainId id = 0; id < net.DomainCount(); ++id) {
    const auto& info = net.GetDomain(id);
    https += info.https;
    trusted += info.https && info.trusted_cert;
    stable += info.stable;
  }
  EXPECT_GT(https, 0u);
  EXPECT_GT(trusted, 0u);
  EXPECT_GT(stable, 2000u);
}

TEST(InternetTest, DeterministicAcrossBuilds) {
  Internet a(PaperPopulationSpec(2000), 7);
  Internet b(PaperPopulationSpec(2000), 7);
  ASSERT_EQ(a.DomainCount(), b.DomainCount());
  for (DomainId id = 0; id < a.DomainCount(); id += 37) {
    EXPECT_EQ(a.GetDomain(id).name, b.GetDomain(id).name);
    EXPECT_EQ(a.GetDomain(id).rank, b.GetDomain(id).rank);
  }
}

TEST(InternetTest, TerminatorsAreBuiltOnFirstConnect) {
  Internet net(PaperPopulationSpec(2000), 7);
  EXPECT_EQ(net.Fleet().materializations, 0u);
  EXPECT_EQ(net.Fleet().resident, 0u);
  const auto id = net.FindDomain("google.com");
  ASSERT_TRUE(id.has_value());
  ASSERT_NE(net.Connect(*id, kHour), nullptr);
  EXPECT_EQ(net.Fleet().materializations, 1u);
  ASSERT_NE(net.Connect(*id, kHour), nullptr);
  EXPECT_EQ(net.Fleet().materializations, 1u);
  EXPECT_EQ(net.Fleet().resident, 1u);
}

TEST(InternetTest, NamedDomainsExist) {
  Internet& net = SmallWorld();
  for (const char* name :
       {"google.com", "yahoo.com", "netflix.com", "whatsapp.com",
        "yandex.ru", "qq.com"}) {
    const auto id = net.FindDomain(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_TRUE(net.GetDomain(*id).https);
    EXPECT_TRUE(net.GetDomain(*id).trusted_cert);
    EXPECT_TRUE(net.GetDomain(*id).stable);
  }
  EXPECT_EQ(net.GetDomain(*net.FindDomain("google.com")).rank, 1);
  EXPECT_EQ(net.GetDomain(*net.FindDomain("yahoo.com")).rank, 5);
}

TEST(InternetTest, HandshakesSucceedAgainstTrustedDomains) {
  Internet& net = SmallWorld();
  crypto::Drbg drbg(ToBytes("test client"));
  int tried = 0, ok = 0, trusted_ok = 0;
  for (DomainId id = 0; id < net.DomainCount() && tried < 50; ++id) {
    const auto& info = net.GetDomain(id);
    if (!info.https || !info.trusted_cert || !info.stable) continue;
    ++tried;
    auto conn = net.Connect(id, kHour);
    ASSERT_NE(conn, nullptr) << info.name;
    tls::ClientConfig config;
    config.server_name = info.name;
    config.root_store = &net.NssRootStore();
    tls::TlsClient client(config);
    const auto hs = client.Handshake(*conn, kHour, drbg);
    ok += hs.ok;
    trusted_ok += hs.ok && hs.chain_trusted;
    EXPECT_TRUE(hs.ok) << info.name << ": " << hs.error;
  }
  EXPECT_EQ(ok, tried);
  EXPECT_EQ(trusted_ok, tried);
}

TEST(InternetTest, UntrustedDomainsFailChainValidation) {
  Internet& net = SmallWorld();
  crypto::Drbg drbg(ToBytes("test client"));
  int checked = 0;
  for (DomainId id = 0; id < net.DomainCount() && checked < 10; ++id) {
    const auto& info = net.GetDomain(id);
    if (!info.https || info.trusted_cert) continue;
    auto conn = net.Connect(id, kHour);
    if (conn == nullptr) continue;
    tls::ClientConfig config;
    config.server_name = info.name;
    config.root_store = &net.NssRootStore();
    tls::TlsClient client(config);
    const auto hs = client.Handshake(*conn, kHour, drbg);
    if (!hs.ok) continue;
    EXPECT_FALSE(hs.chain_trusted) << info.name;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(InternetTest, NonHttpsDomainsRefuseConnections) {
  Internet& net = SmallWorld();
  int checked = 0;
  for (DomainId id = 0; id < net.DomainCount() && checked < 10; ++id) {
    if (net.GetDomain(id).https) continue;
    EXPECT_EQ(net.Connect(id, kHour), nullptr);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(InternetTest, StableDomainsAlwaysListed) {
  Internet& net = SmallWorld();
  const auto id = net.FindDomain("google.com");
  ASSERT_TRUE(id.has_value());
  for (int day = 0; day < 63; ++day) {
    EXPECT_TRUE(net.InTopListOnDay(*id, day));
  }
}

TEST(InternetTest, TransientDomainsChurn) {
  Internet& net = SmallWorld();
  std::size_t sometimes = 0, always = 0, transients = 0;
  for (DomainId id = 0; id < net.DomainCount(); ++id) {
    if (net.GetDomain(id).stable) continue;
    ++transients;
    int listed = 0;
    for (int day = 0; day < 63; ++day) listed += net.InTopListOnDay(id, day);
    if (listed > 0 && listed < 63) ++sometimes;
    if (listed == 63) ++always;
  }
  EXPECT_GT(transients, 0u);
  EXPECT_GT(sometimes, transients / 4);
}

TEST(InternetTest, EndpointSelectionIsStableWithinDay) {
  Internet& net = SmallWorld();
  // Find a multi-endpoint domain.
  for (DomainId id = 0; id < net.DomainCount(); ++id) {
    if (net.GetDomain(id).endpoints.size() < 2) continue;
    const TerminatorId at_9am = net.EndpointFor(id, 9 * kHour);
    // Affinity is per-day deterministic (5% off-affinity tolerance: check
    // the modal endpoint is the 9am one).
    int same = 0;
    for (int i = 0; i < 20; ++i) {
      same += net.EndpointFor(id, 9 * kHour + i * 7) == at_9am;
    }
    EXPECT_GE(same, 15);
    return;
  }
  GTEST_SKIP() << "no multi-endpoint domain in small world";
}

TEST(InternetTest, MxRecordsPointAtGoogleForSomeDomains) {
  Internet& net = SmallWorld();
  std::size_t mx_google = 0, stable = 0;
  for (DomainId id = 0; id < net.DomainCount(); ++id) {
    if (!net.GetDomain(id).stable) continue;
    ++stable;
    mx_google += net.MxPointsAtGoogle(id);
  }
  // ~9% of Top-N domains (§7.2); generous tolerance at small scale.
  const double fraction = static_cast<double>(mx_google) / stable;
  EXPECT_GT(fraction, 0.01);
  EXPECT_LT(fraction, 0.20);
}

TEST(InternetTest, CoLocatedDomainsShareIps) {
  Internet& net = SmallWorld();
  for (DomainId id = 0; id < net.DomainCount(); ++id) {
    const auto& info = net.GetDomain(id);
    if (info.operator_name.find("cloudflare") == std::string::npos) continue;
    const auto ip = net.IpOf(info.endpoints.front());
    EXPECT_GT(net.DomainsOnIp(ip).size(), 1u);
    EXPECT_GT(net.DomainsInAs(info.as_number).size(), 10u);
    return;
  }
  FAIL() << "no cloudflare domain found";
}

}  // namespace
}  // namespace tlsharm::simnet
