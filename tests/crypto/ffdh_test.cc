#include "crypto/ffdh.h"

#include <gtest/gtest.h>

namespace tlsharm::crypto {

// Prints a parameter set by name rather than by address, so the names
// CTest derives for the parameterized cases are the same on every build.
void PrintTo(const FfdhParams* params, std::ostream* os) {
  *os << params->name;
}

namespace {

class FfdhGroupTest : public ::testing::TestWithParam<const FfdhParams*> {};

TEST_P(FfdhGroupTest, KeyAgreement) {
  const FfdhGroup group(*GetParam());
  Drbg d1(ToBytes("alice")), d2(ToBytes("bob"));
  const KexKeyPair a = group.GenerateKeyPair(d1);
  const KexKeyPair b = group.GenerateKeyPair(d2);
  EXPECT_EQ(a.public_value.size(), group.PublicValueSize());
  const auto s1 = group.SharedSecret(a.private_key, b.public_value);
  const auto s2 = group.SharedSecret(b.private_key, a.public_value);
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s1, *s2);
}

TEST_P(FfdhGroupTest, RejectsDegeneratePeerValues) {
  const FfdhGroup group(*GetParam());
  Drbg d(ToBytes("x"));
  const KexKeyPair kp = group.GenerateKeyPair(d);
  const std::size_t w = group.PublicValueSize();
  // 0, 1, p-1, p are all rejected.
  EXPECT_FALSE(group.SharedSecret(kp.private_key, Bytes(w, 0)).has_value());
  Bytes one(w, 0);
  one.back() = 1;
  EXPECT_FALSE(group.SharedSecret(kp.private_key, one).has_value());
  const Bytes p_minus_1 =
      BigUInt::Sub(group.Prime(), BigUInt::FromU64(1)).ToBytes(w);
  EXPECT_FALSE(group.SharedSecret(kp.private_key, p_minus_1).has_value());
  const Bytes p = group.Prime().ToBytes(w);
  EXPECT_FALSE(group.SharedSecret(kp.private_key, p).has_value());
  EXPECT_FALSE(group.SharedSecret(kp.private_key, Bytes(w + 1, 2)).has_value());
}

TEST_P(FfdhGroupTest, ReusedServerValueGivesDifferentSharedSecrets) {
  // The paper's §2.3 scenario: server reuses (a, g^a); two clients with
  // fresh values still derive distinct session keys, but anyone who learns
  // the server's `a` can recompute both.
  const FfdhGroup group(*GetParam());
  Drbg ds(ToBytes("server")), dc1(ToBytes("client1")), dc2(ToBytes("client2"));
  const KexKeyPair server = group.GenerateKeyPair(ds);
  const KexKeyPair c1 = group.GenerateKeyPair(dc1);
  const KexKeyPair c2 = group.GenerateKeyPair(dc2);
  const auto s1 = group.SharedSecret(c1.private_key, server.public_value);
  const auto s2 = group.SharedSecret(c2.private_key, server.public_value);
  ASSERT_TRUE(s1 && s2);
  EXPECT_NE(*s1, *s2);
  // Attacker holding the server private value recomputes both.
  EXPECT_EQ(*group.SharedSecret(server.private_key, c1.public_value), *s1);
  EXPECT_EQ(*group.SharedSecret(server.private_key, c2.public_value), *s2);
}

INSTANTIATE_TEST_SUITE_P(Groups, FfdhGroupTest,
                         ::testing::Values(&FfdhSim61Params(),
                                           &FfdhSim256Params()));

TEST(FfdhParamsTest, GeneratorProducesSubgroupOfOrderQ) {
  // g = 2 in a safe-prime group: g^q = ±1 mod p. h = g² has order exactly q.
  for (const FfdhParams* params :
       {&FfdhSim61Params(), &FfdhSim256Params()}) {
    const BigUInt p = BigUInt::FromHex(params->p_hex);
    const BigUInt q = BigUInt::FromHex(params->q_hex);
    const Montgomery m(p);
    const BigUInt h = BigUInt::FromU64(params->g * params->g);
    EXPECT_EQ(m.PowMod(h, q), BigUInt::FromU64(1)) << params->name;
  }
}

}  // namespace
}  // namespace tlsharm::crypto
