#include "crypto/schnorr.h"

#include <gtest/gtest.h>

namespace tlsharm::crypto {

// Prints a scheme by its group rather than by address, so the names CTest
// derives for the parameterized cases are the same on every build.
void PrintTo(const SchnorrScheme* scheme, std::ostream* os) {
  *os << (scheme == &SchnorrSim61() ? "schnorr-sim61" : "schnorr-sim256");
}

namespace {

class SchnorrTest : public ::testing::TestWithParam<const SchnorrScheme*> {};

TEST_P(SchnorrTest, SignVerifyRoundTrip) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp = scheme.GenerateKeyPair(d);
  const Bytes msg = ToBytes("certificate to-be-signed bytes");
  const SchnorrSignature sig = scheme.Sign(kp.private_key, msg, d);
  EXPECT_TRUE(scheme.Verify(kp.public_key, msg, sig));
}

TEST_P(SchnorrTest, RejectsWrongMessage) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp = scheme.GenerateKeyPair(d);
  const SchnorrSignature sig = scheme.Sign(kp.private_key, ToBytes("msg"), d);
  EXPECT_FALSE(scheme.Verify(kp.public_key, ToBytes("other"), sig));
}

TEST_P(SchnorrTest, RejectsWrongKey) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp1 = scheme.GenerateKeyPair(d);
  const SchnorrKeyPair kp2 = scheme.GenerateKeyPair(d);
  const Bytes msg = ToBytes("msg");
  const SchnorrSignature sig = scheme.Sign(kp1.private_key, msg, d);
  EXPECT_FALSE(scheme.Verify(kp2.public_key, msg, sig));
}

TEST_P(SchnorrTest, RejectsTamperedSignature) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp = scheme.GenerateKeyPair(d);
  const Bytes msg = ToBytes("msg");
  SchnorrSignature sig = scheme.Sign(kp.private_key, msg, d);
  sig.s[0] ^= 0x01;
  EXPECT_FALSE(scheme.Verify(kp.public_key, msg, sig));
  sig.s[0] ^= 0x01;
  sig.e[0] ^= 0x01;
  EXPECT_FALSE(scheme.Verify(kp.public_key, msg, sig));
}

TEST_P(SchnorrTest, SerializationRoundTrip) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp = scheme.GenerateKeyPair(d);
  const Bytes msg = ToBytes("msg");
  const SchnorrSignature sig = scheme.Sign(kp.private_key, msg, d);
  const Bytes wire = scheme.SerializeSignature(sig);
  const auto parsed = scheme.ParseSignature(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(scheme.Verify(kp.public_key, msg, *parsed));
  EXPECT_FALSE(scheme.ParseSignature(Bytes(wire.size() + 1, 0)).has_value());
}

TEST_P(SchnorrTest, RejectsDegeneratePublicKey) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp = scheme.GenerateKeyPair(d);
  const Bytes msg = ToBytes("msg");
  const SchnorrSignature sig = scheme.Sign(kp.private_key, msg, d);
  Bytes bad_key(kp.public_key.size(), 0);
  EXPECT_FALSE(scheme.Verify(bad_key, msg, sig));   // y = 0
  bad_key.back() = 1;
  EXPECT_FALSE(scheme.Verify(bad_key, msg, sig));   // y = 1
  EXPECT_FALSE(scheme.Verify(Bytes(3, 7), msg, sig));  // wrong width
}

TEST_P(SchnorrTest, SignaturesAreRandomized) {
  const SchnorrScheme& scheme = *GetParam();
  Drbg d(ToBytes("keygen"));
  const SchnorrKeyPair kp = scheme.GenerateKeyPair(d);
  const Bytes msg = ToBytes("msg");
  const SchnorrSignature s1 = scheme.Sign(kp.private_key, msg, d);
  const SchnorrSignature s2 = scheme.Sign(kp.private_key, msg, d);
  EXPECT_NE(s1.e, s2.e);  // fresh nonce each time
  EXPECT_TRUE(scheme.Verify(kp.public_key, msg, s1));
  EXPECT_TRUE(scheme.Verify(kp.public_key, msg, s2));
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchnorrTest,
                         ::testing::Values(&SchnorrSim61(), &SchnorrSim256()));

}  // namespace
}  // namespace tlsharm::crypto
