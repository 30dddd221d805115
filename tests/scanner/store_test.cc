#include "scanner/store.h"

#include <gtest/gtest.h>

#include <sstream>

namespace tlsharm::scanner {
namespace {

StoredObservation Sample(int day, DomainIndex domain) {
  StoredObservation stored;
  stored.day = day;
  stored.observation.domain = domain;
  stored.observation.connected = true;
  stored.observation.handshake_ok = true;
  stored.observation.trusted = true;
  stored.observation.suite = tls::CipherSuite::kEcdheWithAes128CbcSha256;
  stored.observation.kex_group = 0x01f2;
  stored.observation.kex_value = 0x1122334455667788ull;
  stored.observation.session_id_set = true;
  stored.observation.session_id = 0xaabbccdd11223344ull;
  stored.observation.ticket_issued = true;
  stored.observation.stek_id = 0x99aa77bb55cc33ddull;
  stored.observation.ticket_lifetime_hint = 100800;
  return stored;
}

TEST(ObservationStoreTest, RoundTripPreservesEverything) {
  std::vector<StoredObservation> in = {Sample(0, 7), Sample(62, 123456)};
  in[1].observation.ticket_issued = false;
  in[1].observation.stek_id = kNoSecret;
  const std::string data = SerializeObservations(in);
  const auto out = ParseObservations(data);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].day, 0);
  EXPECT_EQ(out[0].observation.domain, 7u);
  EXPECT_EQ(out[0].observation.kex_value, 0x1122334455667788ull);
  EXPECT_EQ(out[0].observation.stek_id, 0x99aa77bb55cc33ddull);
  EXPECT_EQ(out[0].observation.ticket_lifetime_hint, 100800u);
  EXPECT_TRUE(out[0].observation.trusted);
  EXPECT_EQ(out[1].day, 62);
  EXPECT_FALSE(out[1].observation.ticket_issued);
  EXPECT_EQ(out[1].observation.stek_id, kNoSecret);
}

TEST(ObservationStoreTest, FlagsRoundTripIndividually) {
  StoredObservation stored;
  stored.day = 1;
  stored.observation.domain = 1;
  stored.observation.connected = true;  // only one flag set
  const auto out = ParseObservations(SerializeObservations({stored}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].observation.connected);
  EXPECT_FALSE(out[0].observation.handshake_ok);
  EXPECT_FALSE(out[0].observation.trusted);
  EXPECT_FALSE(out[0].observation.session_id_set);
  EXPECT_FALSE(out[0].observation.ticket_issued);
}

TEST(ObservationStoreTest, SkipsCorruptLines) {
  const std::string data =
      SerializeObservations({Sample(1, 2)}) +
      "garbage line\n" +
      "1|2|3\n" +  // too few fields
      SerializeObservations({Sample(3, 4)}) +
      "1|2|3|4|5|6|7|8|9extra\n";
  std::istringstream in(data);
  ObservationReader reader(in);
  std::size_t good = 0;
  while (reader.Next()) ++good;
  EXPECT_EQ(good, 2u);
  EXPECT_EQ(reader.Corrupt(), 3u);
}

TEST(ObservationStoreTest, EmptyStreamYieldsNothing) {
  std::istringstream in("");
  ObservationReader reader(in);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.Corrupt(), 0u);
}

TEST(ObservationStoreTest, WriterCounts) {
  std::ostringstream out;
  ObservationWriter writer(out);
  writer.Write(0, Sample(0, 1).observation);
  writer.Write(1, Sample(1, 2).observation);
  EXPECT_EQ(writer.Written(), 2u);
  const std::string data = out.str();
  EXPECT_EQ(std::count(data.begin(), data.end(), '\n'), 2);
}

TEST(ObservationStoreTest, FailureClassRoundTrips) {
  for (int i = 0; i < kProbeFailureClasses; ++i) {
    StoredObservation stored = Sample(1, 2);
    stored.observation.failure = static_cast<ProbeFailure>(i);
    const auto out = ParseObservations(SerializeObservations({stored}));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].observation.failure, stored.observation.failure);
  }
}

TEST(ObservationStoreTest, LegacyNineFieldLinesDeriveFailure) {
  // Lines written before the failure column existed still load; the class
  // is reconstructed from the flags.
  const std::string legacy =
      "3|7|7|49|498|11|22|33|100800\n"   // connected+ok+trusted -> ok
      "3|8|3|49|498|11|22|33|100800\n"   // connected+ok, untrusted
      "3|9|1|0|0|0|0|0|0\n"              // connected only -> alert
      "3|10|0|0|0|0|0|0|0\n";            // nothing -> no_https
  const auto out = ParseObservations(legacy);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].observation.failure, ProbeFailure::kNone);
  EXPECT_EQ(out[1].observation.failure, ProbeFailure::kUntrusted);
  EXPECT_EQ(out[2].observation.failure, ProbeFailure::kAlert);
  EXPECT_EQ(out[3].observation.failure, ProbeFailure::kNoHttps);
}

TEST(ObservationStoreTest, OutOfRangeFailureIsCorrupt) {
  std::istringstream in("1|2|7|49|498|11|22|33|100800|99\n");
  ObservationReader reader(in);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.Corrupt(), 1u);
}

TEST(ObservationStoreTest, LargeBatchRoundTrip) {
  std::vector<StoredObservation> in;
  for (int i = 0; i < 1000; ++i) {
    StoredObservation stored = Sample(i % 63, static_cast<DomainIndex>(i));
    stored.observation.stek_id = static_cast<SecretId>(i * 77 + 1);
    in.push_back(stored);
  }
  const auto out = ParseObservations(SerializeObservations(in));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].observation.stek_id, in[i].observation.stek_id);
    EXPECT_EQ(out[i].day, in[i].day);
  }
}

}  // namespace
}  // namespace tlsharm::scanner
