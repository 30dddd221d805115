// Golden-file coverage for the observation store: a checked-in fixture
// mixing legacy nine-field lines, current ten-field lines, and malformed
// garbage must parse into exactly the checked-in canonical serialization —
// and the canonical form must be a fixpoint of parse -> re-serialize, so
// stored studies keep round-tripping as the format evolves.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scanner/store.h"

namespace tlsharm::scanner {
namespace {

std::string ReadTestdata(const std::string& name) {
  const std::string path = std::string(TLSHARM_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(ObservationStoreGoldenTest, MixedFixtureParsesToCanonicalForm) {
  const std::string mixed = ReadTestdata("observations_mixed.txt");
  ASSERT_FALSE(mixed.empty());

  std::istringstream in(mixed);
  ObservationReader reader(in);
  std::vector<StoredObservation> parsed;
  while (auto next = reader.Next()) parsed.push_back(*next);

  // The fixture carries four deliberately malformed lines (non-numeric,
  // too few fields, too many fields, out-of-range failure class).
  EXPECT_EQ(reader.Corrupt(), 4u);
  EXPECT_EQ(parsed.size(), 7u);
  EXPECT_EQ(SerializeObservations(parsed),
            ReadTestdata("observations_canonical.txt"));
}

TEST(ObservationStoreGoldenTest, LegacyLinesDeriveFailureFromFlags) {
  const auto parsed = ParseObservations(ReadTestdata("observations_mixed.txt"));
  ASSERT_EQ(parsed.size(), 7u);
  // flags 31: full success.   flags 0: never connected.
  EXPECT_EQ(parsed[0].observation.failure, ProbeFailure::kNone);
  EXPECT_EQ(parsed[1].observation.failure, ProbeFailure::kNoHttps);
  // flags 1: connected, handshake failed -> closest class is kAlert.
  EXPECT_EQ(parsed[2].observation.failure, ProbeFailure::kAlert);
  // flags 3: handshake ok, chain untrusted.
  EXPECT_EQ(parsed[3].observation.failure, ProbeFailure::kUntrusted);
  // Ten-field lines carry their class verbatim.
  EXPECT_EQ(parsed[4].observation.failure, ProbeFailure::kTimeout);
}

TEST(ObservationStoreGoldenTest, CanonicalFormIsAFixpoint) {
  const std::string canonical = ReadTestdata("observations_canonical.txt");
  ASSERT_FALSE(canonical.empty());
  const std::string once = SerializeObservations(ParseObservations(canonical));
  EXPECT_EQ(once, canonical);
  EXPECT_EQ(SerializeObservations(ParseObservations(once)), once);
}

}  // namespace
}  // namespace tlsharm::scanner
