// Decoder-robustness battery for the campaign journal and the shared fold
// checkpoints — the two binary artifacts a resumed campaign trusts its
// history to. Mirrors the warehouse segment battery: every truncation
// length and every single-bit flip must be rejected cleanly (or, for the
// journal, degrade to a shorter valid prefix), never crash, and never
// yield state that disagrees with what was committed.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gtest/gtest.h"
#include "scanner/aggregates.h"
#include "scanner/observation.h"
#include "scanner/runlog.h"
#include "tls/constants.h"

namespace tlsharm::scanner {
namespace {

namespace fs = std::filesystem;

RunLogContents SampleContents() {
  RunLogContents contents;
  contents.config_digest = 0x1122334455667788ull;
  contents.days = 9;
  for (int day = 0; day < 3; ++day) {
    RunLogDay rec;
    rec.day = day;
    rec.digests.warehouse_rows = 50u * static_cast<unsigned>(day + 1);
    rec.digests.warehouse_segments = static_cast<unsigned>(day + 1);
    rec.digests.manifest_crc = 0xb0b0b0b0u - static_cast<unsigned>(day);
    rec.digests.state_bytes = 77u + static_cast<unsigned>(day);
    rec.digests.state_crc = 0xc0c0c0c0u ^ static_cast<unsigned>(day);
    rec.digests.tape_manifest_crc = 0xd0d0d0d0u + static_cast<unsigned>(day);
    contents.committed.push_back(rec);
  }
  return contents;
}

TEST(RunLogCodecTest, RoundTripsIncludingTrailingDayStarted) {
  RunLogContents contents = SampleContents();
  contents.started = 3;
  RunLogContents decoded;
  std::string error;
  ASSERT_TRUE(DecodeRunLog(EncodeRunLog(contents), &decoded, &error)) << error;
  EXPECT_EQ(decoded.config_digest, contents.config_digest);
  EXPECT_EQ(decoded.days, contents.days);
  EXPECT_EQ(decoded.started, 3);
  EXPECT_FALSE(decoded.truncated_tail);
  ASSERT_EQ(decoded.committed.size(), contents.committed.size());
  for (std::size_t i = 0; i < decoded.committed.size(); ++i) {
    EXPECT_EQ(decoded.committed[i].day, contents.committed[i].day);
    EXPECT_TRUE(decoded.committed[i].digests ==
                contents.committed[i].digests);
  }
}

TEST(RunLogCodecTest, EveryTruncationKeepsOnlyAValidPrefix) {
  const RunLogContents contents = SampleContents();
  const Bytes bytes = EncodeRunLog(contents);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const ByteView prefix(bytes.data(), len);
    RunLogContents decoded;
    std::string error;
    if (!DecodeRunLog(prefix, &decoded, &error)) {
      EXPECT_FALSE(error.empty()) << "len " << len;
      continue;  // header or config record gone: rejected outright
    }
    // Whatever survived must be a true prefix of the committed history,
    // contiguous from day 0. A cut that lands exactly on a record boundary
    // reads as a clean shorter journal (truncated_tail false); a cut
    // mid-record must be flagged.
    if (len < bytes.size() && !decoded.truncated_tail) {
      EXPECT_LT(decoded.committed.size(), contents.committed.size())
          << "len " << len;
    }
    EXPECT_EQ(decoded.config_digest, contents.config_digest);
    ASSERT_LE(decoded.committed.size(), contents.committed.size());
    for (std::size_t i = 0; i < decoded.committed.size(); ++i) {
      EXPECT_EQ(decoded.committed[i].day, static_cast<int>(i));
      EXPECT_TRUE(decoded.committed[i].digests ==
                  contents.committed[i].digests);
    }
  }
}

TEST(RunLogCodecTest, EverySingleBitFlipIsCaught) {
  const RunLogContents contents = SampleContents();
  const Bytes golden = EncodeRunLog(contents);
  for (std::size_t byte = 0; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = golden;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      RunLogContents decoded;
      std::string error;
      if (!DecodeRunLog(flipped, &decoded, &error)) continue;  // rejected
      // Accepted despite the flip: the CRCs must have cut the journal
      // back to an undamaged prefix — never silently altered data.
      EXPECT_TRUE(decoded.truncated_tail)
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(decoded.config_digest, contents.config_digest);
      ASSERT_LT(decoded.committed.size(), contents.committed.size());
      for (std::size_t i = 0; i < decoded.committed.size(); ++i) {
        EXPECT_TRUE(decoded.committed[i].digests ==
                    contents.committed[i].digests);
      }
    }
  }
}

TEST(RunLogCodecTest, RejectsStructuralViolations) {
  RunLogContents decoded;
  std::string error;
  // Committed day without its day-started predecessor.
  RunLogContents gap = SampleContents();
  gap.committed[2].day = 5;  // encoder emits started(5) after committed(1)
  EXPECT_FALSE(DecodeRunLog(EncodeRunLog(gap), &decoded, &error));
  // Empty input and bad magic.
  EXPECT_FALSE(DecodeRunLog(Bytes{}, &decoded, &error));
  Bytes wrong = EncodeRunLog(SampleContents());
  wrong[0] = 'X';
  EXPECT_FALSE(DecodeRunLog(wrong, &decoded, &error));
}

TEST(RunLogWriterTest, EnforcesDayOrderingAndPersistsDurably) {
  const std::string dir = fs::temp_directory_path() /
                          ("runlog-test-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = dir + "/RUNLOG";
  RunLog log;
  std::string error;
  ASSERT_TRUE(log.Start(path, 42, 5, &error)) << error;
  EXPECT_FALSE(log.DayStarted(1, &error));   // must start at 0
  ASSERT_TRUE(log.DayStarted(0, &error)) << error;
  EXPECT_FALSE(log.DayStarted(0, &error));   // already in flight
  EXPECT_FALSE(log.DayCommitted(1, {}, &error));
  ASSERT_TRUE(log.DayCommitted(0, {}, &error)) << error;

  RunLogContents reloaded;
  ASSERT_TRUE(RunLog::Load(path, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.LastCommitted(), 0);
  EXPECT_EQ(reloaded.started, -1);

  // Reopen drops an uncommitted in-flight day from the rewritten file.
  ASSERT_TRUE(log.DayStarted(1, &error)) << error;
  ASSERT_TRUE(RunLog::Load(path, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.started, 1);
  RunLog resumed;
  ASSERT_TRUE(resumed.Reopen(path, reloaded, &error)) << error;
  ASSERT_TRUE(RunLog::Load(path, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.started, -1);
  EXPECT_EQ(reloaded.LastCommitted(), 0);
  fs::remove_all(dir);
}

// --- fold-checkpoint battery ----------------------------------------------

class CheckpointHostileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ckpt-test-" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    HandshakeObservation obs;
    obs.domain = 3;
    obs.connected = obs.handshake_ok = obs.trusted = true;
    obs.ticket_issued = true;
    obs.stek_id = 9001;
    obs.suite = tls::CipherSuite::kEcdheWithAes128CbcSha256;
    obs.kex_value = 77;
    golden_.Fold(0, obs);
    golden_.CompleteDay(0);
    std::string error;
    ASSERT_TRUE(WriteCheckpoint(dir_, 0, golden_, &error)) << error;
    const std::string path = dir_ + "/" + CheckpointFileName(0);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  void TearDown() override { fs::remove_all(dir_); }

  void WriteRaw(ByteView bytes) {
    std::ofstream out(dir_ + "/" + CheckpointFileName(0), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
  ScanAggregates golden_;
  Bytes bytes_;
};

TEST_F(CheckpointHostileTest, EveryTruncationIsRejected) {
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    WriteRaw(ByteView(bytes_.data(), len));
    ScanAggregates decoded;
    std::string error;
    EXPECT_FALSE(ReadCheckpoint(dir_, 0, &decoded, &error))
        << "accepted a " << len << "-byte truncation";
    EXPECT_FALSE(error.empty());
  }
  // Restoring the original bytes restores readability — the failure mode
  // is rejection, not destruction, so a caller falls back cleanly.
  WriteRaw(bytes_);
  ScanAggregates decoded;
  std::string error;
  ASSERT_TRUE(ReadCheckpoint(dir_, 0, &decoded, &error)) << error;
  EXPECT_EQ(decoded.NextDay(), golden_.NextDay());
}

TEST_F(CheckpointHostileTest, EverySingleBitFlipIsRejected) {
  for (std::size_t byte = 0; byte < bytes_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = bytes_;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      WriteRaw(flipped);
      ScanAggregates decoded;
      std::string error;
      EXPECT_FALSE(ReadCheckpoint(dir_, 0, &decoded, &error))
          << "accepted flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(CheckpointHostileTest, MissingFileFallsBackNotCrashes) {
  ScanAggregates decoded;
  std::string error;
  EXPECT_FALSE(ReadCheckpoint(dir_, 7, &decoded, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tlsharm::scanner
