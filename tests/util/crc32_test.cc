#include "util/crc32.h"

#include <gtest/gtest.h>

namespace tlsharm {
namespace {

TEST(Crc32Test, KnownAnswerVectors) {
  // The standard IEEE 802.3 check value plus a few fixed points.
  EXPECT_EQ(Crc32(ToBytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(ToBytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(ToBytes("a")), 0xe8b7be43u);
  EXPECT_EQ(Crc32(ToBytes("abc")), 0x352441c2u);
  EXPECT_EQ(Crc32(Bytes(32, 0x00)), 0x190a55adu);
  EXPECT_EQ(Crc32(Bytes(32, 0xff)), 0xff6cab0bu);
}

TEST(Crc32Test, StreamingMatchesWholeBuffer) {
  const Bytes data = ToBytes("the quick brown fox jumps over the lazy dog");
  const std::uint32_t whole = Crc32(data);
  // Any chunking must produce the same digest.
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = Crc32Init();
    state = Crc32Update(state, ByteView(data.data(), split));
    state = Crc32Update(
        state, ByteView(data.data() + split, data.size() - split));
    EXPECT_EQ(Crc32Final(state), whole) << "split at " << split;
  }
}

// The definition, one bit at a time, with no tables.
std::uint32_t BitwiseCrc32(ByteView data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedTablesMatchTheBitwiseDefinition) {
  // Every length through several 8-byte strides plus both tails, at every
  // start offset within a word, so the sliced loop, the byte tail and
  // their hand-off are all compared against the definition.
  Bytes data(300);
  std::uint32_t x = 0x9e3779b9u;
  for (std::uint8_t& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; start + len <= data.size(); ++len) {
      const ByteView view(data.data() + start, len);
      ASSERT_EQ(Crc32(view), BitwiseCrc32(view))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32Test, EveryBitFlipChangesTheDigest) {
  const Bytes data = ToBytes("segment payload bytes");
  const std::uint32_t clean = Crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = data;
      flipped[i] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(Crc32(flipped), clean) << "byte " << i << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace tlsharm
