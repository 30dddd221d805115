// HMAC-SHA-256 against RFC 4231 test cases.
#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "util/hex.h"

namespace tlsharm::crypto {
namespace {

std::string MacHex(ByteView key, ByteView data) {
  const Sha256Digest d = HmacSha256Mac(key, data);
  return HexEncode(ByteView(d.data(), d.size()));
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(MacHex(key, ToBytes("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      MacHex(ToBytes("Jefe"), ToBytes("what do ya want for nothing?")),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(MacHex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  const Bytes key = MustHexDecode("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const Bytes data(50, 0xcd);
  EXPECT_EQ(MacHex(key, data),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(MacHex(key, ToBytes("Test Using Larger Than Block-Size Key - "
                                "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      MacHex(key,
             ToBytes("This is a test using a larger than block-size key and a "
                     "larger than block-size data. The key needs to be hashed "
                     "before being used by the HMAC algorithm.")),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, IncrementalMatchesOneShot) {
  const Bytes key = ToBytes("key-material");
  const Bytes data = ToBytes("message to authenticate in pieces");
  const HmacSha256 ctx(key);
  const Sha256Digest inc = ctx.Mac({ByteView(data.data(), 10),
                                    ByteView(data.data() + 10,
                                             data.size() - 10)});
  const Sha256Digest one = HmacSha256Mac(key, data);
  EXPECT_EQ(HexEncode(ByteView(inc.data(), inc.size())),
            HexEncode(ByteView(one.data(), one.size())));
}

TEST(HmacTest, ResetRestartsWithSameKey) {
  // A keyed context MACs any number of messages under its key.
  const Bytes key = ToBytes("k");
  const HmacSha256 ctx(key);
  (void)ctx.Mac({ToBytes("first")});
  const Sha256Digest again = ctx.Mac({ToBytes("second")});
  const Sha256Digest fresh = HmacSha256Mac(key, ToBytes("second"));
  EXPECT_EQ(HexEncode(ByteView(again.data(), again.size())),
            HexEncode(ByteView(fresh.data(), fresh.size())));
}

TEST(HmacTest, DifferentKeysDiffer) {
  const Bytes data = ToBytes("same data");
  EXPECT_NE(MacHex(ToBytes("key1"), data), MacHex(ToBytes("key2"), data));
}

}  // namespace
}  // namespace tlsharm::crypto
