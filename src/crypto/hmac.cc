#include "crypto/hmac.h"

#include <cstring>

#include "crypto/tuning.h"
#include "obs/prof.h"

namespace tlsharm::crypto {
namespace {

const obs::ProfSite kProfHmac("crypto.hmac", obs::kProfNoTrace);

// Expands `key` to one block (hashing it down first if longer, per the
// RFC) and XORs in the pad byte.
std::array<std::uint8_t, kSha256BlockSize> PadKey(ByteView key,
                                                  std::uint8_t pad) {
  std::array<std::uint8_t, kSha256BlockSize> block_key{};
  if (key.size() > kSha256BlockSize) {
    const Sha256Digest hashed = Sha256Hash(key);
    std::memcpy(block_key.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(block_key.data(), key.data(), key.size());
  }
  for (auto& b : block_key) b ^= pad;
  return block_key;
}

}  // namespace

void HmacSha256::SetKey(ByteView key) {
  const auto ipad_key = PadKey(key, 0x36);
  const auto opad_key = PadKey(key, 0x5c);
  inner_mid_ = kSha256InitialState;
  Sha256::Compress(inner_mid_, ipad_key.data(), 1);
  outer_mid_ = kSha256InitialState;
  Sha256::Compress(outer_mid_, opad_key.data(), 1);
}

Sha256Digest HmacSha256::Mac(std::initializer_list<ByteView> parts) const {
  Sha256 inner(inner_mid_, kSha256BlockSize);
  for (const ByteView part : parts) inner.Update(part);
  const Sha256Digest inner_digest = inner.Finish();
  // The outer hash, one block from the opad midstate: inner digest || 0x80
  // || zeros || bit length of (opad block + digest).
  std::uint8_t block[kSha256BlockSize] = {};
  std::memcpy(block, inner_digest.data(), kSha256DigestSize);
  block[kSha256DigestSize] = 0x80;
  constexpr std::uint64_t kBits = (kSha256BlockSize + kSha256DigestSize) * 8;
  block[kSha256BlockSize - 2] = static_cast<std::uint8_t>(kBits >> 8);
  block[kSha256BlockSize - 1] = static_cast<std::uint8_t>(kBits);
  Sha256State state = outer_mid_;
  Sha256::Compress(state, block, 1);
  return Sha256::DigestOf(state);
}

Sha256Digest ReferenceHmacSha256Mac(ByteView key, ByteView data) {
  std::array<std::uint8_t, kSha256BlockSize> block_key{};
  if (key.size() > kSha256BlockSize) {
    const Sha256Digest hashed = Sha256Hash(key);
    std::memcpy(block_key.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(block_key.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, kSha256BlockSize> ipad_key;
  std::array<std::uint8_t, kSha256BlockSize> opad_key;
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad_key[i] = block_key[i] ^ 0x36;
    opad_key[i] = block_key[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ByteView(ipad_key.data(), ipad_key.size()));
  inner.Update(data);
  const Sha256Digest inner_digest = inner.Finish();
  Sha256 outer;
  outer.Update(ByteView(opad_key.data(), opad_key.size()));
  outer.Update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

Sha256Digest HmacSha256Mac(ByteView key, ByteView data) {
  obs::ProfScope prof_span(kProfHmac);
  if (ReferenceCryptoEnabled()) return ReferenceHmacSha256Mac(key, data);
  return HmacSha256(key).Mac({data});
}

Bytes HmacSha256Bytes(ByteView key, ByteView data) {
  const Sha256Digest d = HmacSha256Mac(key, data);
  return Bytes(d.begin(), d.end());
}

}  // namespace tlsharm::crypto
