#include "crypto/drbg.h"

#include <cassert>

#include "crypto/tuning.h"

namespace tlsharm::crypto {
namespace {

// HMAC keyed with the all-zero initial K: the same midstates for every
// instance in the process.
const HmacSha256& ZeroKeyHmac() {
  static const HmacSha256 zero_key(Sha256Digest{});
  return zero_key;
}

}  // namespace

Drbg::Drbg(ByteView seed_material) {
  v_.fill(0x01);
  if (!ReferenceCryptoEnabled()) {
    hmac_ = ZeroKeyHmac();
    hmac_keyed_ = true;
  }
  Update(seed_material);
}

const HmacSha256& Drbg::KeyedHmac() {
  if (!hmac_keyed_) {
    hmac_.SetKey(key_);
    hmac_keyed_ = true;
  }
  return hmac_;
}

void Drbg::Update(ByteView provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V)
  if (ReferenceCryptoEnabled()) {
    Bytes data = Concat({v_, Bytes{0x00}, provided});
    key_ = HmacSha256Mac(key_, data);
    v_ = HmacSha256Mac(key_, v_);
    if (!provided.empty()) {
      data = Concat({v_, Bytes{0x01}, provided});
      key_ = HmacSha256Mac(key_, data);
      v_ = HmacSha256Mac(key_, v_);
    }
    hmac_keyed_ = false;  // key_ changed without re-keying hmac_
    return;
  }
  const std::uint8_t rounds = provided.empty() ? 1 : 2;
  for (std::uint8_t round = 0; round < rounds; ++round) {
    const std::uint8_t sep[1] = {round};
    key_ = KeyedHmac().Mac({v_, ByteView(sep, 1), provided});
    hmac_.SetKey(key_);
    v_ = hmac_.Mac({v_});
  }
}

void Drbg::Reseed(ByteView seed_material) { Update(seed_material); }

Bytes Drbg::Generate(std::size_t n) {
  Bytes out;
  out.reserve(n);
  if (ReferenceCryptoEnabled()) {
    while (out.size() < n) {
      v_ = HmacSha256Mac(key_, v_);
      const std::size_t take = std::min(v_.size(), n - out.size());
      out.insert(out.end(), v_.begin(), v_.begin() + take);
    }
    Update({});
    return out;
  }
  const HmacSha256& hmac = KeyedHmac();
  while (out.size() < n) {
    v_ = hmac.Mac({v_});
    const std::size_t take = std::min(v_.size(), n - out.size());
    out.insert(out.end(), v_.begin(), v_.begin() + take);
  }
  Update({});
  return out;
}

std::uint64_t Drbg::UniformInt(std::uint64_t bound) {
  assert(bound > 0);
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const Bytes b = Generate(8);
    const std::uint64_t r = ReadUint(b, 0, 8);
    if (r >= threshold) return r % bound;
  }
}

}  // namespace tlsharm::crypto
