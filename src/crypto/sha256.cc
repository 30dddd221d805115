#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/tuning.h"

#if TLSHARM_CRYPTO_X86_KERNELS
#include <immintrin.h>
#endif

namespace tlsharm::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t Rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// `x` with its bytes in big-endian order in memory.
template <typename T>
T ToBigEndian(T x) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(x);
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(x);
  }
  return x;
}

#if TLSHARM_CRYPTO_X86_KERNELS
// SHA-NI compression of `n` blocks. The state lives in two registers as
// ABEF and CDGH; each sha256rnds2 runs two rounds, and msg1/msg2 extend
// the message schedule four words at a time, so group i (rounds 4i..4i+3)
// finishes the words of group i+1 and starts those of group i+3.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i* k = reinterpret_cast<const __m128i*>(kK);
  __m128i* st = reinterpret_cast<__m128i*>(state);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(st), 0xb1);  // CDAB
  __m128i state1 = _mm_shuffle_epi32(_mm_loadu_si128(st + 1), 0x1b);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);       // CDGH
  for (; n > 0; --n, blocks += kSha256BlockSize) {
    const __m128i* in = reinterpret_cast<const __m128i*>(blocks);
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) w[i] = _mm_shuffle_epi8(_mm_loadu_si128(in + i), bswap);
      __m128i msg = _mm_add_epi32(w[i & 3], _mm_loadu_si128(k + i));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (i >= 3 && i <= 14) {
        __m128i& next = w[(i + 1) & 3];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[i & 3], w[(i + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[i & 3]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (i >= 1 && i <= 12) {
        w[(i + 3) & 3] = _mm_sha256msg1_epu32(w[(i + 3) & 3], w[i & 3]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }
  tmp = _mm_shuffle_epi32(state0, 0x1b);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(st, state0);
  _mm_storeu_si128(st + 1, state1);
}
#endif

// The portable compression: the reference path and the fallback.
void ProcessBlock(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

Sha256::Sha256() { Reset(); }


void Sha256::Reset() {
  state_ = kSha256InitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Compress(Sha256State& state, const std::uint8_t* blocks,
                      std::size_t n) {
#if TLSHARM_CRYPTO_X86_KERNELS
  if (ShaNiKernelEnabled()) {
    CompressShaNi(state.data(), blocks, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    ProcessBlock(state.data(), blocks + i * kSha256BlockSize);
  }
}

Sha256Digest Sha256::DigestOf(const Sha256State& state) {
  // One byte swap and one 4-byte store per word: GCC vectorizes the
  // byte-by-byte form into a long shuffle sequence.
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = ToBigEndian(state[i]);
    std::memcpy(digest.data() + 4 * i, &word, sizeof(word));
  }
  return digest;
}

void Sha256::Update(ByteView data) {
  if (data.empty()) return;  // also: memcpy from a null span is UB
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(data.size(), kSha256BlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kSha256BlockSize) {
      Compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / kSha256BlockSize;
  if (blocks > 0) {
    Compress(state_, data.data() + offset, blocks);
    offset += blocks * kSha256BlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::Finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  if (ReferenceCryptoEnabled()) {
    // Original padding: one Update() call per pad byte. Kept as the naive
    // baseline for the differential harness.
    const std::uint8_t pad_byte = 0x80;
    Update(ByteView(&pad_byte, 1));
    const std::uint8_t zero = 0x00;
    while (buffer_len_ != 56) Update(ByteView(&zero, 1));
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) {
      len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
    Update(ByteView(len_bytes, 8));
    Sha256Digest digest;
    for (int i = 0; i < 8; ++i) {
      digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
      digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return digest;
  }
  // Pads in place: the 0x80 byte, the zero run and the length field go into
  // buffer_ itself (a second block only when the tail leaves fewer than 8
  // bytes free), identical digest without ~56 per-byte Update() round-trips
  // or a copy of the tail.
  std::uint8_t* block = buffer_.data();
  block[buffer_len_++] = 0x80;
  if (buffer_len_ > kSha256BlockSize - 8) {
    std::memset(block + buffer_len_, 0, kSha256BlockSize - buffer_len_);
    Compress(state_, block, 1);
    buffer_len_ = 0;
  }
  std::memset(block + buffer_len_, 0, kSha256BlockSize - 8 - buffer_len_);
  const std::uint64_t bit_len_be = ToBigEndian(bit_len);
  std::memcpy(block + kSha256BlockSize - 8, &bit_len_be, 8);
  Compress(state_, block, 1);
  return DigestOf(state_);
}

Sha256Digest Sha256Hash(ByteView data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

Bytes Sha256HashBytes(ByteView data) {
  const Sha256Digest d = Sha256Hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace tlsharm::crypto
