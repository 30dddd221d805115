#include "crypto/aes128.h"

#include <cassert>
#include <cstring>

#include "crypto/tuning.h"

#if TLSHARM_CRYPTO_X86_KERNELS
#include <immintrin.h>
#endif

namespace tlsharm::crypto {
namespace {

// S-box and inverse S-box from FIPS 197.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

std::uint8_t Xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint8_t GfMul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  while (b != 0) {
    if (b & 1) result ^= a;
    a = Xtime(a);
    b >>= 1;
  }
  return result;
}

#if TLSHARM_CRYPTO_X86_KERNELS
// AES-NI kernels. The schedule keeps each word big-endian (byte 4c of round
// key r is round_keys[4r + c] >> 24), so each 32-bit lane is byte-swapped
// into the cipher's byte order once per call, not once per block. A single
// block is CBC over one block with a zero IV.
constexpr std::uint8_t kZeroIv[kAesBlockSize] = {};

__attribute__((target("aes,ssse3"))) void LoadKeysAesNi(
    const std::uint32_t* round_keys, __m128i* keys) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i* words = reinterpret_cast<const __m128i*>(round_keys);
  for (int r = 0; r < 11; ++r) {
    keys[r] = _mm_shuffle_epi8(_mm_loadu_si128(words + r), bswap);
  }
}

// out[b] = E(in[b] ^ out[b - 1]), with out[-1] = iv; in may equal out.
__attribute__((target("aes,ssse3"))) void CbcEncryptAesNi(
    const std::uint32_t* round_keys, const std::uint8_t* iv,
    const std::uint8_t* in, std::uint8_t* out, std::size_t blocks) {
  __m128i k[11];
  LoadKeysAesNi(round_keys, k);
  const __m128i* src = reinterpret_cast<const __m128i*>(in);
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  __m128i chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  for (std::size_t b = 0; b < blocks; ++b) {
    __m128i m = _mm_xor_si128(_mm_loadu_si128(src + b), chain);
    m = _mm_xor_si128(m, k[0]);
    for (int r = 1; r < 10; ++r) m = _mm_aesenc_si128(m, k[r]);
    chain = _mm_aesenclast_si128(m, k[10]);
    _mm_storeu_si128(dst + b, chain);
  }
}

// out[b] = D(in[b]) ^ in[b - 1], with in[-1] = iv; in may equal out. The
// equivalent inverse cipher: the middle round keys pass through aesimc.
__attribute__((target("aes,ssse3"))) void CbcDecryptAesNi(
    const std::uint32_t* round_keys, const std::uint8_t* iv,
    const std::uint8_t* in, std::uint8_t* out, std::size_t blocks) {
  __m128i k[11];
  LoadKeysAesNi(round_keys, k);
  for (int r = 1; r < 10; ++r) k[r] = _mm_aesimc_si128(k[r]);
  const __m128i* src = reinterpret_cast<const __m128i*>(in);
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  __m128i chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  for (std::size_t b = 0; b < blocks; ++b) {
    const __m128i c = _mm_loadu_si128(src + b);
    __m128i m = _mm_xor_si128(c, k[10]);
    for (int r = 9; r >= 1; --r) m = _mm_aesdec_si128(m, k[r]);
    m = _mm_aesdeclast_si128(m, k[0]);
    _mm_storeu_si128(dst + b, _mm_xor_si128(m, chain));
    chain = c;
  }
}
#endif

// Checks and strips PKCS#7 padding; nullopt when it is malformed.
std::optional<Bytes> StripPadding(Bytes out) {
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > kAesBlockSize || pad > out.size()) return std::nullopt;
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) return std::nullopt;
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace

Aes128::Aes128(const Aes128Key& key) {
  for (int i = 0; i < 4; ++i) {
    round_keys_[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
                     (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<std::uint32_t>(key[4 * i + 3]);
  }
  std::uint8_t rcon = 0x01;
  for (int i = 4; i < 44; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % 4 == 0) {
      temp = (temp << 8) | (temp >> 24);  // RotWord
      temp = (static_cast<std::uint32_t>(kSbox[(temp >> 24) & 0xff]) << 24) |
             (static_cast<std::uint32_t>(kSbox[(temp >> 16) & 0xff]) << 16) |
             (static_cast<std::uint32_t>(kSbox[(temp >> 8) & 0xff]) << 8) |
             static_cast<std::uint32_t>(kSbox[temp & 0xff]);
      temp ^= static_cast<std::uint32_t>(rcon) << 24;
      rcon = Xtime(rcon);
    }
    round_keys_[i] = round_keys_[i - 4] ^ temp;
  }
}

void Aes128::EncryptBlock(const std::uint8_t* in, std::uint8_t* out) const {
#if TLSHARM_CRYPTO_X86_KERNELS
  if (AesNiKernelEnabled()) {
    CbcEncryptAesNi(round_keys_.data(), kZeroIv, in, out, 1);
    return;
  }
#endif
  EncryptBlockPortable(in, out);
}

void Aes128::DecryptBlock(const std::uint8_t* in, std::uint8_t* out) const {
#if TLSHARM_CRYPTO_X86_KERNELS
  if (AesNiKernelEnabled()) {
    CbcDecryptAesNi(round_keys_.data(), kZeroIv, in, out, 1);
    return;
  }
#endif
  DecryptBlockPortable(in, out);
}

void Aes128::EncryptBlockPortable(const std::uint8_t* in,
                                  std::uint8_t* out) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t rk = round_keys_[4 * round + c];
      s[4 * c] ^= static_cast<std::uint8_t>(rk >> 24);
      s[4 * c + 1] ^= static_cast<std::uint8_t>(rk >> 16);
      s[4 * c + 2] ^= static_cast<std::uint8_t>(rk >> 8);
      s[4 * c + 3] ^= static_cast<std::uint8_t>(rk);
    }
  };
  add_round_key(0);
  for (int round = 1; round <= 10; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[4c + r])
    std::uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    if (round != 10) {
      // MixColumns
      for (int c = 0; c < 4; ++c) {
        const std::uint8_t a0 = s[4 * c], a1 = s[4 * c + 1];
        const std::uint8_t a2 = s[4 * c + 2], a3 = s[4 * c + 3];
        s[4 * c] = static_cast<std::uint8_t>(Xtime(a0) ^ Xtime(a1) ^ a1 ^ a2 ^ a3);
        s[4 * c + 1] = static_cast<std::uint8_t>(a0 ^ Xtime(a1) ^ Xtime(a2) ^ a2 ^ a3);
        s[4 * c + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ Xtime(a3) ^ a3);
        s[4 * c + 3] = static_cast<std::uint8_t>(Xtime(a0) ^ a0 ^ a1 ^ a2 ^ Xtime(a3));
      }
    }
    add_round_key(round);
  }
  std::memcpy(out, s, 16);
}

void Aes128::DecryptBlockPortable(const std::uint8_t* in,
                                  std::uint8_t* out) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t rk = round_keys_[4 * round + c];
      s[4 * c] ^= static_cast<std::uint8_t>(rk >> 24);
      s[4 * c + 1] ^= static_cast<std::uint8_t>(rk >> 16);
      s[4 * c + 2] ^= static_cast<std::uint8_t>(rk >> 8);
      s[4 * c + 3] ^= static_cast<std::uint8_t>(rk);
    }
  };
  add_round_key(10);
  for (int round = 9; round >= 0; --round) {
    // InvShiftRows
    std::uint8_t t;
    t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
    // InvSubBytes
    for (auto& b : s) b = kInvSbox[b];
    add_round_key(round);
    if (round != 0) {
      // InvMixColumns
      for (int c = 0; c < 4; ++c) {
        const std::uint8_t a0 = s[4 * c], a1 = s[4 * c + 1];
        const std::uint8_t a2 = s[4 * c + 2], a3 = s[4 * c + 3];
        s[4 * c] = static_cast<std::uint8_t>(GfMul(a0, 14) ^ GfMul(a1, 11) ^
                                             GfMul(a2, 13) ^ GfMul(a3, 9));
        s[4 * c + 1] = static_cast<std::uint8_t>(GfMul(a0, 9) ^ GfMul(a1, 14) ^
                                                 GfMul(a2, 11) ^ GfMul(a3, 13));
        s[4 * c + 2] = static_cast<std::uint8_t>(GfMul(a0, 13) ^ GfMul(a1, 9) ^
                                                 GfMul(a2, 14) ^ GfMul(a3, 11));
        s[4 * c + 3] = static_cast<std::uint8_t>(GfMul(a0, 11) ^ GfMul(a1, 13) ^
                                                 GfMul(a2, 9) ^ GfMul(a3, 14));
      }
    }
  }
  std::memcpy(out, s, 16);
}

Bytes Aes128CbcEncrypt(const Aes128Key& key, const AesBlock& iv,
                       ByteView plaintext) {
  return Aes128CbcEncrypt(Aes128(key), iv, plaintext);
}

Bytes Aes128CbcEncrypt(const Aes128& cipher, const AesBlock& iv,
                       ByteView plaintext) {
  const std::size_t pad =
      kAesBlockSize - (plaintext.size() % kAesBlockSize);
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));
#if TLSHARM_CRYPTO_X86_KERNELS
  if (AesNiKernelEnabled()) {
    CbcEncryptAesNi(cipher.round_keys_.data(), iv.data(), padded.data(),
                    padded.data(), padded.size() / kAesBlockSize);
    return padded;
  }
#endif

  Bytes out(padded.size());
  AesBlock chain = iv;
  for (std::size_t off = 0; off < padded.size(); off += kAesBlockSize) {
    AesBlock block;
    for (std::size_t i = 0; i < kAesBlockSize; ++i) {
      block[i] = padded[off + i] ^ chain[i];
    }
    cipher.EncryptBlockPortable(block.data(), out.data() + off);
    std::memcpy(chain.data(), out.data() + off, kAesBlockSize);
  }
  return out;
}

std::optional<Bytes> Aes128CbcDecrypt(const Aes128Key& key, const AesBlock& iv,
                                      ByteView ciphertext) {
  return Aes128CbcDecrypt(Aes128(key), iv, ciphertext);
}

std::optional<Bytes> Aes128CbcDecrypt(const Aes128& cipher, const AesBlock& iv,
                                      ByteView ciphertext) {
  if (ciphertext.empty() || ciphertext.size() % kAesBlockSize != 0) {
    return std::nullopt;
  }
  Bytes out(ciphertext.size());
#if TLSHARM_CRYPTO_X86_KERNELS
  if (AesNiKernelEnabled()) {
    CbcDecryptAesNi(cipher.round_keys_.data(), iv.data(), ciphertext.data(),
                    out.data(), out.size() / kAesBlockSize);
    return StripPadding(std::move(out));
  }
#endif
  AesBlock chain = iv;
  for (std::size_t off = 0; off < ciphertext.size(); off += kAesBlockSize) {
    AesBlock block;
    cipher.DecryptBlockPortable(ciphertext.data() + off, block.data());
    for (std::size_t i = 0; i < kAesBlockSize; ++i) {
      out[off + i] = block[i] ^ chain[i];
    }
    std::memcpy(chain.data(), ciphertext.data() + off, kAesBlockSize);
  }
  return StripPadding(std::move(out));
}

Aes128Key ToAesKey(ByteView b) {
  assert(b.size() == kAes128KeySize);
  Aes128Key key;
  std::memcpy(key.data(), b.data(), kAes128KeySize);
  return key;
}

AesBlock ToAesBlock(ByteView b) {
  assert(b.size() == kAesBlockSize);
  AesBlock block;
  std::memcpy(block.data(), b.data(), kAesBlockSize);
  return block;
}

}  // namespace tlsharm::crypto
