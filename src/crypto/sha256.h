// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the HMAC, the TLS 1.2 PRF, handshake transcript hashing, Schnorr
// certificate signatures, and STEK-identifier derivation.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace tlsharm::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

// Incremental hashing context.
class Sha256 {
 public:
  Sha256();

  void Update(ByteView data);

  // Finalizes and returns the digest. The context must not be reused after
  // Finish() without Reset().
  Sha256Digest Finish();

  void Reset();

 private:
  // Compresses `n` whole blocks into state_: the SHA-NI kernel when it is
  // enabled (crypto/tuning.h), else ProcessBlock per block.
  void Compress(const std::uint8_t* blocks, std::size_t n);
  // The portable compression: the reference path and the fallback.
  void ProcessBlock(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// One-shot convenience.
Sha256Digest Sha256Hash(ByteView data);
Bytes Sha256HashBytes(ByteView data);

}  // namespace tlsharm::crypto
