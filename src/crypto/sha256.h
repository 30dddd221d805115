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
// The eight chaining words between blocks (a midstate).
using Sha256State = std::array<std::uint32_t, 8>;
inline constexpr Sha256State kSha256InitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Incremental hashing context.
class Sha256 {
 public:
  Sha256();
  // Resumes from `midstate`, reached after hashing `bytes_hashed` bytes (a
  // whole number of blocks).
  Sha256(const Sha256State& midstate, std::uint64_t bytes_hashed)
      : state_(midstate), total_len_(bytes_hashed) {}

  void Update(ByteView data);

  // Finalizes and returns the digest. The context must not be reused after
  // Finish() without Reset().
  Sha256Digest Finish();

  void Reset();

  // Compresses `n` whole blocks into `state`: the SHA-NI kernel when it is
  // enabled (crypto/tuning.h), else the portable compression per block.
  static void Compress(Sha256State& state, const std::uint8_t* blocks,
                       std::size_t n);
  // The big-endian serialization of `state`.
  static Sha256Digest DigestOf(const Sha256State& state);

 private:
  Sha256State state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// One-shot convenience.
Sha256Digest Sha256Hash(ByteView data);
Bytes Sha256HashBytes(ByteView data);

}  // namespace tlsharm::crypto
