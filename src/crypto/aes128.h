// AES-128 (FIPS 197) block cipher plus CBC mode with PKCS#7 padding
// (NIST SP 800-38A), from scratch.
//
// RFC 5077's recommended ticket construction encrypts the serialized session
// state with AES-128-CBC; the simulated record layer uses the same primitive
// for application data so that stolen STEKs genuinely decrypt captured
// traffic in the attack benches.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/bytes.h"

namespace tlsharm::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAes128KeySize = 16;

using AesBlock = std::array<std::uint8_t, kAesBlockSize>;
using Aes128Key = std::array<std::uint8_t, kAes128KeySize>;

// Expanded-key AES-128 context. Blocks run on the AES-NI kernel when it is
// enabled (crypto/tuning.h), else on the portable byte-wise cipher.
class Aes128 {
 public:
  explicit Aes128(const Aes128Key& key);

  void EncryptBlock(const std::uint8_t* in, std::uint8_t* out) const;
  void DecryptBlock(const std::uint8_t* in, std::uint8_t* out) const;

 private:
  // The CBC loops load the AES-NI key registers once per call.
  friend Bytes Aes128CbcEncrypt(const Aes128& cipher, const AesBlock& iv,
                                ByteView plaintext);
  friend std::optional<Bytes> Aes128CbcDecrypt(const Aes128& cipher,
                                               const AesBlock& iv,
                                               ByteView ciphertext);

  // The portable cipher: the reference path and the fallback.
  void EncryptBlockPortable(const std::uint8_t* in, std::uint8_t* out) const;
  void DecryptBlockPortable(const std::uint8_t* in, std::uint8_t* out) const;

  std::array<std::uint32_t, 44> round_keys_;
};

// CBC with PKCS#7 padding. The IV is prepended by callers (the ticket codec
// and record layer carry the IV explicitly per their formats).
Bytes Aes128CbcEncrypt(const Aes128Key& key, const AesBlock& iv,
                       ByteView plaintext);

// Returns nullopt on malformed length or bad padding.
std::optional<Bytes> Aes128CbcDecrypt(const Aes128Key& key, const AesBlock& iv,
                                      ByteView ciphertext);

// Same modes over an already-expanded cipher context, so callers that
// encrypt many payloads under one key (a STEK epoch) pay the key schedule
// once instead of per call. Identical output to the key-taking overloads.
Bytes Aes128CbcEncrypt(const Aes128& cipher, const AesBlock& iv,
                       ByteView plaintext);
std::optional<Bytes> Aes128CbcDecrypt(const Aes128& cipher, const AesBlock& iv,
                                      ByteView ciphertext);

// Helpers to adapt Bytes-typed key/IV material (asserts on size mismatch).
Aes128Key ToAesKey(ByteView b);
AesBlock ToAesBlock(ByteView b);

}  // namespace tlsharm::crypto
