// HMAC-DRBG (NIST SP 800-90A, HMAC-SHA-256 instantiation), from scratch.
//
// All "cryptographic" randomness in the TLS stack (hello randoms, session
// IDs, STEKs, ephemeral exponents, IVs) is drawn from a Drbg. Simulation
// runs seed it deterministically so studies replay; nothing in the stack
// depends on the seed source.
#pragma once

#include "crypto/hmac.h"
#include "util/bytes.h"

namespace tlsharm::crypto {

class Drbg {
 public:
  // Instantiates from seed material (entropy || nonce || personalization).
  explicit Drbg(ByteView seed_material);

  // Generates `n` pseudorandom bytes.
  Bytes Generate(std::size_t n);

  // Mixes additional entropy into the state.
  void Reseed(ByteView seed_material);

  // Uniform integer in [0, bound), bound > 0; rejection-sampled.
  std::uint64_t UniformInt(std::uint64_t bound);

 private:
  void Update(ByteView provided);
  // Returns the context keyed with key_, (re)keying it first if a
  // reference-mode call changed the key behind its back.
  const HmacSha256& KeyedHmac();

  Sha256Digest key_{};  // K, initially all zero
  Sha256Digest v_;      // V, initially all 0x01
  // Midstate-cached HMAC keyed with key_ (optimized path): Generate's
  // V = HMAC(K, V) chain reuses it instead of rehashing K per call. An
  // optimized-mode instance starts from a copy of the process-wide
  // zero-key context instead of keying it again.
  HmacSha256 hmac_;
  bool hmac_keyed_ = false;
};

}  // namespace tlsharm::crypto
