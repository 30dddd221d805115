// HMAC-SHA-256 (RFC 2104 / FIPS 198-1), from scratch.
//
// Used for session-ticket integrity (RFC 5077 recommends HMAC-SHA-256 with a
// 256-bit key), record MACs, the TLS 1.2 PRF and the HMAC-DRBG.
//
// The context keeps the SHA-256 midstates reached after compressing the
// ipad and opad key blocks, computed once per key as raw chaining words.
// Each message resumes from the inner midstate, and the outer hash is one
// fixed block (the inner digest, its padding and length) compressed from
// the outer midstate: a context that MACs many messages under one key (the
// PRF's A(i) chain, the DRBG, ticket MACs) pays the key schedule exactly
// once and then only the message's own compressions, one inner and one
// outer for a message of at most 55 bytes. ReferenceHmacSha256Mac keeps
// the naive construction as the differential-test baseline; both produce
// identical bytes for every (key, message).
#pragma once

#include <initializer_list>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace tlsharm::crypto {

class HmacSha256 {
 public:
  // An unkeyed context; call SetKey before any other use.
  HmacSha256() = default;
  explicit HmacSha256(ByteView key) { SetKey(key); }

  // Re-keys the context, recomputing both midstates.
  void SetKey(ByteView key);

  // HMAC(key, concatenation of `parts`).
  Sha256Digest Mac(std::initializer_list<ByteView> parts) const;

 private:
  Sha256State inner_mid_{};  // after compressing key ^ ipad
  Sha256State outer_mid_{};  // after compressing key ^ opad
};

// One-shot convenience.
Sha256Digest HmacSha256Mac(ByteView key, ByteView data);
Bytes HmacSha256Bytes(ByteView key, ByteView data);

// The pre-optimization construction (fresh key-block hashing per call),
// kept as the reference implementation for differential tests.
Sha256Digest ReferenceHmacSha256Mac(ByteView key, ByteView data);

}  // namespace tlsharm::crypto
