#include "crypto/prf.h"

#include <string>
#include <unordered_map>

#include "crypto/hmac.h"
#include "crypto/tuning.h"
#include "obs/prof.h"

namespace tlsharm::crypto {
namespace {

// Histogram-only span sites (too hot for per-call trace events); file
// scope so the disabled path pays no static-init guard.
const obs::ProfSite kProfPrf("crypto.prf", obs::kProfNoTrace);

// The original P_SHA256: a fresh HMAC instantiation (and key-block hash)
// per call. Kept as the naive baseline for the differential harness.
Bytes Tls12PrfReference(ByteView secret, ByteView label_seed,
                        std::size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  Bytes a = HmacSha256Bytes(secret, label_seed);
  while (out.size() < out_len) {
    const Bytes chunk = HmacSha256Bytes(secret, Concat({a, label_seed}));
    const std::size_t take = std::min(chunk.size(), out_len - out.size());
    out.insert(out.end(), chunk.begin(), chunk.begin() + take);
    a = HmacSha256Bytes(secret, a);
  }
  return out;
}

// PRF(secret, label, seed_a || seed_b): the seed comes in two parts so the
// derivations over two randoms need not concatenate them first.
Bytes Prf(ByteView secret, std::string_view label, ByteView seed_a,
          ByteView seed_b, std::size_t out_len) {
  // The span covers the reference and the memoized path alike so the
  // tuning switch's effect is visible in the wall-clock report.
  obs::ProfScope prof_span(kProfPrf);
  // P_SHA256(secret, label || seed): A(0) = label||seed,
  // A(i) = HMAC(secret, A(i-1)), output = HMAC(secret, A(i) || label||seed).
  const ByteView label_bytes(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size());
  if (ReferenceCryptoEnabled()) {
    return Tls12PrfReference(secret, Concat({label_bytes, seed_a, seed_b}),
                             out_len);
  }
  // Cross-call memoization. The PRF is a pure function, and the simulated
  // client and terminator each derive the same master secret and key block
  // from the same inputs within one process — the second derivation is a
  // cache hit. Purity means cache state can never change an output, so
  // results stay byte-identical at any thread count; the cache is
  // thread-local (no synchronization) and bounded (cleared when full).
  // The key is built in one reused buffer, so a lookup allocates nothing.
  thread_local std::unordered_map<std::string, Bytes> memo;
  thread_local std::string memo_key;
  memo_key.clear();
  const auto append_len = [](std::size_t n) {
    memo_key.push_back(static_cast<char>(n >> 8));
    memo_key.push_back(static_cast<char>(n));
  };
  const auto append_bytes = [](ByteView b) {
    if (!b.empty()) {
      memo_key.append(reinterpret_cast<const char*>(b.data()), b.size());
    }
  };
  append_len(secret.size());
  append_bytes(secret);
  append_len(label_bytes.size() + seed_a.size() + seed_b.size());
  append_bytes(label_bytes);
  append_bytes(seed_a);
  append_bytes(seed_b);
  append_len(out_len);
  if (const auto it = memo.find(memo_key); it != memo.end()) {
    return it->second;
  }
  // One keyed context for the whole A(i) chain: the ipad/opad midstates are
  // computed once, and each A(i+1) = HMAC(secret, A(i)) is one compression
  // each way.
  const HmacSha256 hmac(secret);
  Bytes out;
  out.reserve(out_len);
  Sha256Digest a = hmac.Mac({label_bytes, seed_a, seed_b});
  for (;;) {
    const Sha256Digest chunk = hmac.Mac({a, label_bytes, seed_a, seed_b});
    const std::size_t take = std::min(chunk.size(), out_len - out.size());
    out.insert(out.end(), chunk.begin(), chunk.begin() + take);
    if (out.size() >= out_len) break;
    a = hmac.Mac({a});
  }
  if (memo.size() >= 4096) memo.clear();
  memo.emplace(memo_key, out);
  return out;
}

}  // namespace

Bytes Tls12Prf(ByteView secret, std::string_view label, ByteView seed,
               std::size_t out_len) {
  return Prf(secret, label, seed, {}, out_len);
}

Bytes DeriveMasterSecret(ByteView premaster, ByteView client_random,
                         ByteView server_random) {
  return Prf(premaster, "master secret", client_random, server_random, 48);
}

Bytes DeriveKeyBlock(ByteView master_secret, ByteView server_random,
                     ByteView client_random, std::size_t out_len) {
  // Note RFC 5246 orders the seed server_random || client_random here.
  return Prf(master_secret, "key expansion", server_random, client_random,
             out_len);
}

Bytes ComputeVerifyData(ByteView master_secret, std::string_view label,
                        ByteView transcript_hash) {
  return Tls12Prf(master_secret, label, transcript_hash, 12);
}

}  // namespace tlsharm::crypto
