// Differential known-answer tests: every optimized crypto path against its
// naive reference counterpart, over random inputs and the adversarial edge
// cases (exponents 0, 1, powers of two, group order +/- 1; messages that
// straddle the SHA-256 padding boundary). These are the correctness gate
// for the windowed Montgomery exponentiation, the midstate-cached HMAC,
// the single-pass SHA-256 padding, the PRF memo and the SHA-NI / AES-NI
// kernels: all must be byte-identical to the originals for every input.
// On a CPU without the extensions the kernel cases compare the portable
// code with itself; DifferentialKernels prints which kernels ran.
#include <gtest/gtest.h>

#include <cstdio>

#include "crypto/aes128.h"
#include "crypto/biguint.h"
#include "crypto/drbg.h"
#include "crypto/ffdh.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "crypto/tuning.h"
#include "util/hex.h"
#include "util/rng.h"

namespace tlsharm::crypto {
namespace {

// Restores the global reference-crypto flag on scope exit, so a failing
// assertion can't leak reference mode into later tests.
class ReferenceGuard {
 public:
  ReferenceGuard() : saved_(ReferenceCryptoEnabled()) {}
  ~ReferenceGuard() { SetReferenceCrypto(saved_); }

 private:
  bool saved_;
};

std::vector<BigUInt> EdgeExponents(const BigUInt& q) {
  std::vector<BigUInt> exps;
  exps.push_back(BigUInt());  // zero
  exps.push_back(BigUInt::FromU64(1));
  exps.push_back(BigUInt::FromU64(2));
  // Powers of two: a single set bit at every interesting alignment —
  // window boundaries, limb boundaries.
  for (const std::size_t bit : {1u, 3u, 4u, 7u, 31u, 63u, 64u, 127u}) {
    if (bit + 1 >= q.BitLength()) continue;
    BigUInt e = BigUInt::FromU64(1);
    for (std::size_t i = 0; i < bit; ++i) e = e.ShiftLeft1();
    exps.push_back(e);
  }
  // Group order and its neighbours: maximal runs of set/clear low bits.
  exps.push_back(BigUInt::Sub(q, BigUInt::FromU64(1)));
  exps.push_back(q);
  exps.push_back(BigUInt::Add(q, BigUInt::FromU64(1)));
  return exps;
}

void CheckGroup(const FfdhParams& params) {
  ReferenceGuard guard;
  SetReferenceCrypto(false);

  const BigUInt p = BigUInt::FromHex(params.p_hex);
  const BigUInt q = BigUInt::FromHex(params.q_hex);
  const BigUInt g = BigUInt::FromU64(params.g);
  const Montgomery mont(p);
  const Montgomery::FixedBaseTable g_table =
      mont.PrecomputeFixedBase(g, q.BitLength());

  Drbg drbg(ToBytes("differential-modexp"));
  std::vector<BigUInt> bases = {BigUInt(), BigUInt::FromU64(1), g,
                                BigUInt::Sub(p, BigUInt::FromU64(1))};
  const Montgomery mont_q(q);
  for (int i = 0; i < 8; ++i) {
    bases.push_back(mont.ReduceBytes(drbg.Generate(p.ToBytes().size() + 8)));
  }
  std::vector<BigUInt> exps = EdgeExponents(q);
  for (int i = 0; i < 8; ++i) {
    exps.push_back(mont_q.ReduceBytes(drbg.Generate(q.ToBytes().size() + 8)));
  }

  for (const BigUInt& base : bases) {
    const Montgomery::OddPowers odd = mont.PrecomputeOddPowers(base);
    const Montgomery::WindowTable win = mont.PrecomputeWindowTable(base);
    for (const BigUInt& e : exps) {
      const BigUInt want = mont.PowModReference(base, e);
      // Dispatching entry point, optimized mode (covers the single-limb
      // sliding-window path for sim61 and the multi-limb path for sim256).
      EXPECT_EQ(mont.PowMod(base, e), want)
          << base.ToHex() << "^" << e.ToHex();
      EXPECT_EQ(mont.PowModWindowed(odd, e), want)
          << base.ToHex() << "^" << e.ToHex();
      // Shamir double exponentiation against two independent references.
      const BigUInt eb = exps[(&e - exps.data() + 1) % exps.size()];
      const Montgomery::WindowTable wg = mont.PrecomputeWindowTable(g);
      EXPECT_EQ(mont.PowModDouble(win, e, wg, eb),
                mont.MulMod(want, mont.PowModReference(g, eb)))
          << base.ToHex() << "^" << e.ToHex() << " * g^" << eb.ToHex();
    }
  }
  // Fixed-base: exponents must fit the table width.
  for (const BigUInt& e : exps) {
    if (e.BitLength() > g_table.MaxExpBits()) continue;
    EXPECT_EQ(mont.PowModFixedBase(g_table, e), mont.PowModReference(g, e))
        << "g^" << e.ToHex();
  }
  // And the dispatching entry point in reference mode is the reference.
  SetReferenceCrypto(true);
  EXPECT_EQ(mont.PowMod(g, exps.back()),
            mont.PowModReference(g, exps.back()));
}

TEST(DifferentialModexp, Sim61GroupAllPathsMatchReference) {
  CheckGroup(FfdhSim61Params());
}

TEST(DifferentialModexp, Sim256GroupAllPathsMatchReference) {
  CheckGroup(FfdhSim256Params());
}

// --- HMAC midstate caching vs the naive construction -----------------------

struct Rfc4231Case {
  Bytes key;
  Bytes data;
  const char* mac_hex;
};

std::vector<Rfc4231Case> Rfc4231Cases() {
  return {
      {Bytes(20, 0x0b), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {MustHexDecode("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       ToBytes("This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(DifferentialHmac, MidstateMatchesReferenceOnRfc4231Vectors) {
  ReferenceGuard guard;
  SetReferenceCrypto(false);
  for (const Rfc4231Case& c : Rfc4231Cases()) {
    const Sha256Digest ref = ReferenceHmacSha256Mac(c.key, c.data);
    EXPECT_EQ(HexEncode(ByteView(ref.data(), ref.size())), c.mac_hex);
    // Midstate-cached context, first use and after Reset.
    HmacSha256 ctx(c.key);
    ctx.Update(c.data);
    const Sha256Digest first = ctx.Finish();
    ctx.Reset();
    ctx.Update(c.data);
    const Sha256Digest again = ctx.Finish();
    EXPECT_EQ(first, ref);
    EXPECT_EQ(again, ref);
    EXPECT_EQ(HmacSha256Mac(c.key, c.data), ref);
  }
}

TEST(DifferentialHmac, MidstateMatchesReferenceOnRandomLengths) {
  ReferenceGuard guard;
  Drbg drbg(ToBytes("differential-hmac"));
  // Keys from empty through digest- and block-sized to one past a block
  // (hashed first) and several blocks; the reference runs the naive
  // construction on the portable SHA-256 compression.
  for (std::size_t key_len : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 131u, 200u}) {
    const Bytes key = drbg.Generate(key_len);
    for (std::size_t msg_len = 0; msg_len < 130; msg_len += 7) {
      const Bytes msg = drbg.Generate(msg_len);
      SetReferenceCrypto(true);
      const Sha256Digest ref = ReferenceHmacSha256Mac(key, msg);
      SetReferenceCrypto(false);
      EXPECT_EQ(HmacSha256Mac(key, msg), ref)
          << "key " << key_len << "B, msg " << msg_len << "B";
      EXPECT_EQ(ReferenceHmacSha256Mac(key, msg), ref);
    }
  }
}

// --- The active kernels ----------------------------------------------------

TEST(DifferentialKernels, ReferenceModeRunsOnlyPortableCode) {
  ReferenceGuard guard;
  SetReferenceCrypto(false);
  // Printed so that a run on a CPU without SHA-NI or AES-NI does not read
  // as a check of the hardware kernels.
  std::printf("optimized crypto kernels: %s\n", ActiveCryptoKernels().c_str());
  SetReferenceCrypto(true);
  EXPECT_FALSE(ShaNiKernelEnabled());
  EXPECT_FALSE(AesNiKernelEnabled());
  EXPECT_EQ(ActiveCryptoKernels(), "sha256=portable aes=portable");
}

// --- SHA-256: single-pass padding and SHA-NI vs the byte-at-a-time original --

// Hashes `msg` through Update calls of random lengths, 1..200 bytes.
Sha256Digest HashInPieces(ByteView msg, Rng& rng) {
  Sha256 ctx;
  for (std::size_t off = 0; off < msg.size();) {
    const std::size_t take =
        1 + rng.UniformInt(std::min<std::size_t>(msg.size() - off, 200));
    ctx.Update(msg.subspan(off, take));
    off += take;
  }
  return ctx.Finish();
}

TEST(DifferentialSha256, OptimizedPaddingMatchesReferenceAllLengths) {
  ReferenceGuard guard;
  Rng rng(0x5a256);
  // 0..1,100 bytes is 0..17 whole blocks plus every tail: both padding
  // branches (one and two tail blocks), every buffer fill level on both
  // sides of the 56-byte threshold, and multi-block runs through the
  // kernel. Each message goes in one-shot and in seeded random splits.
  for (std::size_t len = 0; len <= 1100; ++len) {
    const Bytes msg = rng.RandomBytes(len);
    SetReferenceCrypto(true);
    const Sha256Digest ref = Sha256Hash(msg);
    SetReferenceCrypto(false);
    EXPECT_EQ(Sha256Hash(msg), ref) << "length " << len;
    EXPECT_EQ(HashInPieces(msg, rng), ref) << "split length " << len;
  }
}

// --- AES-128: AES-NI blocks and CBC vs the byte-wise cipher ---------------

TEST(DifferentialAes128, KernelMatchesPortableBlocksAndCbc) {
  ReferenceGuard guard;
  Rng rng(0xae5);
  for (int trial = 0; trial < 64; ++trial) {
    const Aes128Key key = ToAesKey(rng.RandomBytes(kAes128KeySize));
    const AesBlock iv = ToAesBlock(rng.RandomBytes(kAesBlockSize));
    const Bytes block = rng.RandomBytes(kAesBlockSize);
    const Bytes pt = rng.RandomBytes(rng.UniformInt(300));
    const Aes128 cipher(key);

    SetReferenceCrypto(true);
    std::uint8_t enc_ref[kAesBlockSize], dec_ref[kAesBlockSize];
    cipher.EncryptBlock(block.data(), enc_ref);
    cipher.DecryptBlock(block.data(), dec_ref);
    const Bytes ct_ref = Aes128CbcEncrypt(cipher, iv, pt);
    const std::optional<Bytes> back_ref = Aes128CbcDecrypt(cipher, iv, ct_ref);

    SetReferenceCrypto(false);
    std::uint8_t enc_opt[kAesBlockSize], dec_opt[kAesBlockSize];
    cipher.EncryptBlock(block.data(), enc_opt);
    cipher.DecryptBlock(block.data(), dec_opt);
    EXPECT_EQ(Bytes(enc_opt, enc_opt + kAesBlockSize),
              Bytes(enc_ref, enc_ref + kAesBlockSize));
    EXPECT_EQ(Bytes(dec_opt, dec_opt + kAesBlockSize),
              Bytes(dec_ref, dec_ref + kAesBlockSize));
    const Bytes ct_opt = Aes128CbcEncrypt(key, iv, pt);
    EXPECT_EQ(ct_opt, ct_ref) << "length " << pt.size();
    ASSERT_TRUE(back_ref.has_value());
    EXPECT_EQ(*back_ref, pt);
    EXPECT_EQ(Aes128CbcDecrypt(key, iv, ct_ref), back_ref);

    // A flipped last byte: both ciphers agree on the verdict and bytes.
    Bytes tampered = ct_ref;
    tampered.back() ^= 0x01;
    const std::optional<Bytes> bad_opt = Aes128CbcDecrypt(cipher, iv, tampered);
    SetReferenceCrypto(true);
    EXPECT_EQ(Aes128CbcDecrypt(cipher, iv, tampered), bad_opt);
  }
}

// --- TLS 1.2 PRF: midstate chain + memo vs the naive P_SHA256 ---------------

TEST(DifferentialPrf, OptimizedMatchesReferenceIncludingMemoHits) {
  ReferenceGuard guard;
  Drbg drbg(ToBytes("differential-prf"));
  for (std::size_t out_len : {1u, 12u, 32u, 48u, 104u, 200u}) {
    const Bytes secret = drbg.Generate(48);
    const Bytes seed = drbg.Generate(64);
    SetReferenceCrypto(true);
    const Bytes ref = Tls12Prf(secret, "key expansion", seed, out_len);
    SetReferenceCrypto(false);
    // First call computes and memoizes; second call is a memo hit. Both
    // must equal the reference.
    EXPECT_EQ(Tls12Prf(secret, "key expansion", seed, out_len), ref);
    EXPECT_EQ(Tls12Prf(secret, "key expansion", seed, out_len), ref);
  }
}

}  // namespace
}  // namespace tlsharm::crypto
