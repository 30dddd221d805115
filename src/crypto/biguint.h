// Arbitrary-precision unsigned integers and Montgomery modular arithmetic,
// from scratch.
//
// This backs the finite-field Diffie-Hellman groups and the Schnorr
// signatures used for certificate authentication. Division is avoided
// entirely: all modular work goes through Montgomery multiplication (CIOS)
// plus shift-and-conditionally-subtract reduction, which keeps the code
// small and auditable.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace tlsharm::crypto {

class BigUInt {
 public:
  BigUInt() = default;  // zero
  static BigUInt FromU64(std::uint64_t v);
  static BigUInt FromHex(std::string_view hex);      // aborts on bad input
  static BigUInt FromBytes(ByteView big_endian);

  // Big-endian byte serialization, left-padded to `width` (0 = minimal).
  Bytes ToBytes(std::size_t width = 0) const;
  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  std::size_t BitLength() const;
  std::size_t LimbCount() const { return limbs_.size(); }
  std::uint64_t Limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }
  bool Bit(std::size_t i) const;

  // -1 / 0 / +1
  static int Compare(const BigUInt& a, const BigUInt& b);
  bool operator==(const BigUInt& o) const { return Compare(*this, o) == 0; }
  bool operator<(const BigUInt& o) const { return Compare(*this, o) < 0; }

  static BigUInt Add(const BigUInt& a, const BigUInt& b);
  // Precondition: a >= b.
  static BigUInt Sub(const BigUInt& a, const BigUInt& b);
  static BigUInt Mul(const BigUInt& a, const BigUInt& b);
  BigUInt ShiftLeft1() const;
  BigUInt ShiftRight1() const;

 private:
  void Normalize();

  // Little-endian limbs; empty means zero.
  std::vector<std::uint64_t> limbs_;

  friend class Montgomery;
};

// Montgomery context over an odd modulus n. All public operations take and
// return values in the ordinary (non-Montgomery) domain.
//
// Exponentiation runs one of two ways. The reference path (PowModReference,
// selected globally by crypto::ReferenceCryptoEnabled()) is the original
// MSB-first square-and-multiply ladder, kept verbatim as the differential
// baseline. The optimized path uses w=4 windowing: a sliding window over a
// precomputed odd-powers table for one-off bases, and — for bases that are
// fixed for the lifetime of a group (DH generators, Schnorr subgroup
// generators) — caller-cached tables that eliminate the squaring chain
// (FixedBaseTable) or share it between two exponents (Shamir's trick via
// WindowTable). Both paths compute the same mathematical function, so
// their outputs are byte-identical.
class Montgomery {
 public:
  // Precomputed odd powers base^1, base^3, ..., base^15 in the Montgomery
  // domain: the table behind sliding-window (w=4) exponentiation.
  class OddPowers {
   public:
    bool Empty() const { return limbs_.empty(); }

   private:
    friend class Montgomery;
    std::vector<std::uint64_t> limbs_;  // 8 entries x k limbs
  };

  // Full window table base^1 .. base^15 (Montgomery domain), for fixed-
  // window exponentiation where every digit needs a table entry — in
  // particular Shamir's double exponentiation, which interleaves two
  // exponents over one shared squaring chain.
  class WindowTable {
   public:
    bool Empty() const { return limbs_.empty(); }

   private:
    friend class Montgomery;
    std::vector<std::uint64_t> limbs_;  // 15 entries x k limbs
  };

  // Positional table for a constant base: entry (i, d) holds
  // base^(d * 16^i) in the Montgomery domain, so base^e is a product of
  // one entry per nonzero exponent nibble — no squarings at all.
  class FixedBaseTable {
   public:
    bool Empty() const { return limbs_.empty(); }
    // Largest exponent bit length the table covers.
    std::size_t MaxExpBits() const { return 4 * windows_; }

   private:
    friend class Montgomery;
    std::size_t windows_ = 0;
    std::vector<std::uint64_t> limbs_;  // windows x 15 entries x k limbs
  };

  explicit Montgomery(const BigUInt& modulus);

  const BigUInt& Modulus() const { return n_; }

  // (a * b) mod n; a, b < n.
  BigUInt MulMod(const BigUInt& a, const BigUInt& b) const;
  // (a + b) mod n; a, b < n.
  BigUInt AddMod(const BigUInt& a, const BigUInt& b) const;
  // (a - b) mod n; a, b < n.
  BigUInt SubMod(const BigUInt& a, const BigUInt& b) const;
  // base^exp mod n. Dispatches to PowModReference when the global
  // reference-crypto flag is on or n is one limb, else to the
  // sliding-window path.
  BigUInt PowMod(const BigUInt& base, const BigUInt& exp) const;
  // The original square-and-multiply ladder (naive baseline).
  BigUInt PowModReference(const BigUInt& base, const BigUInt& exp) const;
  // Reduces an arbitrary-size value mod n by processing 64-bit digits.
  BigUInt Reduce(const BigUInt& a) const;
  // Reduces a big-endian byte string mod n (hash-to-scalar).
  BigUInt ReduceBytes(ByteView b) const;

  // Table construction; base must be < n (Reduce() it first otherwise).
  OddPowers PrecomputeOddPowers(const BigUInt& base) const;
  WindowTable PrecomputeWindowTable(const BigUInt& base) const;
  FixedBaseTable PrecomputeFixedBase(const BigUInt& base,
                                     std::size_t max_exp_bits) const;

  // base^exp via a precomputed table. The table must come from this
  // Montgomery instance. PowModFixedBase requires
  // exp.BitLength() <= table.MaxExpBits().
  BigUInt PowModWindowed(const OddPowers& table, const BigUInt& exp) const;
  BigUInt PowModFixedBase(const FixedBaseTable& table,
                          const BigUInt& exp) const;
  // a^ea * b^eb mod n with one shared squaring chain (Shamir/Straus).
  BigUInt PowModDouble(const WindowTable& a, const BigUInt& ea,
                       const WindowTable& b, const BigUInt& eb) const;

 private:
  // Single-limb path (the 61-bit simulation groups): native __int128
  // arithmetic, no allocation.
  std::uint64_t PowModU64(std::uint64_t base, const BigUInt& exp) const;
  // Montgomery product of single-limb values a, b < n (REDC).
  std::uint64_t MontMul64(std::uint64_t a, std::uint64_t b) const;

  // Core CIOS Montgomery multiply of two k-limb mont-domain values.
  void MontMul(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* out) const;
  // Montgomery multiply with BigUInt operands (padded to k limbs).
  BigUInt MontMulBig(const BigUInt& a, const BigUInt& b) const;
  BigUInt ToMont(const BigUInt& a) const;
  BigUInt FromMont(const BigUInt& a) const;
  BigUInt CondSub(BigUInt a) const;  // a in [0, 2n) -> a mod n

  // Limb-buffer helpers for the windowed paths (all k_ limbs wide, values
  // in the Montgomery domain unless noted).
  void ToMontLimbs(const BigUInt& a, std::uint64_t* out) const;
  BigUInt FromMontLimbs(const std::uint64_t* a) const;
  static int Nibble(const BigUInt& e, std::size_t i) {
    return static_cast<int>((e.Limb(i / 16) >> (4 * (i % 16))) & 0xF);
  }

  BigUInt n_;
  std::size_t k_ = 0;          // limb count of n
  std::uint64_t n0inv_ = 0;    // -n^{-1} mod 2^64
  BigUInt r_mod_n_;            // R mod n, R = 2^(64k)
  BigUInt rr_;                 // R^2 mod n
  BigUInt t64_;                // 2^64 mod n (for digitwise reduction)
};

// Miller-Rabin probabilistic primality test with fixed deterministic bases;
// sufficient for validating embedded group parameters in tests.
bool ProbablyPrime(const BigUInt& n);

}  // namespace tlsharm::crypto
