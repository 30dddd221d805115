#include "crypto/biguint.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "crypto/tuning.h"

namespace tlsharm::crypto {

using u128 = unsigned __int128;

namespace {
// Scratch buffers for moduli up to this many limbs live on the stack; the
// shipped groups use 1 (sim61) or 4 (sim256) limbs, so the heap fallback
// only triggers for outsized test moduli.
constexpr std::size_t kStackLimbs = 64;
}  // namespace

void BigUInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::FromU64(std::uint64_t v) {
  BigUInt out;
  if (v != 0) out.limbs_.push_back(v);
  return out;
}

BigUInt BigUInt::FromHex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x") hex.remove_prefix(2);
  BigUInt out;
  out.limbs_.assign((hex.size() * 4 + 63) / 64, 0);
  std::size_t bit = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it, bit += 4) {
    const char c = *it;
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else std::abort();
    out.limbs_[bit / 64] |= static_cast<std::uint64_t>(v) << (bit % 64);
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::FromBytes(ByteView big_endian) {
  BigUInt out;
  out.limbs_.assign((big_endian.size() + 7) / 8, 0);
  std::size_t byte_idx = 0;
  for (auto it = big_endian.rbegin(); it != big_endian.rend();
       ++it, ++byte_idx) {
    out.limbs_[byte_idx / 8] |= static_cast<std::uint64_t>(*it)
                                << (8 * (byte_idx % 8));
  }
  out.Normalize();
  return out;
}

Bytes BigUInt::ToBytes(std::size_t width) const {
  Bytes out;
  const std::size_t min_width = (BitLength() + 7) / 8;
  const std::size_t w = width == 0 ? std::max<std::size_t>(min_width, 1)
                                   : width;
  assert(w >= min_width);
  out.assign(w, 0);
  for (std::size_t byte_idx = 0; byte_idx < min_width; ++byte_idx) {
    out[w - 1 - byte_idx] = static_cast<std::uint8_t>(
        limbs_[byte_idx / 8] >> (8 * (byte_idx % 8)));
  }
  return out;
}

std::string BigUInt::ToHex() const {
  if (IsZero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      out.push_back(digits[(limbs_[i] >> (4 * nib)) & 0xf]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::size_t BigUInt::BitLength() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 64;
  std::uint64_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::Bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigUInt::Compare(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt BigUInt::Add(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sum = static_cast<u128>(a.Limb(i)) + b.Limb(i) + carry;
    out.limbs_.push_back(static_cast<std::uint64_t>(sum));
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  if (carry) out.limbs_.push_back(carry);
  out.Normalize();
  return out;
}

BigUInt BigUInt::Sub(const BigUInt& a, const BigUInt& b) {
  assert(Compare(a, b) >= 0);
  BigUInt out;
  out.limbs_.reserve(a.limbs_.size());
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const std::uint64_t ai = a.limbs_[i];
    const std::uint64_t bi = b.Limb(i);
    const std::uint64_t diff = ai - bi - borrow;
    borrow = (ai < bi + borrow) || (bi == UINT64_MAX && borrow) ? 1 : 0;
    out.limbs_.push_back(diff);
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::Mul(const BigUInt& a, const BigUInt& b) {
  if (a.IsZero() || b.IsZero()) return {};
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::ShiftLeft1() const {
  BigUInt out;
  out.limbs_.reserve(limbs_.size() + 1);
  std::uint64_t carry = 0;
  for (std::uint64_t limb : limbs_) {
    out.limbs_.push_back((limb << 1) | carry);
    carry = limb >> 63;
  }
  if (carry) out.limbs_.push_back(carry);
  out.Normalize();
  return out;
}

BigUInt BigUInt::ShiftRight1() const {
  BigUInt out;
  out.limbs_.resize(limbs_.size());
  std::uint64_t carry = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    out.limbs_[i] = (limbs_[i] >> 1) | (carry << 63);
    carry = limbs_[i] & 1;
  }
  out.Normalize();
  return out;
}

// ---------------------------------------------------------------------------
// Montgomery

Montgomery::Montgomery(const BigUInt& modulus) : n_(modulus) {
  assert(n_.IsOdd() && !n_.IsZero());
  k_ = n_.limbs_.size();
  // n0inv = -n^{-1} mod 2^64 via Newton iteration.
  const std::uint64_t n0 = n_.limbs_[0];
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  n0inv_ = ~inv + 1;  // -inv mod 2^64

  // R mod n by 64k doubling steps from 1, then R^2 mod n by 64k more.
  BigUInt x = BigUInt::FromU64(1);
  for (std::size_t i = 0; i < 64 * k_; ++i) {
    x = x.ShiftLeft1();
    if (BigUInt::Compare(x, n_) >= 0) x = BigUInt::Sub(x, n_);
  }
  r_mod_n_ = x;
  for (std::size_t i = 0; i < 64 * k_; ++i) {
    x = x.ShiftLeft1();
    if (BigUInt::Compare(x, n_) >= 0) x = BigUInt::Sub(x, n_);
  }
  rr_ = x;
  // 2^64 mod n.
  BigUInt t = BigUInt::FromU64(1);
  for (int i = 0; i < 64; ++i) {
    t = t.ShiftLeft1();
    if (BigUInt::Compare(t, n_) >= 0) t = BigUInt::Sub(t, n_);
  }
  t64_ = t;
}

std::uint64_t Montgomery::MontMul64(std::uint64_t a, std::uint64_t b) const {
  // One-limb REDC: r = a*b*R^{-1} mod n with R = 2^64. The low 64 bits of
  // t + m*n are zero by construction, so the carry out of them is 1 exactly
  // when low64(t) is nonzero.
  const std::uint64_t n = n_.limbs_[0];
  const u128 t = static_cast<u128>(a) * b;
  const std::uint64_t m = static_cast<std::uint64_t>(t) * n0inv_;
  const u128 mn = static_cast<u128>(m) * n;
  u128 r = (t >> 64) + (mn >> 64) +
           (static_cast<std::uint64_t>(t) != 0 ? 1 : 0);
  if (r >= n) r -= n;
  return static_cast<std::uint64_t>(r);
}

void Montgomery::MontMul(const std::uint64_t* a, const std::uint64_t* b,
                         std::uint64_t* out) const {
  if (k_ == 1) {
    out[0] = MontMul64(a[0], b[0]);
    return;
  }
  // CIOS: t has k_+2 limbs. Stack scratch keeps the per-multiply cost free
  // of allocations (this is the exponentiation inner loop).
  std::uint64_t t_stack[kStackLimbs + 2];
  std::vector<std::uint64_t> t_heap;
  std::uint64_t* t = t_stack;
  if (k_ > kStackLimbs) {
    t_heap.assign(k_ + 2, 0);
    t = t_heap.data();
  } else {
    std::fill(t, t + k_ + 2, 0);
  }
  for (std::size_t i = 0; i < k_; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<std::uint64_t>(s);
    t[k_ + 1] += static_cast<std::uint64_t>(s >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; then shift right one limb.
    const std::uint64_t m = t[0] * n0inv_;
    carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(m) * n_.limbs_[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    s = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<std::uint64_t>(s);
    t[k_ + 1] += static_cast<std::uint64_t>(s >> 64);

    for (std::size_t j = 0; j <= k_; ++j) t[j] = t[j + 1];
    t[k_ + 1] = 0;
  }
  for (std::size_t j = 0; j < k_; ++j) out[j] = t[j];
  // Conditional subtract if out >= n (t[k_] can be 0 or 1).
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t j = k_; j-- > 0;) {
      if (out[j] != n_.limbs_[j]) {
        ge = out[j] > n_.limbs_[j];
        break;
      }
    }
  }
  if (ge) {
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const std::uint64_t nj = n_.limbs_[j];
      const std::uint64_t oj = out[j];
      out[j] = oj - nj - borrow;
      borrow = (oj < nj + borrow) || (nj == UINT64_MAX && borrow) ? 1 : 0;
    }
  }
}

namespace {
std::vector<std::uint64_t> PadLimbs(const BigUInt& a, std::size_t k) {
  std::vector<std::uint64_t> out(k, 0);
  for (std::size_t i = 0; i < k; ++i) out[i] = a.Limb(i);
  return out;
}
BigUInt FromLimbs(const std::vector<std::uint64_t>& limbs) {
  Bytes be;
  be.reserve(limbs.size() * 8);
  for (std::size_t i = limbs.size(); i-- > 0;) {
    for (int b = 7; b >= 0; --b) {
      be.push_back(static_cast<std::uint8_t>(limbs[i] >> (8 * b)));
    }
  }
  return BigUInt::FromBytes(be);
}
}  // namespace

BigUInt Montgomery::ToMont(const BigUInt& a) const {
  return MontMulBig(a, rr_);
}

// Helper defined out-of-line to keep MontMul limb-oriented.
BigUInt Montgomery::FromMont(const BigUInt& a) const {
  return MontMulBig(a, BigUInt::FromU64(1));
}

BigUInt Montgomery::MulMod(const BigUInt& a, const BigUInt& b) const {
  if (k_ == 1) {
    const u128 prod = static_cast<u128>(a.Limb(0)) * b.Limb(0);
    return BigUInt::FromU64(
        static_cast<std::uint64_t>(prod % n_.limbs_[0]));
  }
  // mont(aR, bR) = abR; convert only once.
  const BigUInt am = MontMulBig(a, rr_);  // aR
  return MontMulBig(am, b);               // abR * R^{-1} = ab
}

BigUInt Montgomery::AddMod(const BigUInt& a, const BigUInt& b) const {
  return CondSub(BigUInt::Add(a, b));
}

BigUInt Montgomery::SubMod(const BigUInt& a, const BigUInt& b) const {
  if (BigUInt::Compare(a, b) >= 0) return BigUInt::Sub(a, b);
  return BigUInt::Sub(BigUInt::Add(a, n_), b);
}

BigUInt Montgomery::CondSub(BigUInt a) const {
  if (BigUInt::Compare(a, n_) >= 0) return BigUInt::Sub(a, n_);
  return a;
}

std::uint64_t Montgomery::PowModU64(std::uint64_t base,
                                    const BigUInt& exp) const {
  const std::uint64_t n = n_.limbs_[0];
  std::uint64_t result = 1 % n;
  std::uint64_t b = base % n;
  for (std::size_t limb = 0; limb < exp.LimbCount(); ++limb) {
    std::uint64_t word = exp.Limb(limb);
    // Full 64 squarings per limb except the top one, where we can stop at
    // the highest set bit; simpler to run all bits (squaring past the top
    // multiplies by 1 implicitly since word bits are 0).
    for (int bit = 0; bit < 64; ++bit) {
      if (word & 1) {
        result = static_cast<std::uint64_t>(
            (static_cast<u128>(result) * b) % n);
      }
      word >>= 1;
      if (word == 0 && limb + 1 == exp.LimbCount()) break;
      b = static_cast<std::uint64_t>((static_cast<u128>(b) * b) % n);
    }
  }
  return result;
}

BigUInt Montgomery::PowModReference(const BigUInt& base,
                                    const BigUInt& exp) const {
  if (k_ == 1) {
    const std::uint64_t b =
        base.LimbCount() <= 1 ? base.Limb(0)
                              : Reduce(base).Limb(0);
    return BigUInt::FromU64(PowModU64(b, exp));
  }
  BigUInt result = r_mod_n_;          // 1 in Montgomery domain
  const BigUInt base_m =
      ToMont(BigUInt::Compare(base, n_) < 0 ? base : Reduce(base));
  const std::size_t bits = exp.BitLength();
  for (std::size_t i = bits; i-- > 0;) {
    result = MontMulBig(result, result);
    if (exp.Bit(i)) result = MontMulBig(result, base_m);
  }
  return FromMont(result);
}

BigUInt Montgomery::PowMod(const BigUInt& base, const BigUInt& exp) const {
  // One limb (the sim61 group) takes the plain ladder in both modes: a
  // sliding window over u64 Montgomery products measured no faster.
  if (ReferenceCryptoEnabled() || k_ == 1) return PowModReference(base, exp);
  if (BigUInt::Compare(base, n_) < 0) {
    return PowModWindowed(PrecomputeOddPowers(base), exp);
  }
  return PowModWindowed(PrecomputeOddPowers(Reduce(base)), exp);
}

// --- windowed exponentiation ------------------------------------------------
//
// All table entries and accumulators below are k_-limb values in the
// Montgomery domain. MontMul tolerates out aliasing an input (it reads
// operand limbs before the final copy-out), so squarings run in place.

void Montgomery::ToMontLimbs(const BigUInt& a, std::uint64_t* out) const {
  std::uint64_t stack[2 * kStackLimbs];
  std::vector<std::uint64_t> heap;
  std::uint64_t* buf = stack;
  if (k_ > kStackLimbs) {
    heap.assign(2 * k_, 0);
    buf = heap.data();
  }
  std::uint64_t* al = buf;
  std::uint64_t* rl = buf + k_;
  for (std::size_t i = 0; i < k_; ++i) {
    al[i] = a.Limb(i);
    rl[i] = rr_.Limb(i);
  }
  MontMul(al, rl, out);
}

BigUInt Montgomery::FromMontLimbs(const std::uint64_t* a) const {
  std::uint64_t stack[2 * kStackLimbs];
  std::vector<std::uint64_t> heap;
  std::uint64_t* buf = stack;
  if (k_ > kStackLimbs) {
    heap.assign(2 * k_, 0);
    buf = heap.data();
  }
  std::uint64_t* one = buf;
  std::uint64_t* out = buf + k_;
  std::fill(one, one + k_, 0);
  one[0] = 1;
  MontMul(a, one, out);
  BigUInt r;
  r.limbs_.assign(out, out + k_);
  r.Normalize();
  return r;
}

Montgomery::OddPowers Montgomery::PrecomputeOddPowers(
    const BigUInt& base) const {
  OddPowers t;
  t.limbs_.assign(8 * k_, 0);
  std::uint64_t sq_stack[kStackLimbs];
  std::vector<std::uint64_t> sq_heap;
  std::uint64_t* sq = sq_stack;
  if (k_ > kStackLimbs) {
    sq_heap.assign(k_, 0);
    sq = sq_heap.data();
  }
  ToMontLimbs(base, t.limbs_.data());             // base^1
  MontMul(t.limbs_.data(), t.limbs_.data(), sq);  // base^2
  for (std::size_t i = 1; i < 8; ++i) {           // base^(2i+1)
    MontMul(&t.limbs_[(i - 1) * k_], sq, &t.limbs_[i * k_]);
  }
  return t;
}

Montgomery::WindowTable Montgomery::PrecomputeWindowTable(
    const BigUInt& base) const {
  WindowTable t;
  t.limbs_.assign(15 * k_, 0);
  ToMontLimbs(base, t.limbs_.data());  // base^1
  for (std::size_t d = 2; d <= 15; ++d) {
    MontMul(&t.limbs_[(d - 2) * k_], t.limbs_.data(),
            &t.limbs_[(d - 1) * k_]);
  }
  return t;
}

Montgomery::FixedBaseTable Montgomery::PrecomputeFixedBase(
    const BigUInt& base, std::size_t max_exp_bits) const {
  FixedBaseTable t;
  t.windows_ = (max_exp_bits + 3) / 4;
  t.limbs_.assign(t.windows_ * 15 * k_, 0);
  std::uint64_t cur_stack[kStackLimbs];
  std::vector<std::uint64_t> cur_heap;
  std::uint64_t* cur = cur_stack;
  if (k_ > kStackLimbs) {
    cur_heap.assign(k_, 0);
    cur = cur_heap.data();
  }
  ToMontLimbs(base, cur);  // base^(16^0)
  for (std::size_t w = 0; w < t.windows_; ++w) {
    std::uint64_t* window = &t.limbs_[w * 15 * k_];
    std::copy(cur, cur + k_, window);  // d = 1
    for (std::size_t d = 2; d <= 15; ++d) {
      MontMul(&window[(d - 2) * k_], cur, &window[(d - 1) * k_]);
    }
    if (w + 1 < t.windows_) {
      MontMul(&window[14 * k_], cur, cur);  // base^(16^(w+1))
    }
  }
  return t;
}

BigUInt Montgomery::PowModWindowed(const OddPowers& table,
                                   const BigUInt& exp) const {
  assert(table.limbs_.size() == 8 * k_);
  std::uint64_t acc_stack[kStackLimbs];
  std::vector<std::uint64_t> acc_heap;
  std::uint64_t* acc = acc_stack;
  if (k_ > kStackLimbs) {
    acc_heap.assign(k_, 0);
    acc = acc_heap.data();
  }
  bool started = false;
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(exp.BitLength()) - 1;
  while (i >= 0) {
    if (!exp.Bit(static_cast<std::size_t>(i))) {
      MontMul(acc, acc, acc);  // started is implied: the top bit is set
      --i;
      continue;
    }
    // Widest window [i, l] with an odd value (bit l set), at most 4 bits.
    std::ptrdiff_t l = i >= 3 ? i - 3 : 0;
    while (!exp.Bit(static_cast<std::size_t>(l))) ++l;
    int digit = 0;
    for (std::ptrdiff_t j = i; j >= l; --j) {
      digit = (digit << 1) | (exp.Bit(static_cast<std::size_t>(j)) ? 1 : 0);
    }
    const std::uint64_t* entry = &table.limbs_[(digit >> 1) * k_];
    if (started) {
      for (std::ptrdiff_t j = i; j >= l; --j) MontMul(acc, acc, acc);
      MontMul(acc, entry, acc);
    } else {
      std::copy(entry, entry + k_, acc);
      started = true;
    }
    i = l - 1;
  }
  if (!started) {
    for (std::size_t j = 0; j < k_; ++j) acc[j] = r_mod_n_.Limb(j);
  }
  return FromMontLimbs(acc);
}

BigUInt Montgomery::PowModFixedBase(const FixedBaseTable& table,
                                    const BigUInt& exp) const {
  assert(exp.BitLength() <= table.MaxExpBits());
  const std::size_t windows = (exp.BitLength() + 3) / 4;
  if (k_ == 1) {
    std::uint64_t acc64 = 0;
    bool started64 = false;
    for (std::size_t i = 0; i < windows; ++i) {
      const int d = Nibble(exp, i);
      if (d == 0) continue;
      const std::uint64_t entry =
          table.limbs_[i * 15 + static_cast<std::size_t>(d) - 1];
      acc64 = started64 ? MontMul64(acc64, entry) : entry;
      started64 = true;
    }
    if (!started64) acc64 = r_mod_n_.Limb(0);
    return BigUInt::FromU64(MontMul64(acc64, 1));
  }
  std::uint64_t acc_stack[kStackLimbs];
  std::vector<std::uint64_t> acc_heap;
  std::uint64_t* acc = acc_stack;
  if (k_ > kStackLimbs) {
    acc_heap.assign(k_, 0);
    acc = acc_heap.data();
  }
  bool started = false;
  for (std::size_t i = 0; i < windows; ++i) {
    const int d = Nibble(exp, i);
    if (d == 0) continue;
    const std::uint64_t* entry =
        &table.limbs_[(i * 15 + static_cast<std::size_t>(d) - 1) * k_];
    if (started) {
      MontMul(acc, entry, acc);
    } else {
      std::copy(entry, entry + k_, acc);
      started = true;
    }
  }
  if (!started) {
    for (std::size_t j = 0; j < k_; ++j) acc[j] = r_mod_n_.Limb(j);
  }
  return FromMontLimbs(acc);
}

BigUInt Montgomery::PowModDouble(const WindowTable& a, const BigUInt& ea,
                                 const WindowTable& b,
                                 const BigUInt& eb) const {
  assert(a.limbs_.size() == 15 * k_ && b.limbs_.size() == 15 * k_);
  std::uint64_t acc_stack[kStackLimbs];
  std::vector<std::uint64_t> acc_heap;
  std::uint64_t* acc = acc_stack;
  if (k_ > kStackLimbs) {
    acc_heap.assign(k_, 0);
    acc = acc_heap.data();
  }
  bool started = false;
  const std::size_t windows =
      (std::max(ea.BitLength(), eb.BitLength()) + 3) / 4;
  for (std::size_t i = windows; i-- > 0;) {
    if (started) {
      for (int s = 0; s < 4; ++s) MontMul(acc, acc, acc);
    }
    const int da = Nibble(ea, i);
    if (da != 0) {
      const std::uint64_t* entry =
          &a.limbs_[(static_cast<std::size_t>(da) - 1) * k_];
      if (started) {
        MontMul(acc, entry, acc);
      } else {
        std::copy(entry, entry + k_, acc);
        started = true;
      }
    }
    const int db = Nibble(eb, i);
    if (db != 0) {
      const std::uint64_t* entry =
          &b.limbs_[(static_cast<std::size_t>(db) - 1) * k_];
      if (started) {
        MontMul(acc, entry, acc);
      } else {
        std::copy(entry, entry + k_, acc);
        started = true;
      }
    }
  }
  if (!started) {
    for (std::size_t j = 0; j < k_; ++j) acc[j] = r_mod_n_.Limb(j);
  }
  return FromMontLimbs(acc);
}

BigUInt Montgomery::Reduce(const BigUInt& a) const {
  return ReduceBytes(a.ToBytes());
}

BigUInt Montgomery::ReduceBytes(ByteView b) const {
  // Process big-endian 8-byte digits: r = (r * 2^64 + digit) mod n.
  // When n fits in one limb a digit reduces with native modulo; otherwise
  // n >= 2^64 > digit and the digit is already reduced.
  const auto reduce_digit = [this](std::uint64_t d) {
    if (k_ == 1) d %= n_.limbs_[0];
    return BigUInt::FromU64(d);
  };
  BigUInt r;
  std::size_t off = 0;
  const std::size_t lead = b.size() % 8;
  if (lead != 0) {
    std::uint64_t d = 0;
    for (; off < lead; ++off) d = (d << 8) | b[off];
    r = reduce_digit(d);
  }
  for (; off + 8 <= b.size(); off += 8) {
    const std::uint64_t d = ReadUint(b, off, 8);
    r = MulMod(r, t64_);
    r = AddMod(r, reduce_digit(d));
  }
  return r;
}

BigUInt Montgomery::MontMulBig(const BigUInt& a, const BigUInt& b) const {
  const auto al = PadLimbs(a, k_);
  const auto bl = PadLimbs(b, k_);
  std::vector<std::uint64_t> out(k_, 0);
  MontMul(al.data(), bl.data(), out.data());
  return FromLimbs(out);
}

// ---------------------------------------------------------------------------

bool ProbablyPrime(const BigUInt& n) {
  if (n.IsZero()) return false;
  const BigUInt one = BigUInt::FromU64(1);
  const BigUInt two = BigUInt::FromU64(2);
  if (BigUInt::Compare(n, two) < 0) return false;
  if (n == two) return true;
  if (!n.IsOdd()) return false;

  const Montgomery mont(n);
  const BigUInt n_minus_1 = BigUInt::Sub(n, one);
  BigUInt d = n_minus_1;
  int r = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight1();
    ++r;
  }
  static const std::uint64_t kBases[] = {2,  3,  5,  7,  11, 13,
                                         17, 19, 23, 29, 31, 37};
  for (std::uint64_t base : kBases) {
    const BigUInt a = mont.Reduce(BigUInt::FromU64(base));
    if (a.IsZero() || a == one) continue;
    BigUInt x = mont.PowMod(a, d);
    if (x == one || x == n_minus_1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mont.MulMod(x, x);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace tlsharm::crypto
