#include "util/bytes.h"

#include <algorithm>
#include <cassert>

namespace tlsharm {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(ByteView b) {
  return std::string(b.begin(), b.end());
}

void Append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void AppendUint(Bytes& dst, std::uint64_t n, int width) {
  assert(width >= 1 && width <= 8);
  // One insert instead of a capacity check per byte.
  std::uint8_t be[8];
  for (int i = 0; i < width; ++i) {
    be[i] = static_cast<std::uint8_t>(n >> (8 * (width - 1 - i)));
  }
  dst.insert(dst.end(), be, be + width);
}

std::uint64_t ReadUint(ByteView b, std::size_t off, int width) {
  assert(width >= 1 && width <= 8);
  assert(off + static_cast<std::size_t>(width) <= b.size());
  std::uint64_t n = 0;
  for (int i = 0; i < width; ++i) {
    n = (n << 8) | b[off + static_cast<std::size_t>(i)];
  }
  return n;
}

Bytes Concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) Append(out, p);
  return out;
}

void XorInto(Bytes& a, ByteView b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

bool ConstantTimeEqual(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

void AppendVarint(Bytes& dst, std::uint64_t n) {
  while (n >= 0x80) {
    dst.push_back(static_cast<std::uint8_t>(n) | 0x80);
    n >>= 7;
  }
  dst.push_back(static_cast<std::uint8_t>(n));
}

bool ReadVarint(ByteView b, std::size_t& off, std::uint64_t& out) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (off >= b.size()) return false;
    const std::uint8_t byte = b[off++];
    // The tenth byte holds the single remaining bit; anything else would
    // push past 64 bits.
    if (shift == 63 && (byte & 0xfe) != 0) return false;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      out = value;
      return true;
    }
  }
  return false;
}

int Compare(ByteView a, ByteView b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

}  // namespace tlsharm
