#include "util/crc32.h"

#include <array>

namespace tlsharm {
namespace {

// Reflected CRC-32 tables for polynomial 0xEDB88320, for slicing-by-8:
// tables[0] is the classic byte table, and tables[k][b] is tables[0][b]
// carried through k more zero bytes, so eight lookups fold eight input
// bytes into the register at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32Init() { return 0xFFFFFFFFu; }

std::uint32_t Crc32Update(std::uint32_t state, ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
            kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
            kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ kTables[0][(state ^ *p) & 0xffu];
  }
  return state;
}

std::uint32_t Crc32Final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t Crc32(ByteView data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace tlsharm
