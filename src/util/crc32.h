// CRC-32 (IEEE 802.3, the zlib/gzip polynomial), used by the observation
// warehouse to detect corrupted columns, segments and checkpoints before a
// decoder ever touches the bytes. Table-driven (slicing-by-8, tables built
// at compile time); streaming via the running-state overload.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace tlsharm {

// CRC-32 of `data` (initial value 0, final XOR applied — the usual
// whole-buffer convention: Crc32("123456789") == 0xcbf43926).
std::uint32_t Crc32(ByteView data);

// Streaming form: feed successive chunks through `state`, starting from
// Crc32Init() and finishing with Crc32Final(state).
std::uint32_t Crc32Init();
std::uint32_t Crc32Update(std::uint32_t state, ByteView data);
std::uint32_t Crc32Final(std::uint32_t state);

}  // namespace tlsharm
