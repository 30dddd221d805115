// Strict whole-number parsing for environment variables and command-line
// values: a value is a whole base-10 number in the caller's range or it is
// refused, never read as some other number.
#pragma once

#include <cstdint>
#include <optional>

namespace tlsharm {

// `text` as a whole base-10 number in min..max: digits only (no sign,
// space, point or trailing characters) and no overflow. nullopt for
// anything else, "" included.
std::optional<std::uint64_t> ParseWholeNumber(const char* text,
                                              std::uint64_t min,
                                              std::uint64_t max);

}  // namespace tlsharm
