#include "util/number.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace tlsharm {

std::optional<std::uint64_t> ParseWholeNumber(const char* text,
                                              std::uint64_t min,
                                              std::uint64_t max) {
  // strtoull alone would skip leading space and take a sign.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0' || value < min || value > max) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace tlsharm
