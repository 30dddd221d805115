#include "util/number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace tlsharm {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(NumberTest, ParseWholeNumberTakesDigitsInRange) {
  EXPECT_EQ(ParseWholeNumber("100", 100, kMax), 100u);
  EXPECT_EQ(ParseWholeNumber("1500", 100, kMax), 1500u);
  EXPECT_EQ(ParseWholeNumber("0300", 100, kMax), 300u);
  EXPECT_EQ(ParseWholeNumber("63", 1, 63), 63u);
  EXPECT_EQ(ParseWholeNumber("0", 0, 10), 0u);
  EXPECT_EQ(ParseWholeNumber("18446744073709551615", 0, kMax), kMax);
}

TEST(NumberTest, ParseWholeNumberRefusesEverythingElse) {
  for (const char* bad : {"", "99", "50", "0", "300x", "x300", " 300",
                          "300 ", "-300", "+300", "3e5", "3.0",
                          "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_EQ(ParseWholeNumber(bad, 100, kMax), std::nullopt)
        << '"' << bad << '"';
  }
  EXPECT_EQ(ParseWholeNumber("64", 1, 63), std::nullopt);
  EXPECT_EQ(ParseWholeNumber("1", 2, 63), std::nullopt);
}

}  // namespace
}  // namespace tlsharm
