// TLSHARM_DAYS, the study length of the tools that run a live study
// (fleet_survey, tlsharm prof, and the benches through bench/common.h).
// Unset means the tool's default. A set value must be a whole base-10
// number in the tool's range (1..63, or 2..63 for the benches); anything
// else is an error, never a study of another length.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "util/number.h"

namespace tlsharm::examples {

inline constexpr long kMaxStudyDays = 63;

// The study length, or `fallback` when TLSHARM_DAYS is unset; -1 (after
// saying why on stderr) when it is set to anything but min_days..63.
inline int StudyDaysFromEnv(int fallback, long min_days = 1) {
  const char* env = std::getenv("TLSHARM_DAYS");
  if (env == nullptr) return fallback;
  if (const std::optional<std::uint64_t> days =
          ParseWholeNumber(env, min_days, kMaxStudyDays)) {
    return static_cast<int>(*days);
  }
  std::fprintf(stderr,
               "TLSHARM_DAYS=\"%s\": want a whole number of days in "
               "%ld..%ld\n",
               env, min_days, kMaxStudyDays);
  return -1;
}

}  // namespace tlsharm::examples
