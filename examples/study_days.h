// TLSHARM_DAYS, the study length of the tools that run a live study
// (fleet_survey, tlsharm prof). Unset means the tool's default. A set value
// must be a whole base-10 number in 1..63; anything else is an error, never
// a study of another length.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace tlsharm::examples {

inline constexpr long kMaxStudyDays = 63;

// The study length, or `fallback` when TLSHARM_DAYS is unset; -1 (after
// saying why on stderr) when it is set to anything but 1..63.
inline int StudyDaysFromEnv(int fallback) {
  const char* env = std::getenv("TLSHARM_DAYS");
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const long days = std::isdigit(static_cast<unsigned char>(env[0]))
                        ? std::strtol(env, &end, 10)
                        : 0;
  if (end != nullptr && *end == '\0' && days >= 1 && days <= kMaxStudyDays) {
    return static_cast<int>(days);
  }
  std::fprintf(stderr,
               "TLSHARM_DAYS=\"%s\": want a whole number of days in 1..%ld\n",
               env, kMaxStudyDays);
  return -1;
}

}  // namespace tlsharm::examples
