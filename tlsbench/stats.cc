#include "stats.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>

namespace tlsbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles QuartilesOf(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive": m = n + 1; for cut i,
  // j = i*m // 4 clamped to [1, n-1], then delta = i*m - 4j (computed after
  // the clamp, so tiny samples extrapolate exactly as Python does).
  const std::int64_t ld = static_cast<std::int64_t>(n);
  const std::int64_t m = ld + 1;
  std::array<double, 3> cuts{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    cuts[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

std::optional<double> HighestTailPercentile(std::uint64_t n,
                                            std::uint64_t min_tail) {
  // Largest first; "beyond" counts samples above the percentile, so the
  // tail holds n * (100 - p) / 100 of them. Integer arithmetic in units of
  // 0.01 percentile keeps the comparison exact.
  static constexpr std::array<std::uint64_t, 5> kHundredths = {
      9999, 9990, 9900, 9000, 5000};
  for (const std::uint64_t h : kHundredths) {
    if (n * (10000 - h) >= min_tail * 10000) {
      return static_cast<double>(h) / 100.0;
    }
  }
  return std::nullopt;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return std::string(buf.data(), res.ptr);
}

namespace {

// Metric names and units are restricted to [A-Za-z0-9_./%-], so quoting
// needs no escapes; anything else is dropped rather than emitted raw.
void AppendQuoted(std::string& out, const std::string& raw) {
  out += '"';
  for (const char c : raw) {
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string RenderResultLine(bool correct, std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendQuoted(out, metrics[i].name);
    out += ": {\"value\": " + FormatNumber(metrics[i].value) + ", \"unit\": ";
    AppendQuoted(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace tlsbench
