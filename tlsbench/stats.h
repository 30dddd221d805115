// Summary statistics and the result-line renderer of the repository
// benchmark. Kept free of library dependencies so the unit tests exercise
// exactly what tlsbench prints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tlsbench {

// Median of `values` (mean of the two middle values for an even count);
// 0 for an empty input.
double Median(std::vector<double> values);

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

// Quartiles by the method of Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), so a spread computed here matches the
// usual acceptance arithmetic. Where Python refuses (fewer than two
// values), a single value is its own three quartiles and an empty input
// yields zeros.
Quartiles QuartilesOf(std::vector<double> values);

// The highest of the reported percentiles (50, 90, 99, 99.9, 99.99) that
// still has at least `min_tail` of `n` samples strictly beyond it, i.e.
// n * (1 - p/100) >= min_tail. Empty when even the median does not.
std::optional<double> HighestTailPercentile(std::uint64_t n,
                                            std::uint64_t min_tail = 10);

// Linear-interpolated percentile (p in [0, 100]) between closest ranks;
// 0 for an empty input.
double Percentile(std::vector<double> values, double p);

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0;
};

// Renders a number with the shortest digits that round-trip exactly; the
// result line must carry each measurement with all its digits.
std::string FormatNumber(double value);

// The benchmark's last stdout line:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// Metrics keep the given order. Non-finite values render as 0 so the line
// always parses.
std::string RenderResultLine(bool correct, std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<MetricValue>& metrics);

}  // namespace tlsbench
