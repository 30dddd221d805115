#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats.h"
#include "workloads.h"

namespace tlsbench {
namespace {

TEST(StatsTest, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

// Expected values are what Python's statistics.quantiles(data, n=4)
// returns for the same data.
TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1, 2, 3},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
  };
  for (const Case& c : cases) {
    const Quartiles q = QuartilesOf(c.data);
    EXPECT_DOUBLE_EQ(q.q1, c.q1);
    EXPECT_DOUBLE_EQ(q.q2, c.q2);
    EXPECT_DOUBLE_EQ(q.q3, c.q3);
  }
  const Quartiles one = QuartilesOf({5});
  EXPECT_DOUBLE_EQ(one.q1, 5);
  EXPECT_DOUBLE_EQ(one.q3, 5);
  const Quartiles none = QuartilesOf({});
  EXPECT_DOUBLE_EQ(none.q2, 0);
}

TEST(StatsTest, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_FALSE(HighestTailPercentile(0).has_value());
  EXPECT_FALSE(HighestTailPercentile(19).has_value());
  EXPECT_EQ(HighestTailPercentile(20), 50.0);
  EXPECT_EQ(HighestTailPercentile(99), 50.0);
  EXPECT_EQ(HighestTailPercentile(100), 90.0);
  EXPECT_EQ(HighestTailPercentile(999), 90.0);
  EXPECT_EQ(HighestTailPercentile(1000), 99.0);
  EXPECT_EQ(HighestTailPercentile(79000), 99.9);
  EXPECT_EQ(HighestTailPercentile(100000), 99.99);
  EXPECT_EQ(HighestTailPercentile(50, 5), 90.0);
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
}

TEST(StatsTest, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(12345), "12345");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "0");
  for (const double x : {0.055093027, 12011.403943045018, 1.0 / 3.0, 1e-9,
                         6.02214076e23}) {
    EXPECT_EQ(std::strtod(FormatNumber(x).c_str(), nullptr), x);
  }
}

TEST(StatsTest, ResultLineHasTheContractShape) {
  const std::string line = RenderResultLine(
      true, 1000, 0,
      {{"latency_ms", "ms", 1.2034}, {"setup_s", "s", 0.8127}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
  EXPECT_EQ(RenderResultLine(false, 7, 7, {}),
            "{\"correct\": false, \"attempted\": 7, \"failed\": 7, "
            "\"metrics\": {}}");
  // Quotes and control bytes cannot break the line.
  EXPECT_EQ(RenderResultLine(true, 1, 0, {{"a\"b\n", "u\\", 2}}),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"ab\": {\"value\": 2, \"unit\": \"u\"}}}");
}

// The line of BENCHMARK.json that declares `{"name": "<name>"`, or "".
std::string ManifestLine(const std::string& manifest, const std::string& name) {
  std::istringstream in(manifest);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("{\"name\": \"" + name + "\"") != std::string::npos) {
      return line;
    }
  }
  return "";
}

TEST(CatalogTest, MatchesBenchmarkManifest) {
  std::ifstream file(TLSBENCH_MANIFEST);
  ASSERT_TRUE(file) << TLSBENCH_MANIFEST;
  std::stringstream buf;
  buf << file.rdbuf();
  const std::string manifest = buf.str();

  std::size_t declared = 0;
  for (std::size_t at = manifest.find("{\"name\": \"");
       at != std::string::npos; at = manifest.find("{\"name\": \"", at + 1)) {
    ++declared;
  }
  EXPECT_EQ(declared, Workloads().size() + EndToEndMetrics().size() +
                          PerLayerMetrics().size());

  for (const Workload& w : Workloads()) {
    const std::string line = ManifestLine(manifest, w.name);
    EXPECT_NE(line.find(std::string("\"why\": \"") + w.why + "\""),
              std::string::npos)
        << w.name;
  }
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      const std::string line = ManifestLine(manifest, m.name);
      EXPECT_NE(line.find(std::string("\"unit\": \"") + m.unit + "\""),
                std::string::npos)
          << m.name;
      EXPECT_NE(line.find(std::string("\"better\": \"") + m.better + "\""),
                std::string::npos)
          << m.name;
    }
  }
  EXPECT_NE(ManifestLine(manifest, "setup_s").find("\"bound\""),
            std::string::npos);
}

TEST(CatalogTest, SeedsAreDerivedDeterministically) {
  const Seeds a = DeriveSeeds(1);
  const Seeds b = DeriveSeeds(1);
  const Seeds c = DeriveSeeds(2);
  EXPECT_EQ(a.world, b.world);
  EXPECT_EQ(a.scan, b.scan);
  EXPECT_NE(a.world, a.scan);
  EXPECT_NE(a.world, c.world);
  EXPECT_NE(a.scan, c.scan);
  const Workload& w = Workloads().front();
  EXPECT_EQ(ConfigDigest(w, w.config, a), ConfigDigest(w, w.config, b));
  EXPECT_NE(ConfigDigest(w, w.config, a), ConfigDigest(w, w.reference, a));
}

}  // namespace
}  // namespace tlsbench
