// The sharded scan engine's output contract: for a fixed (world spec,
// seed, days, robustness), the serialized observation stream and every
// aggregate are byte-identical for ANY thread count. Run under TSan (see
// scripts/check.sh) this doubles as the race detector for the purity
// refactor — eight workers hammer the shared terminators concurrently.
#include "scanner/scan_engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

namespace tlsharm::scanner {
namespace {

struct StudyOutput {
  std::string observations;   // everything the sink received, in order
  DailyScanResult result;
};

// A fresh fault-injected world each run: scanning mutates server state, so
// thread counts may only be compared across identically constructed worlds.
StudyOutput RunStudy(int threads) {
  simnet::Internet net(simnet::PaperPopulationSpec(700), 4242);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  std::ostringstream stream;
  ObservationWriter sink(stream);
  ScanEngineOptions options;
  options.threads = threads;
  options.robustness.retry.max_attempts = 3;
  options.store = &sink;

  StudyOutput out;
  out.result = RunShardedDailyScans(net, /*days=*/3, /*seed=*/777, options);
  out.observations = stream.str();
  return out;
}

void ExpectSameLoss(const DailyScanResult& a, const DailyScanResult& b) {
  ASSERT_EQ(a.loss.size(), b.loss.size());
  for (std::size_t day = 0; day < a.loss.size(); ++day) {
    EXPECT_EQ(a.loss[day].scheduled, b.loss[day].scheduled) << "day " << day;
    EXPECT_EQ(a.loss[day].recovered, b.loss[day].recovered) << "day " << day;
    EXPECT_EQ(a.loss[day].lost, b.loss[day].lost) << "day " << day;
    EXPECT_EQ(a.loss[day].lost_by_class, b.loss[day].lost_by_class)
        << "day " << day;
  }
}

void ExpectSameAggregates(const DailyScanResult& a, const DailyScanResult& b) {
  EXPECT_EQ(a.core_domains, b.core_domains);
  EXPECT_EQ(a.core_ever_ticket, b.core_ever_ticket);
  EXPECT_EQ(a.core_ever_ecdhe, b.core_ever_ecdhe);
  EXPECT_EQ(a.core_ever_dhe_connect, b.core_ever_dhe_connect);
  EXPECT_EQ(a.core_any_mechanism, b.core_any_mechanism);
  for (const DomainIndex id : a.core_domains) {
    EXPECT_EQ(a.stek_spans.MaxSpanDays(id), b.stek_spans.MaxSpanDays(id));
    EXPECT_EQ(a.ecdhe_spans.MaxSpanDays(id), b.ecdhe_spans.MaxSpanDays(id));
    EXPECT_EQ(a.dhe_spans.MaxSpanDays(id), b.dhe_spans.MaxSpanDays(id));
  }
}

TEST(ParallelDeterminismTest, ThreadCountNeverChangesOutput) {
  const StudyOutput serial = RunStudy(1);

  // The study must actually exercise the interesting paths.
  ASSERT_FALSE(serial.observations.empty());
  ASSERT_EQ(serial.result.loss.size(), 3u);
  ASSERT_GT(serial.result.loss[0].scheduled, 0u);
  ASSERT_GT(serial.result.loss[0].recovered + serial.result.loss[0].lost, 0u)
      << "fault injection produced no transport failures; the requeue "
         "path went untested";
  ASSERT_FALSE(serial.result.core_domains.empty());

  for (const int threads : {2, 8}) {
    const StudyOutput parallel = RunStudy(threads);
    EXPECT_EQ(parallel.observations, serial.observations)
        << "observation stream diverged at " << threads << " threads";
    ExpectSameLoss(parallel.result, serial.result);
    ExpectSameAggregates(parallel.result, serial.result);
  }
}

TEST(ParallelDeterminismTest, SerialWrapperMatchesEngine) {
  // RunDailyScans is the one-thread engine; spot-check the delegation.
  simnet::Internet net_a(simnet::PaperPopulationSpec(400), 99);
  simnet::Internet net_b(simnet::PaperPopulationSpec(400), 99);
  const DailyScanResult via_wrapper = RunDailyScans(net_a, 2, 5);
  ScanEngineOptions options;
  const DailyScanResult via_engine = RunShardedDailyScans(net_b, 2, 5, options);
  ExpectSameLoss(via_wrapper, via_engine);
  ExpectSameAggregates(via_wrapper, via_engine);
}

TEST(ParallelDeterminismTest, BlacklistedTargetsAreNeverProbed) {
  simnet::Internet net(simnet::PaperPopulationSpec(300), 7);
  Blacklist blacklist;
  const std::string excluded = net.GetDomain(0).name;
  blacklist.ExcludeDomain(excluded);

  std::ostringstream stream;
  ObservationWriter sink(stream);
  ScanEngineOptions options;
  options.threads = 4;
  options.blacklist = &blacklist;
  options.store = &sink;
  RunShardedDailyScans(net, 1, 13, options);

  const auto observations = ParseObservations(stream.str());
  ASSERT_FALSE(observations.empty());
  for (const StoredObservation& stored : observations) {
    EXPECT_NE(net.GetDomain(stored.observation.domain).name, excluded);
  }
}

TEST(ParallelDeterminismTest, ThreadsFromEnvParsesAndClamps) {
  ASSERT_EQ(setenv("TLSHARM_THREADS", "8", 1), 0);
  EXPECT_EQ(ScanThreadsFromEnv(), 8);
  ASSERT_EQ(setenv("TLSHARM_THREADS", "0", 1), 0);
  EXPECT_EQ(ScanThreadsFromEnv(), 1);  // out of range -> default
  ASSERT_EQ(setenv("TLSHARM_THREADS", "not a number", 1), 0);
  EXPECT_EQ(ScanThreadsFromEnv(), 1);
  ASSERT_EQ(unsetenv("TLSHARM_THREADS"), 0);
  EXPECT_EQ(ScanThreadsFromEnv(), 1);
}

}  // namespace
}  // namespace tlsharm::scanner
