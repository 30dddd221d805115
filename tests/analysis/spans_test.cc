#include "analysis/spans.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tlsharm::analysis {
namespace {

TEST(SpanTrackerTest, UnobservedDomainHasZeroSpan) {
  SpanTracker tracker;
  EXPECT_EQ(tracker.MaxSpanDays(7), 0);
  EXPECT_FALSE(tracker.EverObserved(7));
}

TEST(SpanTrackerTest, SingleObservationSpansOneDay) {
  SpanTracker tracker;
  tracker.Observe(1, 0xabc, 5);
  EXPECT_EQ(tracker.MaxSpanDays(1), 1);
  EXPECT_TRUE(tracker.EverObserved(1));
}

TEST(SpanTrackerTest, ContinuousReuseSpans) {
  SpanTracker tracker;
  for (int day = 0; day < 63; ++day) tracker.Observe(1, 0xabc, day);
  EXPECT_EQ(tracker.MaxSpanDays(1), 63);
}

TEST(SpanTrackerTest, DailyRotationSpansOne) {
  SpanTracker tracker;
  for (int day = 0; day < 63; ++day) {
    tracker.Observe(1, 0x1000 + static_cast<SecretId>(day), day);
  }
  EXPECT_EQ(tracker.MaxSpanDays(1), 1);
  EXPECT_EQ(tracker.DaysObserved(1), 63);
}

TEST(SpanTrackerTest, JitterGapsDoNotBreakSpan) {
  // §4.3: intermediate days with a different id (load-balancer flip) must
  // not reset the first/last computation.
  SpanTracker tracker;
  tracker.Observe(1, 0xaaa, 0);
  tracker.Observe(1, 0xbbb, 1);  // other terminator answered
  tracker.Observe(1, 0xaaa, 2);
  tracker.Observe(1, 0xbbb, 3);
  tracker.Observe(1, 0xaaa, 4);
  EXPECT_EQ(tracker.MaxSpanDays(1), 5);  // 0xaaa spans day 0..4
}

TEST(SpanTrackerTest, SpanIsPerSecretNotPerDomain) {
  SpanTracker tracker;
  // Rotation at day 10: two secrets, spans 10 and 5.
  for (int day = 0; day < 10; ++day) tracker.Observe(1, 0x1, day);
  for (int day = 10; day < 15; ++day) tracker.Observe(1, 0x2, day);
  EXPECT_EQ(tracker.MaxSpanDays(1), 10);
}

TEST(SpanTrackerTest, FoldedEntriesStillCountTowardMax) {
  // An id retired long ago (beyond the horizon) must still contribute.
  SpanTracker tracker(/*reappearance_horizon_days=*/3);
  for (int day = 0; day < 20; ++day) tracker.Observe(1, 0x1, day);
  for (int day = 20; day < 63; ++day) {
    tracker.Observe(1, 0x100 + static_cast<SecretId>(day), day);
  }
  EXPECT_EQ(tracker.MaxSpanDays(1), 20);
}

TEST(SpanTrackerTest, ReappearanceWithinHorizonExtends) {
  SpanTracker tracker(/*reappearance_horizon_days=*/8);
  tracker.Observe(1, 0x1, 0);
  tracker.Observe(1, 0x2, 1);
  tracker.Observe(1, 0x2, 2);
  tracker.Observe(1, 0x2, 3);
  tracker.Observe(1, 0x1, 6);  // reappears within 8 days
  EXPECT_EQ(tracker.MaxSpanDays(1), 7);  // 0x1: day 0..6
}

TEST(SpanTrackerTest, DomainsAreIndependent) {
  SpanTracker tracker;
  tracker.Observe(1, 0x1, 0);
  tracker.Observe(1, 0x1, 7);  // within the default 8-day horizon
  tracker.Observe(2, 0x1, 5);
  EXPECT_EQ(tracker.MaxSpanDays(1), 8);
  EXPECT_EQ(tracker.MaxSpanDays(2), 1);
}

TEST(SpanTrackerTest, GapBeyondHorizonStartsNewSpan) {
  // A recurrence after more than the reappearance horizon is treated as a
  // fresh epoch (the scanner's memory-bounding policy; see spans.h).
  SpanTracker tracker;  // default horizon 8
  tracker.Observe(1, 0x1, 0);
  tracker.Observe(1, 0x1, 9);
  EXPECT_EQ(tracker.MaxSpanDays(1), 1);
}

TEST(SpanTrackerTest, NoSecretObservationsIgnored) {
  SpanTracker tracker;
  tracker.Observe(1, scanner::kNoSecret, 0);
  EXPECT_FALSE(tracker.EverObserved(1));
}

TEST(SpanTrackerTest, AllSpansEnumeratesEveryDomain) {
  SpanTracker tracker;
  tracker.Observe(1, 0x1, 0);
  tracker.Observe(2, 0x2, 0);
  tracker.Observe(2, 0x2, 4);
  auto spans = tracker.AllSpans();
  std::sort(spans.begin(), spans.end());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (std::pair<DomainIndex, int>{1, 1}));
  EXPECT_EQ(spans[1], (std::pair<DomainIndex, int>{2, 5}));
}

TEST(SpanTrackerTest, AllSpansIsSortedByDomainIndex) {
  // Reports and byte-equality checks built on AllSpans depend on a stable
  // order, and an insertion order unlike the index order is the case that
  // would expose one that follows the tracker's storage.
  SpanTracker tracker;
  for (const DomainIndex domain : {7, 3, 11, 1, 5, 2}) {
    tracker.Observe(domain, 0x9, 0);
  }
  const auto spans = tracker.AllSpans();
  ASSERT_EQ(spans.size(), 6u);
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end()));
  EXPECT_EQ(spans.front().first, 1u);
  EXPECT_EQ(spans.back().first, 11u);
}

// The encoding is a function of the tracked state alone: observing the
// same domains in another order encodes the same bytes, and those bytes
// decode to a tracker that answers the same and re-encodes them unchanged.
TEST(SpanTrackerTest, EncodingIgnoresObservationOrderAndRoundTrips) {
  SpanTracker forward, backward;
  const DomainIndex domains[] = {3, 42, 1000};
  for (int day = 0; day < 12; ++day) {
    const SecretId epoch = static_cast<SecretId>(day / 5);
    for (const DomainIndex domain : domains) {
      forward.Observe(domain, 100 * domain + epoch, day);
    }
    for (int i = 2; i >= 0; --i) {
      backward.Observe(domains[i], 100 * domains[i] + epoch, day);
    }
  }
  Bytes encoded, reversed;
  forward.EncodeState(encoded);
  backward.EncodeState(reversed);
  EXPECT_EQ(encoded, reversed);

  SpanTracker decoded;
  std::size_t off = 0;
  ASSERT_TRUE(decoded.DecodeState(encoded, off));
  EXPECT_EQ(off, encoded.size());
  Bytes again;
  decoded.EncodeState(again);
  EXPECT_EQ(again, encoded);
  for (const DomainIndex domain : domains) {
    EXPECT_EQ(decoded.MaxSpanDays(domain), 5);
    EXPECT_EQ(decoded.DaysObserved(domain), 12);
  }
  EXPECT_FALSE(decoded.EverObserved(4));
  EXPECT_EQ(decoded.AllSpans(), forward.AllSpans());
}

TEST(SpanTrackerTest, DecodeRejectsADomainIndexPastAnyRoster) {
  // horizon 8, one domain at index 2^28: best 0, one day observed (day 0,
  // stored biased by one), no live entries.
  Bytes bytes;
  const std::uint64_t fields[] = {8, 1, std::uint64_t{1} << 28, 0, 1, 1, 0};
  for (const std::uint64_t v : fields) AppendVarint(bytes, v);
  SpanTracker tracker;
  std::size_t off = 0;
  EXPECT_FALSE(tracker.DecodeState(bytes, off));
}

// Property sweep: for any rotation period P, measured span == P (except a
// possibly shorter final epoch).
class SpanRotationTest : public ::testing::TestWithParam<int> {};

TEST_P(SpanRotationTest, MeasuredSpanMatchesRotationPeriod) {
  const int period = GetParam();
  SpanTracker tracker;
  for (int day = 0; day < 63; ++day) {
    tracker.Observe(42, 0x9000 + static_cast<SecretId>(day / period), day);
  }
  EXPECT_EQ(tracker.MaxSpanDays(42), std::min(period, 63));
}

INSTANTIATE_TEST_SUITE_P(Periods, SpanRotationTest,
                         ::testing::Values(1, 2, 3, 7, 14, 30, 63, 100));

}  // namespace
}  // namespace tlsharm::analysis
