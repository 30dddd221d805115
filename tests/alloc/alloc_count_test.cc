// Heap allocations per probe, counted exactly.
//
// Replaces the global operator new and delete with counting versions (this
// binary holds no other test), then runs two fixed single-threaded
// workloads: a ticket resumption-lifetime sweep (the Figs. 1-2 shape: one
// full handshake per domain, then resumptions that cost PRF and HMAC work
// only) and a one-day scan (full handshakes). At a fixed configuration the count repeats exactly on any
// host, so a new allocation on the handshake path shows here even when
// timing noise would hide it. Each ceiling is the count measured when it
// was set; the comments give the counts before the handshake path's
// allocations were trimmed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "scanner/experiments.h"
#include "scanner/scan_engine.h"
#include "simnet/internet.h"
#include "simnet/spec.h"

namespace {

// Set only on a thread inside CountAllocations, so nothing else counts.
thread_local bool t_counting = false;
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (t_counting) g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlsharm::scanner {
namespace {

// Allocations made by `fn` on this thread.
template <typename Fn>
std::uint64_t CountAllocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  t_counting = true;
  fn();
  t_counting = false;
  return g_allocations.load() - before;
}

constexpr std::size_t kPopulation = 1000;
constexpr std::uint64_t kWorldSeed = 20161114;
constexpr SimTime kStep = 5 * kMinute;
constexpr SimTime kMaxDelay = 24 * kHour;

// Probes a lifetime sweep issued: one handshake per trusted HTTPS domain,
// the +1 s attempt for every domain that indicated resumption, then every
// `kStep` attempt up to and including the first failure.
std::uint64_t LifetimeProbes(const ResumptionLifetimeResult& r) {
  const SimTime last = kMaxDelay / kStep * kStep;
  std::uint64_t probes = r.trusted_https + r.indicated;
  for (const LifetimeMeasurement& m : r.lifetimes) {
    if (m.max_delay < kStep) {
      probes += 1;
    } else {
      probes += static_cast<std::uint64_t>(m.max_delay / kStep) +
                (m.max_delay < last ? 1 : 0);
    }
  }
  return probes;
}

// One test, so the two sweeps always run in this order in a fresh process:
// the PRF memo is thread-local and carries over from one to the next.
TEST(AllocationCount, ResumptionSweepAndOneDayScanStayUnderTheirCeilings) {
  simnet::Internet net(simnet::PaperPopulationSpec(kPopulation), kWorldSeed);

  ResumptionLifetimeResult sweep;
  const std::uint64_t sweep_allocs = CountAllocations([&] {
    sweep = MeasureTicketLifetime(net, 1, 7, kMaxDelay, kStep);
  });
  const std::uint64_t sweep_probes = LifetimeProbes(sweep);

  std::uint64_t scan_probes = 0;
  ScanEngineOptions options;
  options.threads = 1;
  options.progress = [&scan_probes](const ScanProgress& p) {
    scan_probes = p.total_probes;
  };
  const std::uint64_t scan_allocs = CountAllocations(
      [&] { (void)RunShardedDailyScans(net, 1, 11, options); });

  ASSERT_GT(sweep_probes, 0u);
  ASSERT_GT(scan_probes, 0u);
  std::printf("resumption sweep: %llu allocations / %llu probes = %.2f per "
              "probe\n",
              static_cast<unsigned long long>(sweep_allocs),
              static_cast<unsigned long long>(sweep_probes),
              static_cast<double>(sweep_allocs) / sweep_probes);
  std::printf("one-day scan: %llu allocations / %llu probes = %.2f per "
              "probe\n",
              static_cast<unsigned long long>(scan_allocs),
              static_cast<unsigned long long>(scan_probes),
              static_cast<double>(scan_allocs) / scan_probes);

  // The workloads themselves must not drift, or the ceilings compare
  // different work.
  EXPECT_EQ(sweep_probes, 15551u);
  EXPECT_EQ(scan_probes, 1230u);
  // 200.8 per probe before the handshake path's allocations were trimmed
  // (3,121,980); 97.1 when this ceiling was set.
  EXPECT_LE(sweep_allocs, 1509165u);
  // 288.3 per probe before (354,603); 169.7 when this ceiling was set.
  EXPECT_LE(scan_allocs, 208755u);
}

}  // namespace
}  // namespace tlsharm::scanner
