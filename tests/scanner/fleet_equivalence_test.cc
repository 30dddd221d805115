// Fleet-budget equivalence — the contract of the memory-bounded scan
// engine: a fleet whose budget forces constant eviction and rebuilding must
// produce BYTE-identical study artifacts to one that keeps every terminator
// resident once built, at any thread count and any main-pass batch size,
// with fault injection exercising the outage/requeue paths.
//
// The engine probes each batch grouped by terminator, which is what keeps
// a bounded fleet from rebuilding terminators on every touch;
// BuildsEachTerminatorAtMostOncePerDay pins that down as an exact bound.
//
// Artifacts compared against the unbounded 1-thread baseline:
//   * the canonical text observation stream (every byte),
//   * the JSONL probe trace (every byte),
//   * the columnar warehouse (manifest CRC + row/byte counts — the
//     manifest indexes every segment's size and CRC-32),
//   * the adversary capture tape (same manifest-level identity),
//   * the merged metrics snapshot JSON,
//   * the DailyScanResult aggregates and loss ledger.
#include "scanner/scan_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "warehouse/capture.h"
#include "warehouse/warehouse.h"

namespace tlsharm::scanner {
namespace {

constexpr std::size_t kPopulation = 2000;
constexpr int kDays = 3;
constexpr std::uint64_t kWorldSeed = 20160302;
constexpr std::uint64_t kScanSeed = 777;
// Unbounded: nothing is ever evicted. Bounded: the study's working set is
// about 1.6 MiB, so a 1 MiB budget evicts and rebuilds terminators all
// through the scan.
constexpr std::size_t kUnboundedMb = std::size_t{1} << 20;
constexpr std::size_t kBoundedMb = 1;
const std::size_t kDefaultBatch = ScanEngineOptions{}.batch_size;

struct StudyArtifacts {
  std::string observations;
  std::string trace;
  std::uint32_t warehouse_manifest_crc = 0;
  std::uint64_t warehouse_rows = 0;
  std::uint64_t warehouse_bytes = 0;
  std::uint32_t capture_manifest_crc = 0;
  std::uint64_t capture_rows = 0;
  std::uint64_t capture_bytes = 0;
  std::string metrics_json;
  DailyScanResult result;
};

// One fully instrumented study run. Bounded runs must actually evict, so
// the test proves rebuild-after-evict purity, not just build-once purity.
StudyArtifacts RunStudy(std::size_t budget_mb, int threads,
                        std::size_t batch_size, const std::string& tag) {
  simnet::PopulationSpec spec = simnet::PaperPopulationSpec(kPopulation);
  spec.fleet_budget_mb = budget_mb;
  simnet::Internet net(spec, kWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  const std::string base =
      ::testing::TempDir() + "fleet_equivalence_" + tag;
  const std::string warehouse_dir = base + "_wh";
  const std::string capture_dir = base + "_cap";
  std::filesystem::remove_all(warehouse_dir);
  std::filesystem::remove_all(capture_dir);

  std::string error;
  auto warehouse = warehouse::WarehouseWriter::Create(warehouse_dir, &error);
  EXPECT_NE(warehouse, nullptr) << error;
  auto capture = warehouse::CaptureTapeWriter::Create(capture_dir, &error);
  EXPECT_NE(capture, nullptr) << error;

  std::ostringstream stream;
  ObservationWriter sink(stream);
  std::ostringstream trace_stream;
  obs::JsonlTraceSink trace(trace_stream);
  obs::MetricsRegistry metrics;

  MultiStoreWriter stores;
  stores.Add(&sink);
  stores.Add(warehouse.get());
  ScanEngineOptions options;
  options.threads = threads;
  options.batch_size = batch_size;
  options.robustness.retry.max_attempts = 2;
  options.store = &stores;
  options.capture = capture.get();
  options.metrics = &metrics;
  options.trace = &trace;

  StudyArtifacts out;
  out.result = RunShardedDailyScans(net, kDays, kScanSeed, options);
  if (budget_mb == kUnboundedMb) {
    EXPECT_EQ(net.Fleet().evictions, 0u) << tag;
  } else {
    EXPECT_GT(net.Fleet().evictions, 0u)
        << tag << ": the bounded fleet never evicted";
  }
  out.observations = stream.str();
  out.trace = trace_stream.str();
  EXPECT_TRUE(warehouse->ok()) << warehouse->error();
  EXPECT_TRUE(capture->ok()) << capture->error();
  out.warehouse_manifest_crc = warehouse->ManifestCrc();
  out.warehouse_rows = warehouse->RowsWritten();
  out.warehouse_bytes = warehouse->BytesWritten();
  out.capture_manifest_crc = capture->ManifestCrc();
  out.capture_rows = capture->RowsWritten();
  out.capture_bytes = capture->BytesWritten();
  out.metrics_json = metrics.SnapshotJson();

  std::filesystem::remove_all(warehouse_dir);
  std::filesystem::remove_all(capture_dir);
  return out;
}

void ExpectSameArtifacts(const StudyArtifacts& got,
                         const StudyArtifacts& want,
                         const std::string& label) {
  EXPECT_EQ(got.observations, want.observations)
      << label << ": text observation stream diverged";
  EXPECT_EQ(got.trace, want.trace) << label << ": probe trace diverged";
  EXPECT_EQ(got.warehouse_manifest_crc, want.warehouse_manifest_crc)
      << label << ": warehouse manifest CRC diverged";
  EXPECT_EQ(got.warehouse_rows, want.warehouse_rows) << label;
  EXPECT_EQ(got.warehouse_bytes, want.warehouse_bytes) << label;
  EXPECT_EQ(got.capture_manifest_crc, want.capture_manifest_crc)
      << label << ": capture tape manifest CRC diverged";
  EXPECT_EQ(got.capture_rows, want.capture_rows) << label;
  EXPECT_EQ(got.capture_bytes, want.capture_bytes) << label;
  EXPECT_EQ(got.metrics_json, want.metrics_json)
      << label << ": metrics snapshot diverged";

  const DailyScanResult& a = got.result;
  const DailyScanResult& b = want.result;
  EXPECT_EQ(a.core_domains, b.core_domains) << label;
  EXPECT_EQ(a.core_ever_ticket, b.core_ever_ticket) << label;
  EXPECT_EQ(a.core_ever_ecdhe, b.core_ever_ecdhe) << label;
  EXPECT_EQ(a.core_ever_dhe_connect, b.core_ever_dhe_connect) << label;
  EXPECT_EQ(a.core_any_mechanism, b.core_any_mechanism) << label;
  ASSERT_EQ(a.loss.size(), b.loss.size()) << label;
  for (std::size_t day = 0; day < a.loss.size(); ++day) {
    EXPECT_EQ(a.loss[day].scheduled, b.loss[day].scheduled)
        << label << " day " << day;
    EXPECT_EQ(a.loss[day].recovered, b.loss[day].recovered)
        << label << " day " << day;
    EXPECT_EQ(a.loss[day].lost, b.loss[day].lost) << label << " day " << day;
    EXPECT_EQ(a.loss[day].lost_by_class, b.loss[day].lost_by_class)
        << label << " day " << day;
  }
  for (const DomainIndex id : b.core_domains) {
    EXPECT_EQ(a.stek_spans.MaxSpanDays(id), b.stek_spans.MaxSpanDays(id));
    EXPECT_EQ(a.ecdhe_spans.MaxSpanDays(id), b.ecdhe_spans.MaxSpanDays(id));
    EXPECT_EQ(a.dhe_spans.MaxSpanDays(id), b.dhe_spans.MaxSpanDays(id));
  }
}

TEST(FleetEquivalenceTest, LazyFleetMatchesMaterializedByteForByte) {
  const StudyArtifacts baseline =
      RunStudy(kUnboundedMb, 1, kDefaultBatch, "unbounded_t1");

  // The study must actually exercise the interesting paths.
  ASSERT_FALSE(baseline.observations.empty());
  ASSERT_FALSE(baseline.trace.empty());
  ASSERT_EQ(baseline.result.loss.size(), static_cast<std::size_t>(kDays));
  ASSERT_GT(baseline.result.loss[0].recovered + baseline.result.loss[0].lost,
            0u)
      << "fault injection produced no transport failures; the requeue "
         "path went untested";
  ASSERT_FALSE(baseline.result.core_domains.empty());
  ASSERT_GT(baseline.capture_rows, 0u);
  ASSERT_GT(baseline.warehouse_rows, 0u);

  for (const int threads : {1, 2, 8}) {
    const std::string tag = "bounded_t" + std::to_string(threads);
    ExpectSameArtifacts(RunStudy(kBoundedMb, threads, kDefaultBatch, tag),
                        baseline,
                        "bounded/" + std::to_string(threads) + " threads");
  }
  // Unbounded parallel too: isolates eviction effects from sharding.
  ExpectSameArtifacts(
      RunStudy(kUnboundedMb, 8, kDefaultBatch, "unbounded_t8"), baseline,
      "unbounded/8 threads");
}

TEST(FleetEquivalenceTest, BatchSizeNeverChangesArtifacts) {
  const StudyArtifacts baseline =
      RunStudy(kBoundedMb, 2, kDefaultBatch, "batch_default");
  // A prime far smaller than the population: every day spans many ragged
  // batches, so flush boundaries land mid-shard everywhere.
  ExpectSameArtifacts(RunStudy(kBoundedMb, 2, 97, "batch_97"), baseline,
                      "batch=97");
  ExpectSameArtifacts(RunStudy(kBoundedMb, 2, 1, "batch_1"), baseline,
                      "batch=1");
}

// A single-threaded scan probes each terminator's targets back to back, so
// a fleet far over its budget still builds each terminator at most once a
// day: the bound is the number of distinct terminators each day's probes
// connect to, summed over days. Faults stay off because retries and the
// requeue pass connect at other times, which the bound does not count.
TEST(FleetEquivalenceTest, BuildsEachTerminatorAtMostOncePerDay) {
  simnet::PopulationSpec spec = simnet::PaperPopulationSpec(kPopulation);
  spec.fleet_budget_mb = kBoundedMb;
  simnet::Internet net(spec, kWorldSeed);
  ScanEngineOptions options;
  options.robustness.retry.max_attempts = 2;
  RunShardedDailyScans(net, kDays, kScanSeed, options);

  std::uint64_t bound = 0;
  for (int day = 0; day < kDays; ++day) {
    const SimTime when = ScanDayStart(day);
    std::set<simnet::TerminatorId> hit;
    for (const simnet::DomainId id :
         CollectScanTargets(net, day, kScanSeed, nullptr,
                            /*https_only=*/true)) {
      hit.insert(net.EndpointFor(id, when));
      hit.insert(net.EndpointFor(id, when + kHour));
    }
    bound += hit.size();
  }
  const simnet::Internet::FleetStats fleet = net.Fleet();
  EXPECT_GT(fleet.evictions, 0u) << "the bounded fleet never evicted";
  EXPECT_LE(fleet.materializations, bound)
      << "a terminator was rebuilt within a day";
}

}  // namespace
}  // namespace tlsharm::scanner
