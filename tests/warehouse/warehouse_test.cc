// WarehouseWriter / Warehouse directory-level behavior: the StoreWriter
// contract (day segments close on EndDay, days non-decreasing), day-range
// pruning and experiment tables. The directory contract both day stores
// share (reset on Create, manifest integrity, header refusal, the resume
// sweep) runs over the warehouse and the tape in day_store_test.cc.
#include "warehouse/warehouse.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "warehouse/format.h"

namespace tlsharm::warehouse {
namespace {

using scanner::HandshakeObservation;

HandshakeObservation Obs(scanner::DomainIndex domain) {
  HandshakeObservation obs;
  obs.domain = domain;
  obs.connected = true;
  obs.handshake_ok = true;
  obs.failure = scanner::ProbeFailure::kUntrusted;
  return obs;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "warehouse_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(WarehouseWriterTest, WritesOneSegmentPerDayAndReadsBack) {
  const std::string dir = FreshDir("roundtrip");
  std::string error;
  auto writer = WarehouseWriter::Create(dir, &error);
  ASSERT_NE(writer, nullptr) << error;

  writer->Append(0, Obs(5));
  writer->Append(0, Obs(3));
  writer->EndDay(0);
  writer->EndDay(1);  // scanned day with zero observations
  writer->Append(2, Obs(8));
  writer->EndDay(2);
  writer->Finish();
  ASSERT_TRUE(writer->ok()) << writer->error();
  EXPECT_EQ(writer->RowsWritten(), 3u);

  const auto wh = Warehouse::Open(dir, &error);
  ASSERT_TRUE(wh.has_value()) << error;
  EXPECT_EQ(wh->DayCount(), 3);
  EXPECT_EQ(wh->TotalRows(), 3u);
  ASSERT_EQ(wh->ObservationSegments().size(), 3u);
  EXPECT_EQ(wh->ObservationSegments()[1].rows, 0u);

  std::vector<std::pair<int, scanner::DomainIndex>> seen;
  ASSERT_TRUE(wh->ForEachObservation(
      0, 100,
      [&](const scanner::StoredObservation& stored) {
        seen.push_back({stored.day, stored.observation.domain});
      },
      &error))
      << error;
  const std::vector<std::pair<int, scanner::DomainIndex>> expected = {
      {0, 5}, {0, 3}, {2, 8}};
  EXPECT_EQ(seen, expected);
}

TEST(WarehouseWriterTest, DayRangePrunesSegments) {
  const std::string dir = FreshDir("prune");
  std::string error;
  auto writer = WarehouseWriter::Create(dir, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (int day = 0; day < 5; ++day) {
    writer->Append(day, Obs(static_cast<scanner::DomainIndex>(day)));
    writer->EndDay(day);
  }
  writer->Finish();
  ASSERT_TRUE(writer->ok()) << writer->error();

  auto wh = Warehouse::Open(dir, &error);
  ASSERT_TRUE(wh.has_value()) << error;

  // Delete the out-of-range segment files: if pruning works, the read
  // below never notices.
  std::filesystem::remove(dir + "/obs-00000.seg");
  std::filesystem::remove(dir + "/obs-00004.seg");

  std::vector<int> days;
  ASSERT_TRUE(wh->ForEachObservation(
      1, 3,
      [&](const scanner::StoredObservation& stored) {
        days.push_back(stored.day);
      },
      &error))
      << error;
  EXPECT_EQ(days, (std::vector<int>{1, 2, 3}));

  // Touching the full range must now fail loudly on the missing file.
  EXPECT_FALSE(wh->ForEachObservation(
      0, 4, [](const scanner::StoredObservation&) {}, &error));
  EXPECT_FALSE(error.empty());
}

TEST(WarehouseWriterTest, NonMonotonicDaysLatchAnError) {
  const std::string dir = FreshDir("order");
  std::string error;
  auto writer = WarehouseWriter::Create(dir, &error);
  ASSERT_NE(writer, nullptr) << error;
  writer->Append(3, Obs(1));
  writer->EndDay(3);
  writer->Append(2, Obs(1));  // day went backwards
  EXPECT_FALSE(writer->ok());
  EXPECT_FALSE(writer->error().empty());
}

TEST(WarehouseWriterTest, AutoFlushOnDayChangeMatchesExplicitEndDay) {
  // The text importer never calls EndDay between days; a day change in
  // Append must close the previous day's segment identically.
  const std::string explicit_dir = FreshDir("explicit");
  const std::string implicit_dir = FreshDir("implicit");
  std::string error;
  auto explicit_writer = WarehouseWriter::Create(explicit_dir, &error);
  ASSERT_NE(explicit_writer, nullptr) << error;
  auto implicit_writer = WarehouseWriter::Create(implicit_dir, &error);
  ASSERT_NE(implicit_writer, nullptr) << error;

  for (auto* writer : {explicit_writer.get(), implicit_writer.get()}) {
    writer->Append(0, Obs(1));
    writer->Append(0, Obs(2));
    if (writer == explicit_writer.get()) writer->EndDay(0);
    writer->Append(1, Obs(3));
    if (writer == explicit_writer.get()) writer->EndDay(1);
    writer->Finish();
    ASSERT_TRUE(writer->ok()) << writer->error();
  }

  for (const char* file : {"obs-00000.seg", "obs-00001.seg", "MANIFEST"}) {
    Bytes a, b;
    ASSERT_TRUE(
        ReadWarehouseFile(explicit_dir + "/" + file, &a, &error))
        << error;
    ASSERT_TRUE(
        ReadWarehouseFile(implicit_dir + "/" + file, &b, &error))
        << error;
    EXPECT_EQ(a, b) << file << " differs";
  }
}

TEST(WarehouseTest, LifetimeTablesRoundTrip) {
  const std::string dir = FreshDir("lifetime");
  std::string error;
  auto writer = WarehouseWriter::Create(dir, &error);
  ASSERT_NE(writer, nullptr) << error;

  scanner::ResumptionLifetimeResult result;
  result.trusted_https = 100;
  result.indicated = 80;
  result.resumed_1s = 60;
  result.lifetimes.push_back({2, 30 * kMinute, 0});
  result.lifetimes.push_back({9, 6 * kHour, 21600});
  ASSERT_TRUE(writer->WriteLifetime("ticket", result)) << writer->error();
  writer->Finish();
  ASSERT_TRUE(writer->ok()) << writer->error();

  const auto wh = Warehouse::Open(dir, &error);
  ASSERT_TRUE(wh.has_value()) << error;
  EXPECT_TRUE(wh->HasExperiment("ticket"));
  EXPECT_FALSE(wh->HasExperiment("session_id"));

  scanner::ResumptionLifetimeResult loaded;
  ASSERT_TRUE(wh->ReadExperiment("ticket", &loaded, &error)) << error;
  EXPECT_EQ(loaded.trusted_https, 100u);
  ASSERT_EQ(loaded.lifetimes.size(), 2u);
  EXPECT_EQ(loaded.lifetimes[1].domain, 9u);
  EXPECT_EQ(loaded.lifetimes[1].max_delay, 6 * kHour);

  EXPECT_FALSE(wh->ReadExperiment("session_id", &loaded, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tlsharm::warehouse
