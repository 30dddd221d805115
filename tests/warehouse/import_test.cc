// Text store <-> warehouse conversion: for a canonical text store the
// round trip text -> warehouse -> text is byte-identical, malformed lines
// are counted not imported, and the columnar form is smaller than the text
// it came from on a realistic store.
#include "warehouse/import.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "scanner/scan_engine.h"

namespace tlsharm::warehouse {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "warehouse_import_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A realistic canonical text store: a seeded faulty 3-day study.
std::string RecordTextStudy() {
  simnet::Internet net(simnet::PaperPopulationSpec(400), 11);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));
  std::ostringstream stream;
  scanner::ObservationWriter sink(stream);
  scanner::ScanEngineOptions options;
  options.robustness.retry.max_attempts = 3;
  options.store = &sink;
  scanner::RunShardedDailyScans(net, 3, 99, options);
  return stream.str();
}

TEST(ImportTest, TextWarehouseTextIsByteIdentical) {
  const std::string text = RecordTextStudy();
  ASSERT_FALSE(text.empty());

  const std::string dir = FreshDir("roundtrip");
  std::istringstream in(text);
  ImportStats to_stats;
  std::string error;
  ASSERT_TRUE(TextToWarehouse(in, dir, &to_stats, &error)) << error;
  EXPECT_EQ(to_stats.corrupt_lines, 0u);
  EXPECT_EQ(to_stats.days, 3u);
  EXPECT_GT(to_stats.rows, 0u);

  const auto wh = Warehouse::Open(dir, &error);
  ASSERT_TRUE(wh.has_value()) << error;
  std::ostringstream out;
  ImportStats from_stats;
  ASSERT_TRUE(WarehouseToText(*wh, out, &from_stats, &error)) << error;
  EXPECT_EQ(from_stats.rows, to_stats.rows);
  EXPECT_EQ(out.str(), text) << "text -> warehouse -> text is not identity";
}

TEST(ImportTest, WarehouseIsSmallerThanTheTextStore) {
  const std::string text = RecordTextStudy();
  const std::string dir = FreshDir("size");
  std::istringstream in(text);
  ImportStats stats;
  std::string error;
  ASSERT_TRUE(TextToWarehouse(in, dir, &stats, &error)) << error;
  EXPECT_LT(stats.warehouse_bytes, text.size())
      << "columnar form (" << stats.warehouse_bytes
      << " bytes) did not beat the text store (" << text.size() << " bytes)";
}

TEST(ImportTest, ImportedWarehouseMatchesDirectlyRecordedOne) {
  // Scanning straight into a WarehouseWriter and importing the text sink's
  // output must produce byte-identical segments — one canonical stream,
  // two routes.
  const std::string direct_dir = FreshDir("direct");
  std::ostringstream stream;
  scanner::ObservationWriter sink(stream);
  std::string error;
  auto writer = WarehouseWriter::Create(direct_dir, &error);
  ASSERT_NE(writer, nullptr) << error;

  simnet::Internet net(simnet::PaperPopulationSpec(400), 11);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));
  scanner::MultiStoreWriter stores;
  stores.Add(&sink);
  stores.Add(writer.get());
  scanner::ScanEngineOptions options;
  options.robustness.retry.max_attempts = 3;
  options.store = &stores;
  scanner::RunShardedDailyScans(net, 3, 99, options);
  ASSERT_TRUE(writer->ok()) << writer->error();

  const std::string imported_dir = FreshDir("imported");
  std::istringstream in(stream.str());
  ASSERT_TRUE(TextToWarehouse(in, imported_dir, nullptr, &error)) << error;

  for (const char* file :
       {"MANIFEST", "obs-00000.seg", "obs-00001.seg", "obs-00002.seg"}) {
    Bytes a, b;
    ASSERT_TRUE(ReadWarehouseFile(direct_dir + std::string("/") + file, &a,
                                  &error))
        << error;
    ASSERT_TRUE(ReadWarehouseFile(imported_dir + std::string("/") + file, &b,
                                  &error))
        << error;
    EXPECT_EQ(a, b) << file << " differs between scan-recorded and "
                    << "text-imported warehouses";
  }
}

TEST(ImportTest, MalformedLinesAreCountedNotImported) {
  const std::string dir = FreshDir("corrupt");
  std::istringstream in(
      "0|1|7|49191|23|5|6|0|0|0\n"
      "not an observation\n"
      "0|2|7|49191|23|5|6|0|0|0\n"
      "1|2|3\n"
      "1|1|7|49191|23|5|6|0|0|0\n");
  ImportStats stats;
  std::string error;
  ASSERT_TRUE(TextToWarehouse(in, dir, &stats, &error)) << error;
  EXPECT_EQ(stats.rows, 3u);
  EXPECT_EQ(stats.corrupt_lines, 2u);
  EXPECT_EQ(stats.days, 2u);
}

TEST(ImportTest, OutOfOrderDaysFailTheImport) {
  const std::string dir = FreshDir("order");
  std::istringstream in(
      "1|1|7|49191|23|5|6|0|0|0\n"
      "0|1|7|49191|23|5|6|0|0|0\n");
  std::string error;
  EXPECT_FALSE(TextToWarehouse(in, dir, nullptr, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tlsharm::warehouse
