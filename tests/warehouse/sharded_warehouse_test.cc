// Thread-count independence of warehouse recording: the sharded scan
// engine streaming into a WarehouseWriter must produce byte-identical
// segment files and MANIFEST at 1, 2 and 8 threads, while a text sink
// attached to the same run stays identical too. The fixture name keeps it
// inside the TSan gate's filter (scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "scanner/scan_engine.h"
#include "warehouse/warehouse.h"

namespace tlsharm::warehouse {
namespace {

struct Recording {
  std::string text;                       // the parallel text sink
  std::vector<std::string> files;         // manifest + segments, sorted
  std::vector<Bytes> contents;            // matching files
};

Recording Record(int threads) {
  const std::string dir = ::testing::TempDir() + "warehouse_sharded_" +
                          std::to_string(threads);
  std::filesystem::remove_all(dir);

  simnet::Internet net(simnet::PaperPopulationSpec(600), 4242);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  std::ostringstream stream;
  scanner::ObservationWriter sink(stream);
  std::string error;
  auto writer = WarehouseWriter::Create(dir, &error);
  EXPECT_NE(writer, nullptr) << error;

  scanner::MultiStoreWriter stores;
  stores.Add(&sink);
  stores.Add(writer.get());
  scanner::ScanEngineOptions options;
  options.threads = threads;
  options.robustness.retry.max_attempts = 3;
  options.store = &stores;
  scanner::RunShardedDailyScans(net, 3, 777, options);
  EXPECT_TRUE(writer->ok()) << writer->error();

  Recording rec;
  rec.text = stream.str();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    rec.files.push_back(entry.path().filename().string());
  }
  std::sort(rec.files.begin(), rec.files.end());
  for (const std::string& file : rec.files) {
    Bytes bytes;
    EXPECT_TRUE(ReadWarehouseFile(dir + "/" + file, &bytes, &error)) << error;
    rec.contents.push_back(std::move(bytes));
  }
  return rec;
}

TEST(ShardedWarehouseTest, WarehouseBytesAreThreadCountIndependent) {
  const Recording serial = Record(1);
  ASSERT_FALSE(serial.text.empty());
  ASSERT_FALSE(serial.files.empty());

  for (const int threads : {2, 8}) {
    const Recording parallel = Record(threads);
    EXPECT_EQ(parallel.text, serial.text)
        << "text sink diverged at " << threads << " threads";
    ASSERT_EQ(parallel.files, serial.files)
        << "file set diverged at " << threads << " threads";
    for (std::size_t i = 0; i < serial.files.size(); ++i) {
      EXPECT_EQ(parallel.contents[i], serial.contents[i])
          << serial.files[i] << " diverged at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace tlsharm::warehouse
