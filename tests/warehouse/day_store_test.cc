// The day-store directory contract (day_store.h), run over both stores
// that share it — the observation warehouse and the capture tape: Create
// resets a previous study, the MANIFEST CRC vetoes a tampered segment, an
// unknown MANIFEST header is refused, and Resume verifies the kept days
// before it deletes only what it can date past the last committed day.
#include "warehouse/day_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "warehouse/capture.h"
#include "warehouse/format.h"
#include "warehouse/warehouse.h"

// The store traits live outside any namespace because ctest names each
// typed case after its type: DayStoreTest.<Case><WarehouseStore>.
struct WarehouseStore {
  using Writer = tlsharm::warehouse::WarehouseWriter;
  using Reader = tlsharm::warehouse::Warehouse;
  using Row = tlsharm::scanner::HandshakeObservation;
  static constexpr char kName[] = "warehouse";
  static constexpr char kPrefix[] = "obs-";
  static constexpr char kFutureHeader[] = "tlsharm-warehouse 999";
  static constexpr const char* kForeignHeader =
      tlsharm::warehouse::kCaptureManifestHeader;

  static Row MakeRow(std::uint32_t domain) {
    Row obs;
    obs.domain = domain;
    obs.connected = true;
    return obs;
  }
  static bool ReadDays(const Reader& store, int day_min, int day_max,
                       std::string* error) {
    return store.ForEachObservation(
        day_min, day_max, [](const tlsharm::scanner::StoredObservation&) {},
        error);
  }
};

struct CaptureTapeStore {
  using Writer = tlsharm::warehouse::CaptureTapeWriter;
  using Reader = tlsharm::warehouse::CaptureTape;
  using Row = tlsharm::attack::CaptureRecord;
  static constexpr char kName[] = "tape";
  static constexpr char kPrefix[] = "capture-";
  static constexpr char kFutureHeader[] = "tlsharm-capture-tape 999";
  static constexpr const char* kForeignHeader =
      tlsharm::warehouse::kManifestHeader;

  static Row MakeRow(std::uint32_t domain) {
    Row record;
    record.domain = domain;
    record.valid = true;
    return record;
  }
  static bool ReadDays(const Reader& store, int day_min, int day_max,
                       std::string* error) {
    return store.ForEachCapture(
        day_min, day_max, [](int, const Row&) {}, error);
  }
};

namespace tlsharm::warehouse {
namespace {

namespace fs = std::filesystem;

template <typename Store>
class DayStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "day_store_test_" + Store::kName + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Records one row on each of days 0..days-1.
  void Record(int days) {
    std::string error;
    auto writer = Store::Writer::Create(dir_, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (int day = 0; day < days; ++day) {
      writer->Append(day, Store::MakeRow(static_cast<std::uint32_t>(day + 1)));
      writer->EndDay(day);
    }
    writer->Finish();
    ASSERT_TRUE(writer->ok()) << writer->error();
  }

  std::string Segment(int day) const {
    char name[32];
    std::snprintf(name, sizeof(name), "%s%05d.seg", Store::kPrefix, day);
    return dir_ + "/" + name;
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  // Flips one bit in the middle of a file.
  static void Corrupt(const std::string& path) {
    Bytes bytes;
    std::string error;
    ASSERT_TRUE(ReadWarehouseFile(path, &bytes, &error)) << error;
    bytes[bytes.size() / 2] ^= 0x01;
    WriteFile(path, std::string(bytes.begin(), bytes.end()));
  }

  std::string dir_;
};

using Stores = ::testing::Types<WarehouseStore, CaptureTapeStore>;
TYPED_TEST_SUITE(DayStoreTest, Stores);

TYPED_TEST(DayStoreTest, CreateResetsStaleFiles) {
  this->Record(3);
  // A shorter re-recording must not leave day-2 leftovers behind.
  this->Record(1);
  EXPECT_FALSE(fs::exists(this->Segment(2)));
  std::string error;
  const auto store = TypeParam::Reader::Open(this->dir_, &error);
  ASSERT_TRUE(store.has_value()) << error;
  EXPECT_EQ(store->DayCount(), 1);
  EXPECT_EQ(store->TotalRows(), 1u);
}

TYPED_TEST(DayStoreTest, ManifestTamperingIsDetected) {
  this->Record(1);
  // The manifest CRC must veto a corrupt segment before the segment
  // decoder even runs.
  this->Corrupt(this->Segment(0));
  std::string error;
  const auto store = TypeParam::Reader::Open(this->dir_, &error);
  ASSERT_TRUE(store.has_value()) << error;
  EXPECT_FALSE(TypeParam::ReadDays(*store, 0, 0, &error));
  EXPECT_NE(error.find("manifest"), std::string::npos) << error;
}

TYPED_TEST(DayStoreTest, UnsupportedManifestHeaderIsRejected) {
  fs::create_directories(this->dir_);
  // A future version of its own header, and the other store's header: a
  // tape can never be opened as a warehouse, nor the reverse.
  for (const char* header :
       {TypeParam::kFutureHeader, TypeParam::kForeignHeader}) {
    this->WriteFile(this->dir_ + "/" + kManifestName,
                    std::string(header) + "\n");
    std::string error;
    EXPECT_FALSE(TypeParam::Reader::Open(this->dir_, &error).has_value())
        << header;
    EXPECT_NE(error.find("header"), std::string::npos) << error;
  }
}

TYPED_TEST(DayStoreTest, ResumeDeletesOnlyWhatItCanDatePastTheJournal) {
  this->Record(3);
  const std::string undated =
      this->dir_ + "/" + TypeParam::kPrefix + "undated.seg";
  const std::string orphan = this->Segment(3) + ".tmp";
  this->WriteFile(undated, "not a day segment");
  this->WriteFile(orphan, "interrupted commit");

  RecoverySweep sweep;
  std::string error;
  auto writer = TypeParam::Writer::Resume(this->dir_, 1, &sweep, &error);
  ASSERT_NE(writer, nullptr) << error;
  EXPECT_EQ(writer->SegmentsWritten(), 2u);
  EXPECT_EQ(sweep.tmp_files_removed, 1u);
  EXPECT_EQ(sweep.stale_segments_removed, 1u);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(fs::exists(this->Segment(2)));
  // The one rule for a segment-named file whose day does not parse: it is
  // kept, because nothing dates it past the last committed day.
  EXPECT_TRUE(fs::exists(undated));

  // Appending continues after the kept prefix.
  writer->Append(2, TypeParam::MakeRow(9));
  writer->EndDay(2);
  writer->Finish();
  ASSERT_TRUE(writer->ok()) << writer->error();
  const auto store = TypeParam::Reader::Open(this->dir_, &error);
  ASSERT_TRUE(store.has_value()) << error;
  EXPECT_EQ(store->DayCount(), 3);
  EXPECT_TRUE(TypeParam::ReadDays(*store, 0, 2, &error)) << error;
}

TYPED_TEST(DayStoreTest, ResumeVerifiesKeptDaysBeforeDeletingAnything) {
  this->Record(3);
  this->Corrupt(this->Segment(0));
  RecoverySweep sweep;
  std::string error;
  EXPECT_EQ(TypeParam::Writer::Resume(this->dir_, 1, &sweep, &error),
            nullptr);
  EXPECT_NE(error.find("manifest"), std::string::npos) << error;
  // The day past the journal survives a resume that could not trust its
  // prefix.
  EXPECT_TRUE(fs::exists(this->Segment(2)));
}

}  // namespace
}  // namespace tlsharm::warehouse
