// --warehouse <dir> support for the figure benches: the first run records
// the study into a columnar warehouse, subsequent runs replay it without
// scanning. All three modes print identical numbers — record mode derives
// its aggregates from the bytes it just wrote (not from the engine's
// in-memory result), and fold-vs-engine parity is gated separately by
// tests/warehouse (ImportTest, ScanFoldTest).
//
// Mode notes go to stderr so stdout stays diffable against the live path.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "scanner/scan_engine.h"
#include "warehouse/fold.h"
#include "warehouse/warehouse.h"

namespace tlsharm::bench {

class WarehouseSession {
 public:
  WarehouseSession(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--warehouse") == 0) dir_ = argv[i + 1];
    }
    if (dir_.empty()) return;
    std::string error;
    if (std::filesystem::exists(std::filesystem::path(dir_) / "MANIFEST")) {
      replay_ = true;
      warehouse_ = warehouse::Warehouse::Open(dir_, &error);
      if (!warehouse_.has_value()) Fail("open", error);
      std::fprintf(stderr,
                   "[warehouse] replaying %s (%d days, %llu rows, %zu "
                   "experiment tables)\n",
                   dir_.c_str(), warehouse_->DayCount(),
                   static_cast<unsigned long long>(warehouse_->TotalRows()),
                   warehouse_->Experiments().size());
    } else {
      writer_ = warehouse::WarehouseWriter::Create(dir_, &error);
      if (writer_ == nullptr) Fail("create", error);
      std::fprintf(stderr, "[warehouse] recording into %s\n", dir_.c_str());
    }
  }

  bool replay() const { return replay_; }

  // Daily scans. Live mode runs the serial engine; record mode runs the
  // same engine streaming into the warehouse, then folds the segments it
  // just wrote; replay mode folds the stored segments without scanning.
  scanner::DailyScanResult DailyScans(simnet::Internet& net, int days,
                                      std::uint64_t seed) {
    if (dir_.empty()) return scanner::RunDailyScans(net, days, seed);
    std::string error;
    if (!replay_) {
      // TLSHARM_THREADS may shard the recording run: the engine's
      // determinism contract makes the warehouse bytes (and thus every
      // number printed here) identical at any thread count.
      scanner::ScanEngineOptions options;
      options.threads = scanner::ScanThreadsFromEnv();
      options.store = writer_.get();
      scanner::RunShardedDailyScans(net, days, seed, options);
      if (!writer_->ok()) Fail("record scans", writer_->error());
      warehouse_ = warehouse::Warehouse::Open(dir_, &error);
      if (!warehouse_.has_value()) Fail("reopen", error);
    }
    scanner::DailyScanResult result;
    warehouse::FoldStats stats;
    if (!warehouse::FoldDailyScans(*warehouse_, net, {}, &result, &error,
                                   &stats)) {
      Fail("fold", error);
    }
    std::fprintf(stderr, "[warehouse] folded %d day(s), %llu rows\n",
                 stats.days_folded,
                 static_cast<unsigned long long>(stats.rows_folded));
    return result;
  }

  // Resumption-lifetime experiments (`kind` is "session_id" or "ticket").
  // Record mode measures live, writes the table, and reads it back so the
  // printed numbers come from the warehouse bytes.
  scanner::ResumptionLifetimeResult Lifetime(const char* kind,
                                             simnet::Internet& net, int day,
                                             std::uint64_t seed,
                                             SimTime max_delay,
                                             SimTime step) {
    const bool via_ticket = std::strcmp(kind, "ticket") == 0;
    auto measure = [&] {
      return via_ticket
                 ? scanner::MeasureTicketLifetime(net, day, seed, max_delay,
                                                  step)
                 : scanner::MeasureSessionIdLifetime(net, day, seed,
                                                     max_delay, step);
    };
    if (dir_.empty()) return measure();
    std::string error;
    if (!replay_) {
      writer_->WriteLifetime(kind, measure());
      if (!writer_->ok()) Fail("record lifetime", writer_->error());
      warehouse_ = warehouse::Warehouse::Open(dir_, &error);
      if (!warehouse_.has_value()) Fail("reopen", error);
      std::fprintf(stderr, "[warehouse] recorded \"%s\" lifetime table\n",
                   kind);
    }
    scanner::ResumptionLifetimeResult result;
    if (!warehouse_->ReadExperiment(kind, &result, &error)) Fail(kind, error);
    return result;
  }

 private:
  [[noreturn]] void Fail(const std::string& what,
                         const std::string& error) const {
    std::fprintf(stderr, "[warehouse] %s: %s\n", what.c_str(), error.c_str());
    std::exit(1);
  }

  std::string dir_;
  bool replay_ = false;
  std::unique_ptr<warehouse::WarehouseWriter> writer_;
  std::optional<warehouse::Warehouse> warehouse_;
};

}  // namespace tlsharm::bench
