// Warehouse subsystem bench: ingest throughput, storage footprint against
// the text format, and cold vs incremental fold latency. Emits
// BENCH_warehouse.json for CI tracking.
//
// Pipeline measured:
//   1. a seeded daily-scan study recorded as text (the baseline format)
//      and directly into the warehouse, from one scan;
//   2. text -> warehouse ingest (rows/s) plus the size ratio;
//   3. aggregate recovery: full text re-parse vs cold warehouse fold vs
//      checkpoint-resumed fold of only the newest day;
//   4. parity: the fold must equal the live engine, the text round trip
//      must be the identity.
#include <chrono>
#include <filesystem>
#include <sstream>

#include "common.h"
#include "scanner/scan_engine.h"
#include "warehouse/fold.h"
#include "warehouse/import.h"

using namespace tlsharm;
using namespace tlsharm::bench;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool FoldMatchesEngine(const scanner::DailyScanResult& folded,
                       const scanner::DailyScanResult& engine) {
  return folded.core_domains == engine.core_domains &&
         folded.core_ever_ticket == engine.core_ever_ticket &&
         folded.core_ever_ecdhe == engine.core_ever_ecdhe &&
         folded.core_ever_dhe_connect == engine.core_ever_dhe_connect &&
         folded.core_any_mechanism == engine.core_any_mechanism &&
         folded.stek_spans.AllSpans() == engine.stek_spans.AllSpans() &&
         folded.ecdhe_spans.AllSpans() == engine.ecdhe_spans.AllSpans() &&
         folded.dhe_spans.AllSpans() == engine.dhe_spans.AllSpans();
}

}  // namespace

int main() {
  World world = BuildWorld("Warehouse: columnar store + incremental fold");
  simnet::Internet& net = *world.net;
  const std::string base =
      (std::filesystem::temp_directory_path() / "tlsharm_bench_warehouse")
          .string();
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  JsonReport report("warehouse");
  report.Add("population", static_cast<std::uint64_t>(world.population));
  report.Add("days", world.days);

  // --- 1. record the study once: text sink + warehouse store together ------
  const std::string direct_dir = base + "/direct";
  std::ostringstream text_stream;
  scanner::ObservationWriter sink(text_stream);
  std::string error;
  auto writer = warehouse::WarehouseWriter::Create(direct_dir, &error);
  if (writer == nullptr) {
    std::fprintf(stderr, "warehouse create: %s\n", error.c_str());
    return 1;
  }
  scanner::MultiStoreWriter stores;
  stores.Add(&sink);
  stores.Add(writer.get());
  scanner::ScanEngineOptions options;
  options.store = &stores;
  auto scan_start = Clock::now();
  const auto engine = scanner::RunShardedDailyScans(net, world.days, 301,
                                                    options);
  const double scan_ms = MsSince(scan_start);
  if (!writer->ok()) {
    std::fprintf(stderr, "warehouse record: %s\n", writer->error().c_str());
    return 1;
  }
  const std::string text = text_stream.str();
  const std::uint64_t rows = writer->RowsWritten();
  std::printf("study: %llu observations over %d days "
              "(scan+record %.0f ms)\n",
              static_cast<unsigned long long>(rows), world.days, scan_ms);
  report.Add("rows", rows);
  report.Add("scan_record_ms", scan_ms);

  // --- 2. ingest throughput + footprint ------------------------------------
  const std::string import_dir = base + "/imported";
  std::istringstream text_in(text);
  warehouse::ImportStats stats;
  auto ingest_start = Clock::now();
  if (!warehouse::TextToWarehouse(text_in, import_dir, &stats, &error)) {
    std::fprintf(stderr, "ingest: %s\n", error.c_str());
    return 1;
  }
  const double ingest_ms = MsSince(ingest_start);
  const double ingest_rows_per_s =
      ingest_ms > 0 ? 1000.0 * static_cast<double>(stats.rows) / ingest_ms
                    : 0.0;
  std::printf("ingest: text -> warehouse at %.0f rows/s (%.0f ms)\n",
              ingest_rows_per_s, ingest_ms);
  std::printf("footprint: warehouse %llu bytes vs text %zu bytes "
              "(%.1f%% of text)\n",
              static_cast<unsigned long long>(stats.warehouse_bytes),
              text.size(),
              100.0 * static_cast<double>(stats.warehouse_bytes) /
                  static_cast<double>(text.size()));
  report.Add("ingest_ms", ingest_ms);
  report.Add("ingest_rows_per_s", ingest_rows_per_s);
  report.Add("text_bytes", static_cast<std::uint64_t>(text.size()));
  report.Add("warehouse_bytes", stats.warehouse_bytes);
  report.Add("warehouse_over_text_ratio",
             static_cast<double>(stats.warehouse_bytes) /
                 static_cast<double>(text.size()));

  const auto wh = warehouse::Warehouse::Open(import_dir, &error);
  if (!wh.has_value()) {
    std::fprintf(stderr, "open: %s\n", error.c_str());
    return 1;
  }

  // --- 3a. baseline: full text re-parse into the fold -----------------------
  auto reparse_start = Clock::now();
  warehouse::ScanFold text_fold;
  {
    std::istringstream in(text);
    scanner::ObservationReader reader(in);
    int last_day = -1;
    while (const auto obs = reader.Next()) {
      if (obs->day != last_day && last_day >= 0) {
        text_fold.CompleteDay(last_day);
      }
      last_day = obs->day;
      text_fold.Fold(obs->day, obs->observation);
    }
    if (last_day >= 0) text_fold.CompleteDay(last_day);
  }
  const auto text_result = text_fold.Finish(net);
  const double reparse_ms = MsSince(reparse_start);
  std::printf("aggregate recovery: full text re-parse %.0f ms\n", reparse_ms);
  report.Add("text_reparse_ms", reparse_ms);

  // --- 3b. cold warehouse fold ----------------------------------------------
  warehouse::FoldOptions cold;
  cold.use_checkpoints = false;
  scanner::DailyScanResult folded;
  auto cold_start = Clock::now();
  if (!warehouse::FoldDailyScans(*wh, net, cold, &folded, &error)) {
    std::fprintf(stderr, "cold fold: %s\n", error.c_str());
    return 1;
  }
  const double cold_ms = MsSince(cold_start);
  std::printf("aggregate recovery: cold warehouse fold %.0f ms\n", cold_ms);
  report.Add("cold_fold_ms", cold_ms);

  // Untimed pass to lay down the per-day checkpoints 3c resumes from.
  warehouse::FoldOptions checkpointing;
  checkpointing.use_checkpoints = false;
  checkpointing.write_checkpoints = true;
  scanner::DailyScanResult ignored;
  if (!warehouse::FoldDailyScans(*wh, net, checkpointing, &ignored, &error)) {
    std::fprintf(stderr, "checkpoint fold: %s\n", error.c_str());
    return 1;
  }

  // --- 3c. incremental: resume from the last checkpoint, fold one new day ---
  // Drop the final checkpoint so the resumed fold has exactly one day of
  // new observations to read — the steady-state "a new scan day landed"
  // case.
  std::filesystem::remove(import_dir + "/" +
                          warehouse::CheckpointFileName(world.days - 1));
  warehouse::FoldOptions warm;
  warm.use_checkpoints = true;
  scanner::DailyScanResult incremental;
  warehouse::FoldStats warm_stats;
  auto warm_start = Clock::now();
  if (!warehouse::FoldDailyScans(*wh, net, warm, &incremental, &error,
                                 &warm_stats)) {
    std::fprintf(stderr, "incremental fold: %s\n", error.c_str());
    return 1;
  }
  const double warm_ms = MsSince(warm_start);
  std::printf("aggregate recovery: incremental fold %.0f ms "
              "(%d of %d days read, resumed from day %d)\n",
              warm_ms, warm_stats.days_folded, warm_stats.days_total,
              warm_stats.resumed_from);
  report.Add("incremental_fold_ms", warm_ms);
  report.Add("incremental_days_folded", warm_stats.days_folded);
  if (reparse_ms > 0) {
    report.Add("incremental_speedup_vs_text", reparse_ms / warm_ms);
  }

  // --- 4. parity -------------------------------------------------------------
  const bool fold_parity = FoldMatchesEngine(folded, engine) &&
                           FoldMatchesEngine(incremental, engine) &&
                           FoldMatchesEngine(text_result, engine);
  std::ostringstream text_out;
  bool roundtrip = warehouse::WarehouseToText(*wh, text_out, nullptr, &error);
  roundtrip = roundtrip && text_out.str() == text;
  std::printf("parity: fold==engine %s, text round trip %s\n",
              fold_parity ? "OK" : "FAIL", roundtrip ? "OK" : "FAIL");
  report.Add("fold_matches_engine", fold_parity ? 1 : 0);
  report.Add("text_roundtrip_identity", roundtrip ? 1 : 0);

  const std::string json = report.Write();
  if (!json.empty()) std::printf("\nwrote %s\n", json.c_str());
  std::filesystem::remove_all(base);
  return fold_parity && roundtrip ? 0 : 1;
}
