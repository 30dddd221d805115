// tlsharm-import: move observation studies between the columnar warehouse
// (what campaigns record) and the text format, its export view.
//
//   tlsharm-import to-warehouse <store.txt|-> <warehouse-dir>
//   tlsharm-import to-text <warehouse-dir> [out.txt|-]
//   tlsharm-import verify <warehouse-dir>
//   tlsharm-import --selftest
//
// `verify` decodes every segment against the manifest and reports the
// warehouse's shape. `--selftest` is scripts/check.sh's warehouse gate: it
// records a seeded fault-injected study at 1, 2 and 8 threads (warehouse
// bytes must be identical), round-trips the text format through the
// warehouse byte-for-byte, and checks that the incremental fold reproduces
// the live engine's aggregates.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "scanner/scan_engine.h"
#include "warehouse/fold.h"
#include "warehouse/import.h"

using namespace tlsharm;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tlsharm-import to-warehouse <store.txt|-> <dir>\n"
               "       tlsharm-import to-text <dir> [out.txt|-]\n"
               "       tlsharm-import verify <dir>\n"
               "       tlsharm-import --selftest\n");
  return 2;
}

int ToWarehouse(const std::string& source, const std::string& dir) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (source != "-") {
    file.open(source);
    if (!file) {
      std::fprintf(stderr, "tlsharm-import: cannot open %s\n",
                   source.c_str());
      return 1;
    }
    in = &file;
  }
  warehouse::ImportStats stats;
  std::string error;
  if (!warehouse::TextToWarehouse(*in, dir, &stats, &error)) {
    std::fprintf(stderr, "tlsharm-import: %s\n", error.c_str());
    return 1;
  }
  std::printf("imported %llu observations over %llu days into %s "
              "(%llu warehouse bytes, %llu corrupt lines skipped)\n",
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.days), dir.c_str(),
              static_cast<unsigned long long>(stats.warehouse_bytes),
              static_cast<unsigned long long>(stats.corrupt_lines));
  return 0;
}

int ToText(const std::string& dir, const std::string& target) {
  std::string error;
  const auto wh = warehouse::Warehouse::Open(dir, &error);
  if (!wh.has_value()) {
    std::fprintf(stderr, "tlsharm-import: %s\n", error.c_str());
    return 1;
  }
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (target != "-") {
    file.open(target, std::ios::binary | std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "tlsharm-import: cannot write %s\n",
                   target.c_str());
      return 1;
    }
    out = &file;
  }
  warehouse::ImportStats stats;
  if (!warehouse::WarehouseToText(*wh, *out, &stats, &error)) {
    std::fprintf(stderr, "tlsharm-import: %s\n", error.c_str());
    return 1;
  }
  if (target != "-") {
    std::printf("exported %llu observations over %llu days to %s\n",
                static_cast<unsigned long long>(stats.rows),
                static_cast<unsigned long long>(stats.days), target.c_str());
  }
  return 0;
}

int Verify(const std::string& dir) {
  std::string error;
  const auto wh = warehouse::Warehouse::Open(dir, &error);
  if (!wh.has_value()) {
    std::fprintf(stderr, "tlsharm-import: %s\n", error.c_str());
    return 1;
  }
  std::uint64_t rows = 0;
  if (!wh->ForEachObservation(
          0, 0x7fffffff,
          [&](const scanner::StoredObservation&) { ++rows; }, &error)) {
    std::fprintf(stderr, "tlsharm-import: verify FAILED: %s\n",
                 error.c_str());
    return 1;
  }
  for (const auto& experiment : wh->Experiments()) {
    scanner::ResumptionLifetimeResult result;
    if (!wh->ReadExperiment(experiment.kind, &result, &error)) {
      std::fprintf(stderr, "tlsharm-import: verify FAILED: %s\n",
                   error.c_str());
      return 1;
    }
  }
  std::printf("verify OK: %llu observations across %zu day segments "
              "(%d days), %zu experiment tables, %llu bytes\n",
              static_cast<unsigned long long>(rows),
              wh->ObservationSegments().size(), wh->DayCount(),
              wh->Experiments().size(),
              static_cast<unsigned long long>(wh->TotalBytes()));
  return 0;
}

// --- selftest ---------------------------------------------------------------

constexpr std::size_t kPopulation = 700;
constexpr int kDays = 5;
constexpr std::uint64_t kWorldSeed = 4242;
constexpr std::uint64_t kScanSeed = 777;

struct StudyRun {
  std::string text;                     // text sink bytes
  std::string manifest;                 // warehouse MANIFEST bytes
  std::vector<std::string> segments;    // warehouse segment bytes, in order
  scanner::DailyScanResult result;
};

bool RecordStudy(int threads, const std::string& dir, StudyRun& out) {
  simnet::Internet net(simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  std::ostringstream stream;
  scanner::ObservationWriter sink(stream);
  std::string error;
  auto writer = warehouse::WarehouseWriter::Create(dir, &error);
  if (writer == nullptr) {
    std::fprintf(stderr, "selftest: %s\n", error.c_str());
    return false;
  }
  scanner::MultiStoreWriter stores;
  stores.Add(&sink);
  stores.Add(writer.get());
  scanner::ScanEngineOptions options;
  options.threads = threads;
  options.robustness.retry.max_attempts = 3;
  options.store = &stores;
  out.result = scanner::RunShardedDailyScans(net, kDays, kScanSeed, options);
  if (!writer->ok()) {
    std::fprintf(stderr, "selftest: warehouse writer: %s\n",
                 writer->error().c_str());
    return false;
  }
  out.text = stream.str();

  Bytes bytes;
  if (!warehouse::ReadWarehouseFile(dir + "/MANIFEST", &bytes, &error)) {
    std::fprintf(stderr, "selftest: %s\n", error.c_str());
    return false;
  }
  out.manifest.assign(bytes.begin(), bytes.end());
  out.segments.clear();
  const auto wh = warehouse::Warehouse::Open(dir, &error);
  if (!wh.has_value()) {
    std::fprintf(stderr, "selftest: %s\n", error.c_str());
    return false;
  }
  for (const auto& info : wh->ObservationSegments()) {
    if (!warehouse::ReadWarehouseFile(dir + "/" + info.file, &bytes,
                                      &error)) {
      std::fprintf(stderr, "selftest: %s\n", error.c_str());
      return false;
    }
    out.segments.emplace_back(bytes.begin(), bytes.end());
  }
  return true;
}

int SelfTest() {
  std::printf("== tlsharm-import --selftest: warehouse determinism gate ==\n");
  const std::string base_dir =
      (std::filesystem::temp_directory_path() / "tlsharm_import_selftest")
          .string();

  StudyRun serial;
  if (!RecordStudy(1, base_dir + "_1", serial)) return 1;
  if (serial.text.empty() || serial.segments.empty()) {
    std::printf("FAIL: study produced no observations\n");
    return 1;
  }
  for (const int threads : {2, 8}) {
    StudyRun parallel;
    if (!RecordStudy(threads, base_dir + "_" + std::to_string(threads),
                     parallel)) {
      return 1;
    }
    if (parallel.manifest != serial.manifest ||
        parallel.segments != serial.segments) {
      std::printf("FAIL: warehouse bytes differ at %d threads\n", threads);
      return 1;
    }
    if (parallel.text != serial.text) {
      std::printf("FAIL: text store differs at %d threads\n", threads);
      return 1;
    }
    std::printf("  %d threads: warehouse and text store byte-identical\n",
                threads);
  }

  // Text -> warehouse -> text identity, against an independently imported
  // copy (not the scan-recorded one).
  const std::string import_dir = base_dir + "_import";
  std::istringstream text_in(serial.text);
  std::string error;
  if (!warehouse::TextToWarehouse(text_in, import_dir, nullptr, &error)) {
    std::printf("FAIL: import: %s\n", error.c_str());
    return 1;
  }
  const auto imported = warehouse::Warehouse::Open(import_dir, &error);
  if (!imported.has_value()) {
    std::printf("FAIL: %s\n", error.c_str());
    return 1;
  }
  std::ostringstream text_out;
  if (!warehouse::WarehouseToText(*imported, text_out, nullptr, &error)) {
    std::printf("FAIL: export: %s\n", error.c_str());
    return 1;
  }
  if (text_out.str() != serial.text) {
    std::printf("FAIL: text -> warehouse -> text is not the identity\n");
    return 1;
  }
  std::printf("  text -> warehouse -> text round-trip byte-identical "
              "(%zu text bytes)\n", serial.text.size());

  // The fold over the imported warehouse must reproduce the live engine.
  simnet::Internet net(simnet::PaperPopulationSpec(kPopulation), kWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));
  scanner::DailyScanResult folded;
  if (!warehouse::FoldDailyScans(*imported, net, {}, &folded, &error)) {
    std::printf("FAIL: fold: %s\n", error.c_str());
    return 1;
  }
  if (folded.core_domains != serial.result.core_domains ||
      folded.core_ever_ticket != serial.result.core_ever_ticket ||
      folded.core_ever_ecdhe != serial.result.core_ever_ecdhe ||
      folded.core_ever_dhe_connect != serial.result.core_ever_dhe_connect ||
      folded.core_any_mechanism != serial.result.core_any_mechanism ||
      folded.stek_spans.AllSpans() != serial.result.stek_spans.AllSpans() ||
      folded.ecdhe_spans.AllSpans() !=
          serial.result.ecdhe_spans.AllSpans() ||
      folded.dhe_spans.AllSpans() != serial.result.dhe_spans.AllSpans()) {
    std::printf("FAIL: warehouse fold does not match the live engine\n");
    return 1;
  }
  std::printf("  incremental fold == live engine aggregates "
              "(%zu core domains)\n", folded.core_domains.size());

  std::uint64_t warehouse_bytes = 0;
  for (const std::string& segment : serial.segments) {
    warehouse_bytes += segment.size();
  }
  if (warehouse_bytes >= serial.text.size()) {
    std::printf("FAIL: warehouse (%llu bytes) not smaller than text store "
                "(%zu bytes)\n",
                static_cast<unsigned long long>(warehouse_bytes),
                serial.text.size());
    return 1;
  }
  std::printf("  warehouse %llu bytes vs text %zu bytes (%.1f%%)\n",
              static_cast<unsigned long long>(warehouse_bytes),
              serial.text.size(),
              100.0 * static_cast<double>(warehouse_bytes) /
                  static_cast<double>(serial.text.size()));
  std::printf("selftest PASSED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest();
  }
  if (argc >= 2 && std::strcmp(argv[1], "to-warehouse") == 0) {
    if (argc != 4) return Usage();
    return ToWarehouse(argv[2], argv[3]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "to-text") == 0) {
    if (argc != 3 && argc != 4) return Usage();
    return ToText(argv[2], argc == 4 ? argv[3] : "-");
  }
  if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
    if (argc != 3) return Usage();
    return Verify(argv[2]);
  }
  return Usage();
}
