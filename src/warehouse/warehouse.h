// The observation warehouse: a directory of day-partitioned columnar
// segments plus an index MANIFEST (format.h documents the layout). This is
// the canonical substrate between the scanner and all analysis — scan
// once, store compactly, re-query cheaply and incrementally. It is a day
// store (day_store.h), sharing its directory code with the capture tape;
// only the layout, the row codec and the experiment tables are its own.
//
// WarehouseWriter is a scanner::StoreWriter: attach it to the scan engines
// via ScanEngineOptions::store and each virtual day's observations become
// one columnar segment the moment the day completes (EndDay). Since the
// engines deliver the canonical observation stream, warehouse bytes are
// identical for any thread count. Lifetime-experiment results (Figures
// 1-2) are stored alongside as experiment tables.
//
// Warehouse (the reader) streams observations back in canonical order,
// optionally restricted to a day range — the partition pruning that makes
// "re-query day k..n" cheap. Every read validates the manifest CRC of the
// file and the per-column / per-segment checksums before decoding.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scanner/experiments.h"
#include "scanner/store.h"
#include "warehouse/day_store.h"

namespace tlsharm::warehouse {

// Experiment-kind names <-> segment experiment ids (format.h).
const char* ExperimentKindName(std::uint8_t experiment);
std::optional<std::uint8_t> ExperimentKindId(const std::string& kind);

class WarehouseWriter : public scanner::StoreWriter, public DayStoreWriter {
 public:
  // Creates (or resets) the warehouse directory: a stale MANIFEST, any
  // previous segment/checkpoint files, and orphaned `*.tmp` files from an
  // interrupted commit are removed so a recording never mixes studies.
  // Returns nullptr with `error` set when the directory cannot be
  // prepared. `sweep` (optional) reports what was cleaned.
  static std::unique_ptr<WarehouseWriter> Create(const std::string& dir,
                                                 std::string* error,
                                                 RecoverySweep* sweep =
                                                     nullptr);

  // Reopens an existing warehouse for a resumed campaign, reconciling the
  // directory with the journal's last committed day: observation segments
  // beyond `last_day` (a partially recorded day the journal never
  // committed), every experiment table (rewritten deterministically when
  // the study finishes), stale fold checkpoints, and orphaned `*.tmp`
  // files are deleted, and the MANIFEST is rewritten durably to index
  // exactly the committed prefix. Appending then continues at
  // `last_day + 1`. Kept segment files are verified against their
  // manifest size/CRC before anything is deleted.
  static std::unique_ptr<WarehouseWriter> Resume(const std::string& dir,
                                                 int last_day,
                                                 RecoverySweep* sweep,
                                                 std::string* error);
  // The ManifestCrc() that Resume(dir, last_day) would leave, read from
  // the MANIFEST alone without changing the directory.
  static bool KeptManifestCrc(const std::string& dir, int last_day,
                              std::uint32_t* crc, std::string* error);

  // scanner::StoreWriter: buffers the current day's rows, writes one
  // segment per completed day. Append days must be non-decreasing.
  void Append(int day, const scanner::HandshakeObservation& obs) override;
  void EndDay(int day) override { CloseDay(day); }
  void Finish() override { CloseStudy(); }  // flushes a pending day; idempotent

  // Stores a lifetime-experiment table (kind "session_id" or "ticket"),
  // replacing any previous table of the same kind.
  bool WriteLifetime(const std::string& kind,
                     const scanner::ResumptionLifetimeResult& result);

 private:
  explicit WarehouseWriter(std::string dir);
  Bytes EncodeDay(int day) override;

  std::vector<scanner::HandshakeObservation> pending_;
};

class Warehouse : public DayStoreReader {
 public:
  // Opens an existing warehouse by parsing its MANIFEST (segment files are
  // validated lazily, on read). nullopt with `error` set on failure.
  static std::optional<Warehouse> Open(const std::string& dir,
                                       std::string* error);

  const std::vector<SegmentInfo>& ObservationSegments() const {
    return days_;
  }
  const std::vector<SegmentInfo>& Experiments() const {
    return experiments_;
  }

  std::uint64_t TotalBytes() const;  // segment files, manifest excluded

  // Streams every stored observation with day in [day_min, day_max], in
  // canonical order (day-ascending, scan order within a day). Segments
  // outside the range are never read from disk. False + `error` on any
  // corruption; the visit stops at the first bad segment.
  bool ForEachObservation(
      int day_min, int day_max,
      const std::function<void(const scanner::StoredObservation&)>& visit,
      std::string* error) const;

  bool HasExperiment(const std::string& kind) const;
  bool ReadExperiment(const std::string& kind,
                      scanner::ResumptionLifetimeResult* result,
                      std::string* error) const;

 private:
  Warehouse() = default;
};

}  // namespace tlsharm::warehouse
