// The capture tape: the adversary's day-partitioned archive of recorded
// connections (attack::CaptureRecord), stored as columnar segments with
// the same envelope, dictionary and checksum machinery as the observation
// warehouse (format.h kind 2).
//
// The tape is a day store (day_store.h), like the warehouse: one directory
// implementation writes, resumes and reads both. The tape differs only in
// its DayStoreLayout ("capture-<day>.seg" segments, a MANIFEST headed
// "tlsharm-capture-tape 1" with `cap day=...` lines, the tape.segment.*
// prof spans) and in the row codec below. CaptureTapeWriter is an
// attack::CaptureSink: attach it to the scan engine via
// ScanEngineOptions::capture and each virtual day's records become one
// segment the moment the day ends. The engine delivers records in
// canonical order, so tape bytes are identical at any TLSHARM_THREADS.
//
// CaptureTape (the reader) streams records back in canonical order with
// day-range partition pruning, validating manifest size/CRC and every
// per-column/per-segment checksum before a record is surfaced.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/record.h"
#include "warehouse/day_store.h"

namespace tlsharm::warehouse {

// Columnar codec for one day's records (format.h documents the layout).
Bytes EncodeCaptureSegment(int day,
                           const std::vector<attack::CaptureRecord>& rows);
bool DecodeCaptureSegment(ByteView segment, int* day,
                          std::vector<attack::CaptureRecord>* rows,
                          std::string* error);

class CaptureTapeWriter final : public attack::CaptureSink,
                                public DayStoreWriter {
 public:
  // Creates (or resets) the tape directory; sweeps previous segments and
  // orphaned temp files. nullptr + `error` when the directory cannot be
  // prepared.
  static std::unique_ptr<CaptureTapeWriter> Create(const std::string& dir,
                                                   std::string* error,
                                                   RecoverySweep* sweep =
                                                       nullptr);

  // Reopens a tape for a resumed campaign: verifies kept segments against
  // the manifest, drops everything past `last_day`, rewrites the MANIFEST
  // durably, then appends continue at `last_day + 1`.
  static std::unique_ptr<CaptureTapeWriter> Resume(const std::string& dir,
                                                   int last_day,
                                                   RecoverySweep* sweep,
                                                   std::string* error);

  // attack::CaptureSink (Append days non-decreasing, canonical order).
  void Append(int day, const attack::CaptureRecord& record) override;
  void EndDay(int day) override { CloseDay(day); }
  void Finish() override { CloseStudy(); }

 private:
  explicit CaptureTapeWriter(std::string dir);
  Bytes EncodeDay(int day) override;

  std::vector<attack::CaptureRecord> pending_;
};

class CaptureTape : public DayStoreReader {
 public:
  static std::optional<CaptureTape> Open(const std::string& dir,
                                         std::string* error);

  const std::vector<SegmentInfo>& Segments() const { return days_; }

  // Streams every record with day in [day_min, day_max] in canonical
  // order; segments outside the range are never read from disk. False +
  // `error` on corruption (stops at the first bad segment).
  bool ForEachCapture(
      int day_min, int day_max,
      const std::function<void(int day, const attack::CaptureRecord&)>& visit,
      std::string* error) const;

 private:
  CaptureTape() = default;
};

}  // namespace tlsharm::warehouse
