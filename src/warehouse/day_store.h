// One day-partitioned segment directory: the machinery the observation
// warehouse (warehouse.h) and the capture tape (capture.h) share. A store
// directory holds
//
//   MANIFEST           text index: the layout's header line, then one line
//                      per segment (`<tag> day=<d>` or `exp kind=<k>`, file
//                      name, rows, bytes, whole-file CRC-32)
//   <prefix><day>.seg  one columnar segment per ended day (format.h)
//
// and, in the warehouse only, exp-<kind>.seg experiment tables and
// ckpt-<day>.bin fold checkpoints. DayStoreWriter owns the create and
// resume sweeps, the Append/EndDay/Finish day machine and the durable
// segment + MANIFEST commits (util/durable.h: atomic temp+fsync+rename);
// DayStoreReader parses the MANIFEST and reads segments back verified
// against it. The two stores differ only in their DayStoreLayout and row
// codec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace tlsharm::obs {
struct ProfSite;
}  // namespace tlsharm::obs

namespace tlsharm::warehouse {

struct SegmentInfo {
  int day = 0;             // day segments
  std::string kind;        // experiment tables: "session_id" | "ticket"
  std::string file;        // name within the store directory
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;   // CRC-32 of the whole file
};

// What a writer swept while preparing its directory — orphaned temp files
// from interrupted atomic commits, plus (on resume) segments and fold
// checkpoints beyond the last committed day. Surfaced as the
// campaign.recovery.* counters so operators can see a crash left debris.
struct RecoverySweep {
  std::uint64_t tmp_files_removed = 0;
  std::uint64_t stale_segments_removed = 0;
  std::uint64_t stale_checkpoints_removed = 0;
};

// Everything that tells one day store apart from the other on disk.
struct DayStoreLayout {
  const char* name;             // "warehouse" | "capture-tape" (diagnostics)
  const char* manifest_header;  // first MANIFEST line
  const char* day_tag;          // MANIFEST tag of a day segment
  const char* segment_prefix;   // day segment file: <prefix><day %05d>.seg
  // Experiment tables and fold checkpoints (warehouse only): accepts a
  // valid `exp kind=` value; nullptr when the store keeps neither.
  bool (*experiment_kind)(const std::string& kind);
  const obs::ProfSite* encode_site;  // columnar encode of one day
  const obs::ProfSite* commit_site;  // its durable segment + MANIFEST write
};

// Reads a whole file into `out`; false + `error` when unreadable.
bool ReadWarehouseFile(const std::string& path, Bytes* out,
                       std::string* error);

// Reads <dir>/<info.file> and checks it against its MANIFEST size and CRC.
bool ReadSegment(const std::string& dir, const SegmentInfo& info, Bytes* out,
                 std::string* error);

class DayStoreReader {
 public:
  const std::string& Directory() const { return dir_; }
  // Day segments ascend strictly; DayCount is last day + 1 (0 when empty).
  int DayCount() const;
  std::uint64_t TotalRows() const;  // over the day segments

 protected:
  DayStoreReader() = default;
  friend class DayStoreWriter;  // a resume starts from the parsed MANIFEST

  // Parses <dir>/MANIFEST (segment files are validated lazily, on read).
  bool Load(const DayStoreLayout& layout, const std::string& dir,
            std::string* error);

  // Decodes each day segment in [day_min, day_max] and visits its rows as
  // visit(day, row), in file order; segments outside the range are never
  // read from disk. False + `error` at the first bad segment.
  template <typename Row, typename Visit>
  bool ForEachDayRow(int day_min, int day_max,
                     bool (*decode)(ByteView, int*, std::vector<Row>*,
                                    std::string*),
                     Visit&& visit, std::string* error) const {
    for (const SegmentInfo& info : days_) {
      if (info.day < day_min || info.day > day_max) continue;  // pruned
      const std::string path = dir_ + "/" + info.file;
      Bytes bytes;
      if (!ReadSegment(dir_, info, &bytes, error)) return false;
      int day = 0;
      std::vector<Row> rows;
      std::string decode_error;
      if (!decode(bytes, &day, &rows, &decode_error)) {
        if (error != nullptr) *error = path + ": " + decode_error;
        return false;
      }
      if (day != info.day || rows.size() != info.rows) {
        if (error != nullptr) {
          *error = path + ": decoded day/rows disagree with manifest";
        }
        return false;
      }
      for (const Row& row : rows) visit(day, row);
    }
    return true;
  }

  std::string dir_;
  std::vector<SegmentInfo> days_;
  std::vector<SegmentInfo> experiments_;
};

class DayStoreWriter {
 public:
  virtual ~DayStoreWriter() = default;
  DayStoreWriter(const DayStoreWriter&) = delete;
  DayStoreWriter& operator=(const DayStoreWriter&) = delete;

  // I/O or contract violations latch: once ok() is false, the directory on
  // disk must not be trusted and error() says why.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::uint64_t RowsWritten() const { return rows_written_; }
  std::uint64_t BytesWritten() const { return bytes_written_; }
  // Committed day segments so far (one per ended day).
  std::uint64_t SegmentsWritten() const { return days_.size(); }
  // CRC-32 of the MANIFEST bytes last written — for the warehouse, the
  // digest the campaign journal records at each day commit and re-verifies
  // on resume.
  std::uint32_t ManifestCrc() const { return manifest_crc_; }

 protected:
  DayStoreWriter(const DayStoreLayout& layout, std::string dir);

  // Create: makes `dir` and removes the store's files (MANIFEST, segments,
  // and the warehouse's tables and checkpoints) and every orphaned `*.tmp`
  // of one, so a recording never mixes studies. False + `error` when the
  // directory cannot be made.
  static bool ResetDirectory(const DayStoreLayout& layout,
                             const std::string& dir, std::string* error,
                             RecoverySweep* sweep);

  // Resume: verifies every day segment up to `last_day` against the
  // MANIFEST before deleting anything, then removes orphaned `*.tmp`, day
  // segments past `last_day`, every experiment table and checkpoints past
  // `last_day`, and rewrites the MANIFEST durably to index exactly the kept
  // days. A segment-named file whose day does not parse is kept: the sweep
  // deletes only what it can date past the journal. Appends then continue
  // at `last_day + 1`.
  bool Reopen(int last_day, RecoverySweep* sweep, std::string* error);

  // The day machine. AdmitRow gates Append: true when the caller should
  // buffer its row for `day`, after closing the previous day if `day` is
  // later. CloseDay commits the day (a day without rows still gets its
  // empty segment); Finish closes a pending day and rewrites the MANIFEST.
  bool AdmitRow(int day);
  void CloseDay(int day);
  void CloseStudy();

  // Durably stores an experiment table, replacing one of the same kind.
  bool PutExperiment(const std::string& kind, const Bytes& segment,
                     std::uint64_t rows);

  void Latch(const std::string& message);

 private:
  // The row codec: encodes the rows buffered for `day`, then drops them.
  virtual Bytes EncodeDay(int day) = 0;

  void FlushDay();
  bool WriteSegmentFile(const Bytes& bytes, SegmentInfo* info);
  bool WriteManifest();

  const DayStoreLayout& layout_;
  std::string dir_;
  int current_day_ = -1;  // day being buffered; -1 = none yet
  std::uint64_t pending_rows_ = 0;
  std::vector<SegmentInfo> days_;
  std::vector<SegmentInfo> experiments_;
  std::uint64_t rows_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint32_t manifest_crc_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace tlsharm::warehouse
