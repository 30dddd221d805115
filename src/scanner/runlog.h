// The campaign run journal: a write-ahead log that makes a multi-day scan
// campaign restartable after a fail-stop crash at any instant.
//
// The journal records the campaign's identity and per-day progress:
//
//   config        campaign config digest + study length, written once when
//                 the campaign starts. Resume refuses a digest mismatch —
//                 a journal must never splice two different studies.
//   day-started   written BEFORE any of the day's output reaches the
//                 warehouse. On recovery, every artifact beyond the last
//                 committed day is presumed partial and discarded.
//   day-committed written AFTER the day's warehouse/state barriers:
//                 carries the warehouse row count / segment count /
//                 MANIFEST CRC and the state checkpoint's size + CRC.
//                 Recovery verifies each artifact against exactly these
//                 digests.
//
// On-disk format: "TLRJ" | version byte, then records of
//   type u8 | body_length varint | body | CRC-32 (4B BE over type+len+body)
// The decoder accepts only kRunLogVersion; a journal of any other version
// is refused ("unsupported runlog version"), never misread.
//
// Every journal update rewrites the whole file via the atomic
// temp+fsync+rename+dir-fsync discipline (util/durable.h) — the journal is
// a few records per scanned day, so a rewrite is cheap and the file on
// disk is always one complete, self-consistent prefix of the campaign's
// history. The loader additionally tolerates a valid prefix followed by
// garbage (truncated_tail), falling back to the last good record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace tlsharm::scanner {

inline constexpr char kRunLogMagic[4] = {'T', 'L', 'R', 'J'};
inline constexpr std::uint8_t kRunLogVersion = 2;

// What a day-committed record certifies about the artifacts on disk.
struct DayDigests {
  std::uint64_t warehouse_rows = 0;    // rows across committed segments
  std::uint64_t warehouse_segments = 0;
  std::uint32_t manifest_crc = 0;      // CRC-32 of the MANIFEST bytes
  std::uint64_t state_bytes = 0;       // state-<day>.bin size
  std::uint32_t state_crc = 0;         // CRC-32 of the whole state file

  bool operator==(const DayDigests&) const = default;
};

struct RunLogDay {
  int day = 0;
  DayDigests digests;
};

// A parsed journal.
struct RunLogContents {
  std::uint64_t config_digest = 0;
  int days = 0;                    // campaign length in study days
  std::vector<RunLogDay> committed;  // days 0..k in order
  int started = -1;                // trailing day-started record, or -1
  bool truncated_tail = false;     // unreadable bytes followed the prefix

  int LastCommitted() const {
    return committed.empty() ? -1 : committed.back().day;
  }
};

// Codec, exposed for the hostile-input battery: EncodeRunLog renders the
// canonical journal bytes for `contents`; DecodeRunLog parses them back,
// accepting a valid prefix (setting truncated_tail) and rejecting
// structural violations (non-contiguous committed days, day-started that
// is not last, missing config record) with false + `error`.
Bytes EncodeRunLog(const RunLogContents& contents);
bool DecodeRunLog(ByteView bytes, RunLogContents* out, std::string* error);

class RunLog {
 public:
  // Starts a fresh journal at `path` (atomically replacing any previous
  // one) holding only the config record.
  bool Start(const std::string& path, std::uint64_t config_digest, int days,
             std::string* error);

  // Loads an existing journal for resume. False when the file is missing
  // or no valid prefix exists.
  static bool Load(const std::string& path, RunLogContents* out,
                   std::string* error);

  // Continues a journal recovered by Load: rewrites it in canonical form
  // (dropping any uncommitted trailing day-started record and truncated
  // tail) and arms the writer for further records.
  bool Reopen(const std::string& path, const RunLogContents& contents,
              std::string* error);

  // Journal barriers. Days must advance contiguously: DayStarted(k) only
  // for k == LastCommitted()+1, DayCommitted(k) only after DayStarted(k).
  bool DayStarted(int day, std::string* error);
  bool DayCommitted(int day, const DayDigests& digests, std::string* error);

  const RunLogContents& Contents() const { return contents_; }

 private:
  bool Rewrite(std::string* error);

  std::string path_;
  RunLogContents contents_;
};

}  // namespace tlsharm::scanner
