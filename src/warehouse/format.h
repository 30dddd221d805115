// On-disk constants of the two day stores (day_store.h): the columnar
// observation warehouse and the capture tape.
//
// A warehouse is a directory:
//
//   MANIFEST             text index: format version + one line per segment
//                        (kind, day/experiment, file name, rows, bytes,
//                        whole-file CRC-32)
//   obs-<day>.seg        one columnar segment per scanned day
//   exp-<kind>.seg       one columnar table per recorded lifetime
//                        experiment ("session_id", "ticket")
//   ckpt-<day>.bin       optional incremental-fold checkpoints (fold.h)
//
// A capture tape (capture.h) is a directory of the same shape holding only
// its MANIFEST and capture-<day>.seg segments; one implementation
// (day_store.h) writes, resumes and reads both.
//
// Segment layout (all integers varint unless noted; see util/bytes.h):
//
//   magic "TLWH" | version u8 | kind u8
//   kind-specific header varints
//   column_count
//   per column: id u8 | payload_length | payload CRC-32 (4B BE) | payload
//   segment CRC-32 (4B BE) over every preceding byte
//
// Observation segments (kind 0) carry the day header {day, rows} and nine
// columns: the domain column is dictionary-interned (the count of sorted
// unique domain ids, the ids as an ascending-id column — first absolute,
// then gaps — and one dictionary index per row), flags and failure-class
// are one byte per row, and the remaining numeric columns are plain
// varints. Lifetime segments (kind 1) carry header {experiment, rows,
// trusted_https, indicated, resumed_1s} and three columns, the domain
// column an ascending-id column (ascending by construction).
//
// Decoders verify, in order: size, magic, version, segment CRC, then
// structure — so any bit flip is caught by a checksum before field
// validation, and a version bump is rejected explicitly. Every varint read
// is bounds-checked; no decoder ever trusts a length field. The shared
// pieces of every codec live in codec_util.h.
#pragma once

#include <cstdint>

namespace tlsharm::warehouse {

inline constexpr char kSegmentMagic[4] = {'T', 'L', 'W', 'H'};
inline constexpr std::uint8_t kFormatVersion = 1;

inline constexpr std::uint8_t kKindObservations = 0;
inline constexpr std::uint8_t kKindLifetime = 1;
inline constexpr std::uint8_t kKindCapture = 2;

// Observation-segment column ids, in file order.
enum ObsColumn : std::uint8_t {
  kColDomain = 0,
  kColFlags = 1,
  kColFailure = 2,
  kColSuite = 3,
  kColKexGroup = 4,
  kColKexValue = 5,
  kColSessionId = 6,
  kColStekId = 7,
  kColHint = 8,
};
inline constexpr int kObsColumnCount = 9;

// Lifetime-segment column ids, in file order.
enum LifetimeColumn : std::uint8_t {
  kColLifetimeDomain = 0,
  kColLifetimeDelay = 1,
  kColLifetimeHint = 2,
};
inline constexpr int kLifetimeColumnCount = 3;

// Capture-segment column ids, in file order (kind 2; capture.h). Carry
// the day header {day, rows}. The domain column is dictionary-interned
// like the observation segment's; the byte-string columns (randoms, session ID,
// ticket, kex values) are varint-length-prefixed per row; the traffic
// column packs five varints per row (wire bytes, record counts and bytes
// per direction).
enum CaptureColumn : std::uint8_t {
  kCapColDomain = 0,
  kCapColTime = 1,
  kCapColEndpoint = 2,
  kCapColFlags = 3,      // bit 0 valid, bit 1 abbreviated
  kCapColParseFail = 4,
  kCapColSuite = 5,
  kCapColKexGroup = 6,
  kCapColHint = 7,
  kCapColClientRandom = 8,
  kCapColServerRandom = 9,
  kCapColSessionId = 10,
  kCapColTicket = 11,
  kCapColServerKex = 12,
  kCapColClientKex = 13,
  kCapColTraffic = 14,
};
inline constexpr int kCaptureColumnCount = 15;

// Experiment ids for lifetime segments.
inline constexpr std::uint8_t kExperimentSessionId = 0;
inline constexpr std::uint8_t kExperimentTicket = 1;

inline constexpr char kManifestName[] = "MANIFEST";
inline constexpr char kManifestHeader[] = "tlsharm-warehouse 1";

// The capture tape (capture.h) is its own day store of capture segments
// ("capture-<day>.seg") with the same MANIFEST file name but a distinct
// header line and `cap` entries, so a tape can never be mistaken for an
// observation warehouse (or vice versa).
inline constexpr char kCaptureManifestHeader[] = "tlsharm-capture-tape 1";

// Checkpoint files (ckpt-<day>.bin) are "TLWC" | version | payload |
// CRC-32 trailer; their codec lives with the shared aggregate state in
// scanner/aggregates.h so the engine, the fold, and the campaign resume
// path write identical bytes.

}  // namespace tlsharm::warehouse
