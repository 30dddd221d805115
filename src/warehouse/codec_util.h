// Shared low-level helpers of the segment codecs (segment.cc, capture.cc):
// the envelope (magic | version | kind ... CRC-32 trailer), the per-column
// framing (id | varint length | CRC-32 | payload), the day-segment header
// and column table, varint columns, and the ascending-id column behind the
// domain dictionaries. Kept header-only so every segment kind validates
// bytes in exactly the same order: size, magic, version, segment CRC, then
// structure — a flipped bit always surfaces as a checksum mismatch before
// any length field is trusted.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "warehouse/format.h"

namespace tlsharm::warehouse::codec {

inline void Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// Appends one column: id, payload length, payload CRC, payload.
inline void EmitColumn(Bytes& out, std::uint8_t id, const Bytes& payload) {
  out.push_back(id);
  AppendVarint(out, payload.size());
  AppendUint(out, Crc32(payload), 4);
  Append(out, payload);
}

inline void EmitPrefix(Bytes& out, std::uint8_t kind) {
  for (const char c : kSegmentMagic) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  out.push_back(kFormatVersion);
  out.push_back(kind);
}

inline void EmitTrailer(Bytes& out) { AppendUint(out, Crc32(out), 4); }

// Validates size, magic, version and the trailing segment CRC; on success
// returns the body (everything between the kind byte and the trailer) and
// the kind byte. This runs BEFORE any structural parsing, so a flipped bit
// anywhere in the file surfaces as a checksum mismatch, not as whatever
// the corrupted length fields would make a parser do.
inline bool CheckEnvelope(ByteView segment, std::uint8_t* kind,
                          ByteView* body, std::string* error) {
  constexpr std::size_t kMinSize = 4 + 1 + 1 + 4;  // magic+version+kind+crc
  if (segment.size() < kMinSize) {
    Fail(error, "segment truncated (" + std::to_string(segment.size()) +
                    " bytes)");
    return false;
  }
  if (std::memcmp(segment.data(), kSegmentMagic, 4) != 0) {
    Fail(error, "bad segment magic");
    return false;
  }
  if (segment[4] != kFormatVersion) {
    Fail(error, "unsupported warehouse format version " +
                    std::to_string(segment[4]) + " (expected " +
                    std::to_string(kFormatVersion) + ")");
    return false;
  }
  const std::size_t body_end = segment.size() - 4;
  const std::uint32_t stored =
      static_cast<std::uint32_t>(ReadUint(segment, body_end, 4));
  if (Crc32(segment.subspan(0, body_end)) != stored) {
    Fail(error, "segment checksum mismatch");
    return false;
  }
  *kind = segment[5];
  *body = segment.subspan(6, body_end - 6);
  return true;
}

// Reads one column header + payload out of `body` at `off`, enforcing the
// expected id and the per-column CRC.
inline bool ReadColumn(ByteView body, std::size_t& off,
                       std::uint8_t expected_id, ByteView* payload,
                       std::string* error) {
  const std::string label = "column " + std::to_string(expected_id);
  if (off >= body.size()) {
    Fail(error, label + " missing");
    return false;
  }
  if (body[off] != expected_id) {
    Fail(error, label + " has unexpected id " + std::to_string(body[off]));
    return false;
  }
  ++off;
  std::uint64_t length = 0;
  if (!ReadVarint(body, off, length) || off + 4 > body.size() ||
      length > body.size() - off - 4) {
    Fail(error, label + " length out of bounds");
    return false;
  }
  const std::uint32_t stored =
      static_cast<std::uint32_t>(ReadUint(body, off, 4));
  off += 4;
  *payload = body.subspan(off, static_cast<std::size_t>(length));
  off += static_cast<std::size_t>(length);
  if (Crc32(*payload) != stored) {
    Fail(error, label + " checksum mismatch");
    return false;
  }
  return true;
}

inline bool ColumnConsumed(ByteView payload, std::size_t off, std::uint8_t id,
                           std::string* error) {
  if (off != payload.size()) {
    Fail(error, "column " + std::to_string(id) + " has trailing bytes");
    return false;
  }
  return true;
}

// Reads `count` columns (ids 0..count-1, in order) into `cols`; they must
// end the body.
inline bool ReadColumnTable(ByteView body, std::size_t off, int count,
                            ByteView* cols, std::string* error) {
  for (int c = 0; c < count; ++c) {
    if (!ReadColumn(body, off, static_cast<std::uint8_t>(c), &cols[c],
                    error)) {
      return false;
    }
  }
  if (off != body.size()) {
    Fail(error, "trailing bytes after last column");
    return false;
  }
  return true;
}

// The day-segment prefix and header (observation and capture segments):
// kind, then day, row count and column count as varints.
inline void EmitDayHeader(Bytes& out, std::uint8_t kind, int day,
                          std::size_t rows, int column_count) {
  EmitPrefix(out, kind);
  AppendVarint(out, static_cast<std::uint64_t>(day));
  AppendVarint(out, rows);
  AppendVarint(out, static_cast<std::uint64_t>(column_count));
}

// Validates a day segment of `kind` (`noun` names it in diagnostics: "an
// observation") through its header and column table; fills `day`, `rows`
// and the `column_count` column payloads.
inline bool ReadDayHeader(ByteView segment, std::uint8_t kind,
                          const char* noun, int column_count, ByteView* cols,
                          int* day, std::size_t* rows, std::string* error) {
  std::uint8_t found = 0;
  ByteView body;
  if (!CheckEnvelope(segment, &found, &body, error)) return false;
  if (found != kind) {
    Fail(error, std::string("not ") + noun + " segment (kind " +
                    std::to_string(found) + ")");
    return false;
  }
  std::size_t off = 0;
  std::uint64_t day64 = 0, row_count = 0, columns = 0;
  if (!ReadVarint(body, off, day64) || !ReadVarint(body, off, row_count) ||
      !ReadVarint(body, off, columns)) {
    Fail(error, "segment header truncated");
    return false;
  }
  if (day64 > 0xffff) {
    Fail(error, "implausible day " + std::to_string(day64));
    return false;
  }
  if (columns != static_cast<std::uint64_t>(column_count)) {
    Fail(error, "expected " + std::to_string(column_count) +
                    " columns, found " + std::to_string(columns));
    return false;
  }
  // Each row occupies at least one byte in the flags column alone.
  if (row_count > body.size()) {
    Fail(error, "row count exceeds segment size");
    return false;
  }
  if (!ReadColumnTable(body, off, column_count, cols, error)) return false;
  *day = static_cast<int>(day64);
  *rows = static_cast<std::size_t>(row_count);
  return true;
}

// A varint column: one varint per row, the value of `field`.
template <typename Row, typename Field>
void EmitVarintColumn(Bytes& out, Bytes& col, std::uint8_t id,
                      const std::vector<Row>& rows, Field Row::*field) {
  col.clear();
  for (const Row& row : rows) {
    AppendVarint(col, static_cast<std::uint64_t>(row.*field));
  }
  EmitColumn(out, id, col);
}

// Reads varint column `id` of `cols` into `field` of each row; a value
// above `max` is invalid.
template <typename Row, typename Field>
bool ReadVarintColumn(const ByteView* cols, std::uint8_t id,
                      std::uint64_t max, std::vector<Row>& rows,
                      Field Row::*field, std::string* error) {
  const ByteView col = cols[id];
  std::size_t pos = 0;
  for (Row& row : rows) {
    std::uint64_t value = 0;
    if (!ReadVarint(col, pos, value) || value > max) {
      Fail(error, "column " + std::to_string(id) + " value invalid");
      return false;
    }
    row.*field = static_cast<Field>(value);
  }
  return ColumnConsumed(col, pos, id, error);
}

// The ascending-id column layout: strictly increasing 32-bit ids, the
// first absolute, each later one as its gap from the previous one.
inline void AppendAscendingIds(Bytes& col,
                               const std::vector<std::uint32_t>& ids) {
  std::uint32_t prev = 0;
  for (const std::uint32_t id : ids) {
    AppendVarint(col, id - prev);
    prev = id;
  }
}

// Reads `count` ascending ids into `ids`; `what` names the column in
// diagnostics.
inline bool ReadAscendingIds(ByteView col, std::size_t& pos,
                             std::uint64_t count, const char* what,
                             std::vector<std::uint32_t>* ids,
                             std::string* error) {
  ids->clear();
  ids->reserve(static_cast<std::size_t>(count));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t gap = 0;
    if (!ReadVarint(col, pos, gap)) {
      Fail(error, std::string(what) + " truncated");
      return false;
    }
    if (gap > 0xffffffffull - prev || (i != 0 && gap == 0)) {
      Fail(error, std::string(what) + " not strictly increasing");
      return false;
    }
    prev += gap;
    ids->push_back(static_cast<std::uint32_t>(prev));
  }
  return true;
}

// The domain column of a day segment: the count of distinct domains, the
// domains as an ascending-id column, then each row's index into them. The
// engine probes a domain up to three times a day (main + DHE + requeue),
// so interning pays even before the delta coding does.
template <typename Row>
void AppendDomainColumn(Bytes& col, const std::vector<Row>& rows) {
  std::vector<std::uint32_t> dict;
  dict.reserve(rows.size());
  for (const Row& row : rows) dict.push_back(row.domain);
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  AppendVarint(col, dict.size());
  AppendAscendingIds(col, dict);
  for (const Row& row : rows) {
    AppendVarint(col, static_cast<std::uint64_t>(
                          std::lower_bound(dict.begin(), dict.end(),
                                           row.domain) -
                          dict.begin()));
  }
}

template <typename Row>
bool ReadDomainColumn(const ByteView* cols, std::uint8_t id,
                      std::vector<Row>& rows, std::string* error) {
  const ByteView col = cols[id];
  std::size_t pos = 0;
  std::uint64_t dict_count = 0;
  if (!ReadVarint(col, pos, dict_count) || dict_count > col.size()) {
    Fail(error, "domain dictionary truncated");
    return false;
  }
  std::vector<std::uint32_t> dict;
  if (!ReadAscendingIds(col, pos, dict_count, "domain dictionary", &dict,
                        error)) {
    return false;
  }
  for (Row& row : rows) {
    std::uint64_t index = 0;
    if (!ReadVarint(col, pos, index) || index >= dict.size()) {
      Fail(error, "domain index out of dictionary range");
      return false;
    }
    row.domain = dict[static_cast<std::size_t>(index)];
  }
  return ColumnConsumed(col, pos, id, error);
}

}  // namespace tlsharm::warehouse::codec
