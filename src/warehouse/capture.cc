#include "warehouse/capture.h"

#include "obs/prof.h"
#include "warehouse/codec_util.h"
#include "warehouse/format.h"

namespace tlsharm::warehouse {
namespace {

using attack::CaptureRecord;
using codec::ColumnConsumed;
using codec::EmitColumn;
using codec::EmitTrailer;
using codec::EmitVarintColumn;
using codec::Fail;
using codec::ReadVarintColumn;

// Performance-plane sites: columnar encode vs durable write of each day's
// capture segment.
const obs::ProfSite kProfCaptureEncode("tape.segment.encode");
const obs::ProfSite kProfCaptureCommit("tape.segment.commit");

// The tape is its own day store: capture-<day>.seg segments under a
// MANIFEST whose header and `cap` entries no warehouse accepts.
const DayStoreLayout kCaptureTapeLayout = {
    .name = "capture-tape",
    .manifest_header = kCaptureManifestHeader,
    .day_tag = "cap",
    .segment_prefix = "capture-",
    .experiment_kind = nullptr,
    .encode_site = &kProfCaptureEncode,
    .commit_site = &kProfCaptureCommit,
};

// Upper bounds the decoder enforces on variable-length fields; far above
// anything the simulation emits, far below anything that could be used to
// make a corrupted length field allocate unbounded memory.
constexpr std::uint64_t kMaxRandomSize = 64;
constexpr std::uint64_t kMaxSessionIdSize = 64;
constexpr std::uint64_t kMaxTicketSize = 1 << 16;
constexpr std::uint64_t kMaxKexSize = 1 << 12;

}  // namespace

// --- Segment codec ----------------------------------------------------------

Bytes EncodeCaptureSegment(int day, const std::vector<CaptureRecord>& rows) {
  Bytes out;
  codec::EmitDayHeader(out, kKindCapture, day, rows.size(),
                       kCaptureColumnCount);
  Bytes col;
  col.reserve(rows.size() * 2);
  codec::AppendDomainColumn(col, rows);
  EmitColumn(out, kCapColDomain, col);

  EmitVarintColumn(out, col, kCapColTime, rows, &CaptureRecord::time);
  EmitVarintColumn(out, col, kCapColEndpoint, rows, &CaptureRecord::endpoint);

  col.clear();
  for (const auto& row : rows) {
    col.push_back(static_cast<std::uint8_t>((row.valid ? 1 : 0) |
                                            (row.abbreviated ? 2 : 0)));
  }
  EmitColumn(out, kCapColFlags, col);

  col.clear();
  for (const auto& row : rows) {
    col.push_back(static_cast<std::uint8_t>(row.parse_fail));
  }
  EmitColumn(out, kCapColParseFail, col);

  EmitVarintColumn(out, col, kCapColSuite, rows, &CaptureRecord::suite);
  EmitVarintColumn(out, col, kCapColKexGroup, rows,
                   &CaptureRecord::kex_group);
  EmitVarintColumn(out, col, kCapColHint, rows,
                   &CaptureRecord::ticket_lifetime_hint);

  const auto emit_bytes_column = [&](std::uint8_t id,
                                     Bytes CaptureRecord::*field) {
    col.clear();
    for (const auto& row : rows) {
      const Bytes& value = row.*field;
      AppendVarint(col, value.size());
      Append(col, value);
    }
    EmitColumn(out, id, col);
  };
  emit_bytes_column(kCapColClientRandom, &CaptureRecord::client_random);
  emit_bytes_column(kCapColServerRandom, &CaptureRecord::server_random);
  emit_bytes_column(kCapColSessionId, &CaptureRecord::session_id);
  emit_bytes_column(kCapColTicket, &CaptureRecord::ticket);
  emit_bytes_column(kCapColServerKex, &CaptureRecord::server_kex);
  emit_bytes_column(kCapColClientKex, &CaptureRecord::client_kex);

  col.clear();
  for (const auto& row : rows) {
    AppendVarint(col, row.wire_bytes);
    AppendVarint(col, row.client_records);
    AppendVarint(col, row.server_records);
    AppendVarint(col, row.client_record_bytes);
    AppendVarint(col, row.server_record_bytes);
  }
  EmitColumn(out, kCapColTraffic, col);

  EmitTrailer(out);
  return out;
}

bool DecodeCaptureSegment(ByteView segment, int* day,
                          std::vector<CaptureRecord>* rows,
                          std::string* error) {
  ByteView cols[kCaptureColumnCount];
  int segment_day = 0;
  std::size_t n = 0;
  if (!codec::ReadDayHeader(segment, kKindCapture, "a capture",
                            kCaptureColumnCount, cols, &segment_day, &n,
                            error)) {
    return false;
  }
  rows->assign(n, CaptureRecord{});
  if (!codec::ReadDomainColumn(cols, kCapColDomain, *rows, error) ||
      !ReadVarintColumn(cols, kCapColTime, 0x7fffffffffffffffull, *rows,
                        &CaptureRecord::time, error) ||
      !ReadVarintColumn(cols, kCapColEndpoint, 0xffffffffull, *rows,
                        &CaptureRecord::endpoint, error)) {
    return false;
  }

  if (cols[kCapColFlags].size() != n) {
    Fail(error, "flags column row mismatch");
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t flags = cols[kCapColFlags][i];
    if (flags > 3) {
      Fail(error, "flags value out of range");
      return false;
    }
    (*rows)[i].valid = (flags & 1) != 0;
    (*rows)[i].abbreviated = (flags & 2) != 0;
  }

  if (cols[kCapColParseFail].size() != n) {
    Fail(error, "parse-fail column row mismatch");
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t fail = cols[kCapColParseFail][i];
    if (fail >= attack::kCaptureParseFailCount) {
      Fail(error, "parse-fail class out of range");
      return false;
    }
    (*rows)[i].parse_fail = static_cast<attack::CaptureParseFail>(fail);
  }

  if (!ReadVarintColumn(cols, kCapColSuite, 0xffff, *rows,
                        &CaptureRecord::suite, error) ||
      !ReadVarintColumn(cols, kCapColKexGroup, 0xffff, *rows,
                        &CaptureRecord::kex_group, error) ||
      !ReadVarintColumn(cols, kCapColHint, 0xffffffffull, *rows,
                        &CaptureRecord::ticket_lifetime_hint, error)) {
    return false;
  }

  // The length-prefixed byte-string columns.
  const auto read_bytes_column = [&](CaptureColumn id, std::uint64_t max_size,
                                     Bytes CaptureRecord::*field) -> bool {
    ByteView col = cols[id];
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t size = 0;
      if (!ReadVarint(col, pos, size) || size > max_size ||
          size > col.size() - pos) {
        Fail(error, "column " + std::to_string(id) + " string out of bounds");
        return false;
      }
      const ByteView value = col.subspan(pos, static_cast<std::size_t>(size));
      ((*rows)[i].*field).assign(value.begin(), value.end());
      pos += static_cast<std::size_t>(size);
    }
    return ColumnConsumed(col, pos, id, error);
  };

  if (!read_bytes_column(kCapColClientRandom, kMaxRandomSize,
                         &CaptureRecord::client_random) ||
      !read_bytes_column(kCapColServerRandom, kMaxRandomSize,
                         &CaptureRecord::server_random) ||
      !read_bytes_column(kCapColSessionId, kMaxSessionIdSize,
                         &CaptureRecord::session_id) ||
      !read_bytes_column(kCapColTicket, kMaxTicketSize,
                         &CaptureRecord::ticket) ||
      !read_bytes_column(kCapColServerKex, kMaxKexSize,
                         &CaptureRecord::server_kex) ||
      !read_bytes_column(kCapColClientKex, kMaxKexSize,
                         &CaptureRecord::client_kex)) {
    return false;
  }

  {
    ByteView col = cols[kCapColTraffic];
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t wire = 0, crecs = 0, srecs = 0, cbytes = 0, sbytes = 0;
      if (!ReadVarint(col, pos, wire) || !ReadVarint(col, pos, crecs) ||
          !ReadVarint(col, pos, srecs) || !ReadVarint(col, pos, cbytes) ||
          !ReadVarint(col, pos, sbytes) || crecs > 0xffffffffull ||
          srecs > 0xffffffffull) {
        Fail(error, "traffic column invalid");
        return false;
      }
      (*rows)[i].wire_bytes = wire;
      (*rows)[i].client_records = static_cast<std::uint32_t>(crecs);
      (*rows)[i].server_records = static_cast<std::uint32_t>(srecs);
      (*rows)[i].client_record_bytes = cbytes;
      (*rows)[i].server_record_bytes = sbytes;
    }
    if (!ColumnConsumed(col, pos, kCapColTraffic, error)) return false;
  }

  *day = segment_day;
  return true;
}

// --- CaptureTapeWriter ------------------------------------------------------

CaptureTapeWriter::CaptureTapeWriter(std::string dir)
    : DayStoreWriter(kCaptureTapeLayout, std::move(dir)) {}

std::unique_ptr<CaptureTapeWriter> CaptureTapeWriter::Create(
    const std::string& dir, std::string* error, RecoverySweep* sweep) {
  if (!ResetDirectory(kCaptureTapeLayout, dir, error, sweep)) return nullptr;
  return std::unique_ptr<CaptureTapeWriter>(new CaptureTapeWriter(dir));
}

std::unique_ptr<CaptureTapeWriter> CaptureTapeWriter::Resume(
    const std::string& dir, int last_day, RecoverySweep* sweep,
    std::string* error) {
  std::unique_ptr<CaptureTapeWriter> writer(new CaptureTapeWriter(dir));
  if (!writer->Reopen(last_day, sweep, error)) return nullptr;
  return writer;
}

void CaptureTapeWriter::Append(int day, const attack::CaptureRecord& record) {
  if (AdmitRow(day)) pending_.push_back(record);
}

Bytes CaptureTapeWriter::EncodeDay(int day) {
  Bytes segment = EncodeCaptureSegment(day, pending_);
  pending_.clear();
  return segment;
}

// --- CaptureTape (reader) ---------------------------------------------------

std::optional<CaptureTape> CaptureTape::Open(const std::string& dir,
                                             std::string* error) {
  CaptureTape tape;
  if (!tape.Load(kCaptureTapeLayout, dir, error)) return std::nullopt;
  return tape;
}

bool CaptureTape::ForEachCapture(
    int day_min, int day_max,
    const std::function<void(int day, const attack::CaptureRecord&)>& visit,
    std::string* error) const {
  return ForEachDayRow(day_min, day_max, DecodeCaptureSegment, visit, error);
}

}  // namespace tlsharm::warehouse
