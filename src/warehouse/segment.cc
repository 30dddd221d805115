#include "warehouse/segment.h"

#include "scanner/store.h"
#include "util/crc32.h"
#include "warehouse/codec_util.h"
#include "warehouse/format.h"

namespace tlsharm::warehouse {
namespace {

using scanner::HandshakeObservation;

// The envelope and column framing helpers are shared with the capture
// codec (codec_util.h).
using codec::CheckEnvelope;
using codec::ColumnConsumed;
using codec::EmitColumn;
using codec::EmitPrefix;
using codec::EmitTrailer;
using codec::EmitVarintColumn;
using codec::Fail;
using codec::ReadVarintColumn;

}  // namespace

Bytes EncodeObservationSegment(int day,
                               const std::vector<HandshakeObservation>& rows) {
  Bytes out;
  codec::EmitDayHeader(out, kKindObservations, day, rows.size(),
                       kObsColumnCount);
  Bytes col;
  col.reserve(rows.size() * 2);
  codec::AppendDomainColumn(col, rows);
  EmitColumn(out, kColDomain, col);

  col.clear();
  for (const auto& row : rows) {
    col.push_back(
        static_cast<std::uint8_t>(scanner::PackObservationFlags(row)));
  }
  EmitColumn(out, kColFlags, col);

  col.clear();
  for (const auto& row : rows) {
    col.push_back(static_cast<std::uint8_t>(row.failure));
  }
  EmitColumn(out, kColFailure, col);

  using Obs = HandshakeObservation;
  EmitVarintColumn(out, col, kColSuite, rows, &Obs::suite);
  EmitVarintColumn(out, col, kColKexGroup, rows, &Obs::kex_group);
  EmitVarintColumn(out, col, kColKexValue, rows, &Obs::kex_value);
  EmitVarintColumn(out, col, kColSessionId, rows, &Obs::session_id);
  EmitVarintColumn(out, col, kColStekId, rows, &Obs::stek_id);
  EmitVarintColumn(out, col, kColHint, rows, &Obs::ticket_lifetime_hint);
  EmitTrailer(out);
  return out;
}

bool DecodeObservationSegment(ByteView segment, int* day,
                              std::vector<HandshakeObservation>* rows,
                              std::string* error) {
  ByteView cols[kObsColumnCount];
  int segment_day = 0;
  std::size_t n = 0;
  if (!codec::ReadDayHeader(segment, kKindObservations, "an observation",
                            kObsColumnCount, cols, &segment_day, &n,
                            error)) {
    return false;
  }
  rows->assign(n, HandshakeObservation{});
  if (!codec::ReadDomainColumn(cols, kColDomain, *rows, error)) return false;

  if (cols[kColFlags].size() != n) {
    Fail(error, "flags column row mismatch");
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t flags = cols[kColFlags][i];
    if (flags > scanner::kObservationFlagsMax) {
      Fail(error, "flags value out of range");
      return false;
    }
    scanner::UnpackObservationFlags(flags, (*rows)[i]);
  }

  if (cols[kColFailure].size() != n) {
    Fail(error, "failure column row mismatch");
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t failure = cols[kColFailure][i];
    if (failure >= scanner::kProbeFailureClasses) {
      Fail(error, "failure class out of range");
      return false;
    }
    (*rows)[i].failure = static_cast<scanner::ProbeFailure>(failure);
  }

  // The varint-coded numeric columns.
  using Obs = HandshakeObservation;
  if (!ReadVarintColumn(cols, kColSuite, 0xffff, *rows, &Obs::suite, error) ||
      !ReadVarintColumn(cols, kColKexGroup, 0xffff, *rows, &Obs::kex_group,
                        error) ||
      !ReadVarintColumn(cols, kColKexValue, ~0ull, *rows, &Obs::kex_value,
                        error) ||
      !ReadVarintColumn(cols, kColSessionId, ~0ull, *rows, &Obs::session_id,
                        error) ||
      !ReadVarintColumn(cols, kColStekId, ~0ull, *rows, &Obs::stek_id,
                        error) ||
      !ReadVarintColumn(cols, kColHint, 0xffffffffull, *rows,
                        &Obs::ticket_lifetime_hint, error)) {
    return false;
  }

  *day = segment_day;
  return true;
}

Bytes EncodeLifetimeSegment(std::uint8_t experiment,
                            const scanner::ResumptionLifetimeResult& result) {
  Bytes out;
  EmitPrefix(out, kKindLifetime);
  AppendVarint(out, experiment);
  AppendVarint(out, result.lifetimes.size());
  AppendVarint(out, result.trusted_https);
  AppendVarint(out, result.indicated);
  AppendVarint(out, result.resumed_1s);
  AppendVarint(out, kLifetimeColumnCount);

  // Domains ascend strictly (the experiment walks ids in order, at most
  // one measurement each), so deltas stay small.
  std::vector<std::uint32_t> domains;
  domains.reserve(result.lifetimes.size());
  for (const auto& m : result.lifetimes) domains.push_back(m.domain);
  Bytes col;
  codec::AppendAscendingIds(col, domains);
  EmitColumn(out, kColLifetimeDomain, col);

  using Lifetime = scanner::LifetimeMeasurement;
  EmitVarintColumn(out, col, kColLifetimeDelay, result.lifetimes,
                   &Lifetime::max_delay);
  EmitVarintColumn(out, col, kColLifetimeHint, result.lifetimes,
                   &Lifetime::lifetime_hint);

  EmitTrailer(out);
  return out;
}

bool DecodeLifetimeSegment(ByteView segment, std::uint8_t* experiment,
                           scanner::ResumptionLifetimeResult* result,
                           std::string* error) {
  std::uint8_t kind = 0;
  ByteView body;
  if (!CheckEnvelope(segment, &kind, &body, error)) return false;
  if (kind != kKindLifetime) {
    Fail(error,
         "not a lifetime segment (kind " + std::to_string(kind) + ")");
    return false;
  }

  std::size_t off = 0;
  std::uint64_t exp = 0, row_count = 0, trusted = 0, indicated = 0,
                resumed = 0, column_count = 0;
  if (!ReadVarint(body, off, exp) || !ReadVarint(body, off, row_count) ||
      !ReadVarint(body, off, trusted) || !ReadVarint(body, off, indicated) ||
      !ReadVarint(body, off, resumed) ||
      !ReadVarint(body, off, column_count)) {
    Fail(error, "segment header truncated");
    return false;
  }
  if (exp > kExperimentTicket) {
    Fail(error, "unknown experiment id " + std::to_string(exp));
    return false;
  }
  if (column_count != kLifetimeColumnCount) {
    Fail(error, "expected " + std::to_string(kLifetimeColumnCount) +
                    " columns, found " + std::to_string(column_count));
    return false;
  }
  if (row_count > body.size()) {
    Fail(error, "row count exceeds segment size");
    return false;
  }
  const std::size_t n = static_cast<std::size_t>(row_count);

  ByteView cols[kLifetimeColumnCount];
  if (!codec::ReadColumnTable(body, off, kLifetimeColumnCount, cols, error)) {
    return false;
  }

  result->trusted_https = static_cast<std::size_t>(trusted);
  result->indicated = static_cast<std::size_t>(indicated);
  result->resumed_1s = static_cast<std::size_t>(resumed);
  using Lifetime = scanner::LifetimeMeasurement;
  result->lifetimes.assign(n, Lifetime{});

  std::vector<std::uint32_t> domains;
  std::size_t pos = 0;
  if (!codec::ReadAscendingIds(cols[kColLifetimeDomain], pos, n,
                               "lifetime domain column", &domains, error) ||
      !ColumnConsumed(cols[kColLifetimeDomain], pos, kColLifetimeDomain,
                      error)) {
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) result->lifetimes[i].domain = domains[i];
  if (!ReadVarintColumn(cols, kColLifetimeDelay, 0x7fffffffffffffffull,
                        result->lifetimes, &Lifetime::max_delay, error) ||
      !ReadVarintColumn(cols, kColLifetimeHint, 0xffffffffull,
                        result->lifetimes, &Lifetime::lifetime_hint, error)) {
    return false;
  }

  *experiment = static_cast<std::uint8_t>(exp);
  return true;
}

bool PeekSegmentKind(ByteView segment, std::uint8_t* kind,
                     std::string* error) {
  ByteView body;
  return CheckEnvelope(segment, kind, &body, error);
}

}  // namespace tlsharm::warehouse
