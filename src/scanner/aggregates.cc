#include "scanner/aggregates.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "tls/constants.h"
#include "util/crc32.h"
#include "util/durable.h"

namespace tlsharm::scanner {
namespace {

// Domain-flag vectors are bounded by the simulated Internet's roster; a
// checkpoint claiming more is corrupt (or from another study).
constexpr std::uint64_t kMaxDomains = 1u << 28;

// Packs `count` flags, eight to a byte; flags past the vector's end are 0.
void AppendBitmap(Bytes& out, const std::vector<std::uint8_t>& flags,
                  std::size_t count) {
  for (std::size_t i = 0; i < count; i += 8) {
    std::uint8_t packed = 0;
    for (std::size_t b = 0; b < 8 && i + b < flags.size(); ++b) {
      if (flags[i + b] != 0) packed |= static_cast<std::uint8_t>(1u << b);
    }
    out.push_back(packed);
  }
}

bool ReadBitmap(ByteView in, std::size_t& off, std::size_t count,
                std::vector<std::uint8_t>* flags) {
  const std::size_t bytes = (count + 7) / 8;
  if (in.size() - off < bytes) return false;
  flags->assign(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    (*flags)[i] = (in[off + i / 8] >> (i % 8)) & 1;
  }
  off += bytes;
  return true;
}

bool ReadWholeFile(const std::string& path, Bytes* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream content;
  content << in.rdbuf();
  const std::string data = content.str();
  out->assign(data.begin(), data.end());
  return true;
}

}  // namespace

void ScanAggregates::Mark(std::vector<std::uint8_t>& flags,
                          DomainIndex domain) {
  if (flags.size() <= domain) flags.resize(domain + 1, 0);
  flags[domain] = 1;
}

void ScanAggregates::Fold(int day, const HandshakeObservation& obs) {
  // Suite dispatch (see header): DHE suite <=> the engine's DHE-only pass.
  if (obs.suite == tls::CipherSuite::kDheWithAes128CbcSha256) {
    if (obs.handshake_ok && obs.kex_value != kNoSecret) {
      Mark(ever_dhe_, obs.domain);
      dhe_spans_.Observe(obs.domain, obs.kex_value, day);
    }
    return;
  }
  if (!obs.handshake_ok) return;
  if (obs.trusted) Mark(ever_trusted_, obs.domain);
  if (obs.ticket_issued) {
    Mark(ever_ticket_, obs.domain);
    stek_spans_.Observe(obs.domain, obs.stek_id, day);
  }
  if (obs.suite == tls::CipherSuite::kEcdheWithAes128CbcSha256 &&
      obs.kex_value != kNoSecret) {
    Mark(ever_ecdhe_, obs.domain);
    ecdhe_spans_.Observe(obs.domain, obs.kex_value, day);
  }
}

void ScanAggregates::CompleteDay(int day) {
  if (day >= next_day_) next_day_ = day + 1;
}

DailyScanResult ScanAggregates::Finish(const simnet::Internet& net) const {
  DailyScanResult result;
  result.stek_spans = stek_spans_;
  result.ecdhe_spans = ecdhe_spans_;
  result.dhe_spans = dhe_spans_;
  const auto ever = [](const std::vector<std::uint8_t>& flags,
                       simnet::DomainId id) {
    return id < flags.size() && flags[id] != 0;
  };
  for (simnet::DomainId id = 0; id < net.DomainCount(); ++id) {
    // Column accessors: Finish sweeps the whole population, and a
    // million-domain sweep must not materialize a DomainInfo per row.
    if (!net.DomainStable(id) || !net.DomainHttps(id) ||
        !ever(ever_trusted_, id)) {
      continue;
    }
    result.core_domains.push_back(id);
    result.core_ever_ticket += ever(ever_ticket_, id) ? 1 : 0;
    result.core_ever_ecdhe += ever(ever_ecdhe_, id) ? 1 : 0;
    result.core_ever_dhe_connect += ever(ever_dhe_, id) ? 1 : 0;
    if (ever(ever_ticket_, id) || ever(ever_ecdhe_, id) ||
        ever(ever_dhe_, id)) {
      ++result.core_any_mechanism;
    }
  }
  return result;
}

void ScanAggregates::EncodeState(Bytes& out) const {
  AppendVarint(out, static_cast<std::uint64_t>(next_day_));
  stek_spans_.EncodeState(out);
  ecdhe_spans_.EncodeState(out);
  dhe_spans_.EncodeState(out);
  // All four bitmaps share one length: the widest vector.
  std::size_t count = ever_ticket_.size();
  count = std::max(count, ever_ecdhe_.size());
  count = std::max(count, ever_dhe_.size());
  count = std::max(count, ever_trusted_.size());
  AppendVarint(out, count);
  const std::vector<std::uint8_t>* bitmaps[] = {&ever_ticket_, &ever_ecdhe_,
                                                &ever_dhe_, &ever_trusted_};
  for (const auto* flags : bitmaps) AppendBitmap(out, *flags, count);
}

bool ScanAggregates::DecodeState(ByteView in, std::size_t& off) {
  std::uint64_t next_day = 0;
  if (!ReadVarint(in, off, next_day) || next_day > 0x10000) return false;
  if (!stek_spans_.DecodeState(in, off)) return false;
  if (!ecdhe_spans_.DecodeState(in, off)) return false;
  if (!dhe_spans_.DecodeState(in, off)) return false;
  std::uint64_t count = 0;
  if (!ReadVarint(in, off, count) || count > kMaxDomains) return false;
  std::vector<std::uint8_t>* bitmaps[] = {&ever_ticket_, &ever_ecdhe_,
                                          &ever_dhe_, &ever_trusted_};
  for (auto* flags : bitmaps) {
    if (!ReadBitmap(in, off, static_cast<std::size_t>(count), flags)) {
      return false;
    }
  }
  next_day_ = static_cast<int>(next_day);
  return true;
}

std::string CheckpointFileName(int day) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%05d.bin", day);
  return buf;
}

bool WriteCheckpoint(const std::string& dir, int day,
                     const ScanAggregates& aggregates, std::string* error) {
  Bytes state;
  aggregates.EncodeState(state);
  return WriteCheckpoint(dir, day, state, error);
}

bool WriteCheckpoint(const std::string& dir, int day, ByteView encoded_state,
                     std::string* error) {
  Bytes bytes(kScanCheckpointMagic, kScanCheckpointMagic + 4);
  bytes.reserve(5 + encoded_state.size() + 4);
  bytes.push_back(kScanCheckpointVersion);
  Append(bytes, encoded_state);
  const std::uint32_t crc = Crc32(bytes);
  for (int shift = 24; shift >= 0; shift -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  const std::string path = dir + "/" + CheckpointFileName(day);
  return DurableWriteFile(path, bytes, error);
}

bool ReadCheckpoint(const std::string& dir, int day,
                    ScanAggregates* aggregates, std::string* error) {
  const std::string path = dir + "/" + CheckpointFileName(day);
  Bytes bytes;
  if (!ReadWholeFile(path, &bytes, error)) return false;
  if (bytes.size() < 9) {
    if (error != nullptr) *error = path + ": truncated checkpoint";
    return false;
  }
  if (!std::equal(kScanCheckpointMagic, kScanCheckpointMagic + 4,
                  bytes.begin())) {
    if (error != nullptr) *error = path + ": bad checkpoint magic";
    return false;
  }
  const std::size_t body = bytes.size() - 4;
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stored = (stored << 8) | bytes[body + i];
  }
  if (Crc32(ByteView(bytes.data(), body)) != stored) {
    if (error != nullptr) *error = path + ": checksum mismatch";
    return false;
  }
  if (bytes[4] != kScanCheckpointVersion) {
    if (error != nullptr) {
      *error = path + ": unsupported checkpoint version " +
               std::to_string(static_cast<int>(bytes[4]));
    }
    return false;
  }
  std::size_t off = 5;
  ScanAggregates decoded;
  if (!decoded.DecodeState(ByteView(bytes.data(), body), off) ||
      off != body) {
    if (error != nullptr) *error = path + ": malformed checkpoint state";
    return false;
  }
  if (decoded.NextDay() != day + 1) {
    if (error != nullptr) *error = path + ": checkpoint day disagrees";
    return false;
  }
  *aggregates = std::move(decoded);
  return true;
}

}  // namespace tlsharm::scanner
