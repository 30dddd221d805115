#include "scanner/store.h"

#include <charconv>
#include <sstream>

namespace tlsharm::scanner {
namespace {

constexpr int kConnected = 1;
constexpr int kHandshakeOk = 2;
constexpr int kTrusted = 4;
constexpr int kSessionIdSet = 8;
constexpr int kTicketIssued = 16;

// Legacy nine-field lines predate the failure taxonomy; reconstruct the
// closest class the flags still distinguish.
ProbeFailure DeriveFailure(const HandshakeObservation& obs) {
  if (!obs.connected) return ProbeFailure::kNoHttps;
  if (!obs.handshake_ok) return ProbeFailure::kAlert;
  if (!obs.trusted) return ProbeFailure::kUntrusted;
  return ProbeFailure::kNone;
}

// Parses one '|'-separated line; false on malformed input. Accepts nine
// (legacy) or ten fields.
bool ParseLine(const std::string& line, StoredObservation& out) {
  std::uint64_t fields[10];
  std::size_t field = 0;
  const char* p = line.data();
  const char* end = line.data() + line.size();
  while (field < 10) {
    std::uint64_t value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc()) return false;
    fields[field++] = value;
    p = next;
    if (p == end) break;
    if (*p != '|') return false;
    ++p;
    if (field == 10) return false;  // trailing separator / extra field
  }
  if (p != end || field < 9) return false;

  out.day = static_cast<int>(fields[0]);
  HandshakeObservation& obs = out.observation;
  obs.domain = static_cast<DomainIndex>(fields[1]);
  UnpackObservationFlags(static_cast<int>(fields[2]), obs);
  obs.suite = static_cast<tls::CipherSuite>(fields[3]);
  obs.kex_group = static_cast<std::uint16_t>(fields[4]);
  obs.kex_value = fields[5];
  obs.session_id = fields[6];
  obs.stek_id = fields[7];
  obs.ticket_lifetime_hint = static_cast<std::uint32_t>(fields[8]);
  if (field == 10) {
    if (fields[9] >= static_cast<std::uint64_t>(kProbeFailureClasses)) {
      return false;
    }
    obs.failure = static_cast<ProbeFailure>(fields[9]);
  } else {
    obs.failure = DeriveFailure(obs);
  }
  return true;
}

void AppendDecimal(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, end);
}

// Formats one store line into `out` (appending): the single definition of
// the text format.
void AppendObservationLine(std::string& out, int day,
                           const HandshakeObservation& obs) {
  AppendDecimal(out, static_cast<std::uint64_t>(day));
  out.push_back('|');
  AppendDecimal(out, obs.domain);
  out.push_back('|');
  AppendDecimal(out, static_cast<std::uint64_t>(PackObservationFlags(obs)));
  out.push_back('|');
  AppendDecimal(out, static_cast<std::uint16_t>(obs.suite));
  out.push_back('|');
  AppendDecimal(out, obs.kex_group);
  out.push_back('|');
  AppendDecimal(out, obs.kex_value);
  out.push_back('|');
  AppendDecimal(out, obs.session_id);
  out.push_back('|');
  AppendDecimal(out, obs.stek_id);
  out.push_back('|');
  AppendDecimal(out, obs.ticket_lifetime_hint);
  out.push_back('|');
  AppendDecimal(out, static_cast<std::uint64_t>(obs.failure));
  out.push_back('\n');
}

}  // namespace

int PackObservationFlags(const HandshakeObservation& obs) {
  int flags = 0;
  if (obs.connected) flags |= kConnected;
  if (obs.handshake_ok) flags |= kHandshakeOk;
  if (obs.trusted) flags |= kTrusted;
  if (obs.session_id_set) flags |= kSessionIdSet;
  if (obs.ticket_issued) flags |= kTicketIssued;
  return flags;
}

void UnpackObservationFlags(int flags, HandshakeObservation& obs) {
  obs.connected = flags & kConnected;
  obs.handshake_ok = flags & kHandshakeOk;
  obs.trusted = flags & kTrusted;
  obs.session_id_set = flags & kSessionIdSet;
  obs.ticket_issued = flags & kTicketIssued;
}

void ObservationWriter::Write(int day, const HandshakeObservation& obs) {
  thread_local std::string line;
  line.clear();
  AppendObservationLine(line, day, obs);
  out_ << line;
  ++written_;
}

std::optional<StoredObservation> ObservationReader::Next() {
  std::string line;
  while (std::getline(in_, line)) {
    if (line.empty()) continue;
    StoredObservation out;
    if (ParseLine(line, out)) return out;
    ++corrupt_;
  }
  return std::nullopt;
}

std::string SerializeObservations(
    const std::vector<StoredObservation>& observations) {
  std::ostringstream out;
  ObservationWriter writer(out);
  for (const auto& stored : observations) {
    writer.Write(stored.day, stored.observation);
  }
  return out.str();
}

std::vector<StoredObservation> ParseObservations(const std::string& data) {
  return ParseObservations(data, nullptr);
}

std::vector<StoredObservation> ParseObservations(const std::string& data,
                                                 std::size_t* corrupt) {
  std::istringstream in(data);
  ObservationReader reader(in);
  std::vector<StoredObservation> out;
  while (auto next = reader.Next()) out.push_back(*next);
  if (corrupt != nullptr) *corrupt = reader.Corrupt();
  return out;
}

}  // namespace tlsharm::scanner
