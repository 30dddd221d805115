// Passive network capture — the attacker's vantage point (§7.1's
// XKEYSCORE/TEMPORA-style buffer).
//
// PassiveCapture is a WireTap that records every byte a connection
// exchanged. ParseCapture then recovers exactly what a passive observer
// can see in the clear: hello randoms, the session ID, the (encrypted)
// session ticket, the server's key-exchange value, the client's
// key-exchange value, and the protected application records. Nothing here
// uses any endpoint secret.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tls/messages.h"
#include "tls/transport.h"

namespace tlsharm::attack {

struct CapturedExchange {
  bool from_client = false;
  Bytes bytes;
};

class PassiveCapture final : public tls::WireTap {
 public:
  void OnClientBytes(ByteView bytes) override {
    if (!bytes.empty()) {
      log_.push_back({true, Bytes(bytes.begin(), bytes.end())});
    }
  }
  void OnServerBytes(ByteView bytes) override {
    if (!bytes.empty()) {
      log_.push_back({false, Bytes(bytes.begin(), bytes.end())});
    }
  }

  const std::vector<CapturedExchange>& Log() const { return log_; }
  void Clear() { log_.clear(); }

 private:
  std::vector<CapturedExchange> log_;
};

// Why a captured byte stream failed to parse into a complete handshake.
// Fault injection corrupts and truncates flights on the wire, so the
// parser must classify every malformed capture instead of misparsing it.
enum class CaptureParseFail : std::uint8_t {
  kNone = 0,           // parsed cleanly, capture is valid
  kEmptyLog = 1,       // nothing on the wire at all
  kBadFraming = 2,     // a mid-handshake flight failed length framing
  kBadClientHello = 3,
  kBadServerHello = 4,
  kBadServerKex = 5,
  kBadClientKex = 6,
  kBadTicket = 7,
  kUnknownMessage = 8,  // handshake type byte outside the protocol
  kIncomplete = 9,      // framing OK but the handshake never finished
};
inline constexpr int kCaptureParseFailCount = 10;

const char* ToString(CaptureParseFail fail);

// Everything a passive observer can parse out of one connection.
struct ParsedCapture {
  bool valid = false;
  CaptureParseFail parse_fail = CaptureParseFail::kNone;

  tls::ClientHello client_hello;
  tls::ServerHello server_hello;
  bool abbreviated = false;  // no Certificate seen

  std::optional<tls::ServerKeyExchange> server_kex;
  std::optional<tls::ClientKeyExchange> client_kex;
  std::optional<tls::NewSessionTicket> new_session_ticket;

  // Protected application records in arrival order per direction.
  std::vector<Bytes> client_records;
  std::vector<Bytes> server_records;

  // The ticket whose STEK protects this session's master secret: the one
  // the client presented (abbreviated) or the one the server issued.
  Bytes RelevantTicket() const {
    if (!client_hello.session_ticket.empty()) {
      return client_hello.session_ticket;
    }
    if (new_session_ticket) return new_session_ticket->ticket;
    return {};
  }
};

ParsedCapture ParseCapture(const std::vector<CapturedExchange>& log);

// ParseCapture without the protected application records: it stops at the
// exchange where both Finished messages have been seen and sets
// `*records_begin` to that exchange's index (log.size() when the capture
// never gets there). Everything from there on is application records, so a
// caller that needs only their count and size reads them in place.
ParsedCapture ParseCaptureHandshake(const std::vector<CapturedExchange>& log,
                                    std::size_t* records_begin);

}  // namespace tlsharm::attack
