// Handshake message structures and their wire codecs.
//
// A "flight" is a concatenation of handshake messages, each framed as
// type(1) || length(3) || body, matching RFC 5246's handshake framing. The
// in-memory transport carries flights as byte strings so both serialization
// directions are exercised on every connection, and so passive captures
// (the attack module) can parse exactly what went over the wire.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "pki/certificate.h"
#include "tls/constants.h"
#include "util/bytes.h"

namespace tlsharm::tls {

struct ClientHello {
  std::uint16_t version = kVersionTls12;
  Bytes random;            // 32 bytes
  Bytes session_id;        // 0..32 bytes; non-empty offers ID resumption
  std::vector<std::uint16_t> cipher_suites;
  std::string server_name;              // SNI; empty = extension absent
  bool offer_session_ticket = false;    // include the session-ticket ext
  Bytes session_ticket;                 // non-empty = offer resumption

  Bytes Serialize() const;
  static std::optional<ClientHello> Parse(ByteView body);
};

struct ServerHello {
  std::uint16_t version = kVersionTls12;
  Bytes random;       // 32 bytes
  Bytes session_id;   // echo of client's = resumption accepted
  std::uint16_t cipher_suite = 0;
  bool session_ticket_ack = false;  // server will send NewSessionTicket

  Bytes Serialize() const;
  static std::optional<ServerHello> Parse(ByteView body);
};

struct CertificateMsg {
  pki::CertificateChain chain;

  Bytes Serialize() const;
  static std::optional<CertificateMsg> Parse(ByteView body);
};

struct ServerKeyExchange {
  std::uint16_t group = 0;  // NamedGroup
  Bytes public_value;
  Bytes signature;  // over client_random || server_random || params

  // The signed-parameters blob (group || public value), used on both sides.
  Bytes SignedParams() const;

  Bytes Serialize() const;
  static std::optional<ServerKeyExchange> Parse(ByteView body);
};

struct ServerHelloDone {
  Bytes Serialize() const { return {}; }
};

struct ClientKeyExchange {
  Bytes public_value;

  Bytes Serialize() const;
  static std::optional<ClientKeyExchange> Parse(ByteView body);
};

struct NewSessionTicket {
  std::uint32_t lifetime_hint_seconds = 0;
  Bytes ticket;

  Bytes Serialize() const;
  static std::optional<NewSessionTicket> Parse(ByteView body);
};

struct Finished {
  Bytes verify_data;  // 12 bytes

  Bytes Serialize() const { return verify_data; }
  static std::optional<Finished> Parse(ByteView body);
};

// Framed handshake message.
struct HandshakeMessage {
  HandshakeType type;
  Bytes body;
};

// Appends `type || len24 || body` to `flight`.
void AppendHandshake(Bytes& flight, HandshakeType type, ByteView body);

// Splits a flight into framed messages; nullopt on malformed framing.
std::optional<std::vector<HandshakeMessage>> ParseFlight(ByteView flight);

// The running SHA-256 over framed handshake messages that both endpoints
// feed into their Finished messages.
class Transcript {
 public:
  // Hashes the message's 4-byte header, then its body in place.
  void Add(HandshakeType type, ByteView body);
  // The hash of everything added so far; the transcript carries on.
  crypto::Sha256Digest CurrentHash() const;

 private:
  crypto::Sha256 hash_;
};

}  // namespace tlsharm::tls
