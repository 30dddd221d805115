#include "tls/messages.h"

#include <algorithm>

#include "tls/wire.h"

namespace tlsharm::tls {
namespace {

// Extension framing helpers: type(2) || length(2) || data.
void AppendExtension(Writer& w, ExtensionType type, ByteView data) {
  w.WriteUint(static_cast<std::uint16_t>(type), 2);
  w.WriteVector(data, 2);
}

}  // namespace

Bytes ClientHello::Serialize() const {
  Writer w;
  w.WriteUint(version, 2);
  w.WriteBytes(random);
  w.WriteVector(session_id, 1);
  Writer suites;
  for (std::uint16_t s : cipher_suites) suites.WriteUint(s, 2);
  w.WriteVector(suites.Result(), 2);

  Writer exts;
  if (!server_name.empty()) {
    Writer sni;
    sni.WriteString(server_name, 2);
    AppendExtension(exts, ExtensionType::kServerName, sni.Result());
  }
  if (offer_session_ticket || !session_ticket.empty()) {
    AppendExtension(exts, ExtensionType::kSessionTicket, session_ticket);
  }
  w.WriteVector(exts.Result(), 2);
  return std::move(w).Result();
}

std::optional<ClientHello> ClientHello::Parse(ByteView body) {
  Reader r(body);
  ClientHello ch;
  ch.version = static_cast<std::uint16_t>(r.ReadUint(2));
  ch.random = r.ReadBytes(kRandomSize);
  ch.session_id = r.ReadVector(1);
  if (ch.session_id.size() > kMaxSessionIdSize) return std::nullopt;
  Reader suites = r.ReadSubReader(2);
  ch.cipher_suites.reserve(suites.Remaining() / 2);
  while (!suites.AtEnd()) {
    ch.cipher_suites.push_back(static_cast<std::uint16_t>(suites.ReadUint(2)));
  }
  if (suites.Failed()) return std::nullopt;
  Reader exts = r.ReadSubReader(2);
  while (!exts.AtEnd()) {
    const auto type = static_cast<ExtensionType>(exts.ReadUint(2));
    Bytes data = exts.ReadVector(2);
    if (exts.Failed()) return std::nullopt;
    switch (type) {
      case ExtensionType::kServerName: {
        Reader sni(data);
        ch.server_name = sni.ReadString(2);
        if (sni.Failed()) return std::nullopt;
        break;
      }
      case ExtensionType::kSessionTicket:
        ch.offer_session_ticket = true;
        ch.session_ticket = std::move(data);
        break;
    }
  }
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  return ch;
}

Bytes ServerHello::Serialize() const {
  Writer w;
  w.WriteUint(version, 2);
  w.WriteBytes(random);
  w.WriteVector(session_id, 1);
  w.WriteUint(cipher_suite, 2);
  Writer exts;
  if (session_ticket_ack) {
    AppendExtension(exts, ExtensionType::kSessionTicket, {});
  }
  w.WriteVector(exts.Result(), 2);
  return std::move(w).Result();
}

std::optional<ServerHello> ServerHello::Parse(ByteView body) {
  Reader r(body);
  ServerHello sh;
  sh.version = static_cast<std::uint16_t>(r.ReadUint(2));
  sh.random = r.ReadBytes(kRandomSize);
  sh.session_id = r.ReadVector(1);
  if (sh.session_id.size() > kMaxSessionIdSize) return std::nullopt;
  sh.cipher_suite = static_cast<std::uint16_t>(r.ReadUint(2));
  Reader exts = r.ReadSubReader(2);
  while (!exts.AtEnd()) {
    const auto type = static_cast<ExtensionType>(exts.ReadUint(2));
    const Bytes data = exts.ReadVector(2);
    if (exts.Failed()) return std::nullopt;
    if (type == ExtensionType::kSessionTicket) sh.session_ticket_ack = true;
  }
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  return sh;
}

Bytes CertificateMsg::Serialize() const {
  Writer inner;
  for (const auto& cert : chain) {
    inner.WriteVector(pki::SerializeCertificate(cert), 3);
  }
  Writer w;
  w.WriteVector(inner.Result(), 3);
  return std::move(w).Result();
}

std::optional<CertificateMsg> CertificateMsg::Parse(ByteView body) {
  Reader r(body);
  Reader list = r.ReadSubReader(3);
  CertificateMsg msg;
  while (!list.AtEnd()) {
    const Bytes cert_bytes = list.ReadVector(3);
    if (list.Failed()) return std::nullopt;
    auto cert = pki::ParseCertificate(cert_bytes);
    if (!cert) return std::nullopt;
    msg.chain.push_back(*std::move(cert));
  }
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  return msg;
}

Bytes ServerKeyExchange::SignedParams() const {
  Writer w;
  w.WriteUint(group, 2);
  w.WriteVector(public_value, 2);
  return std::move(w).Result();
}

Bytes ServerKeyExchange::Serialize() const {
  Writer w;
  w.WriteUint(group, 2);
  w.WriteVector(public_value, 2);
  w.WriteVector(signature, 2);
  return std::move(w).Result();
}

std::optional<ServerKeyExchange> ServerKeyExchange::Parse(ByteView body) {
  Reader r(body);
  ServerKeyExchange ske;
  ske.group = static_cast<std::uint16_t>(r.ReadUint(2));
  ske.public_value = r.ReadVector(2);
  ske.signature = r.ReadVector(2);
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  return ske;
}

Bytes ClientKeyExchange::Serialize() const {
  Writer w;
  w.WriteVector(public_value, 2);
  return std::move(w).Result();
}

std::optional<ClientKeyExchange> ClientKeyExchange::Parse(ByteView body) {
  Reader r(body);
  ClientKeyExchange cke;
  cke.public_value = r.ReadVector(2);
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  return cke;
}

Bytes NewSessionTicket::Serialize() const {
  Writer w;
  w.WriteUint(lifetime_hint_seconds, 4);
  w.WriteVector(ticket, 2);
  return std::move(w).Result();
}

std::optional<NewSessionTicket> NewSessionTicket::Parse(ByteView body) {
  Reader r(body);
  NewSessionTicket nst;
  nst.lifetime_hint_seconds = static_cast<std::uint32_t>(r.ReadUint(4));
  nst.ticket = r.ReadVector(2);
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  return nst;
}

std::optional<Finished> Finished::Parse(ByteView body) {
  if (body.size() != kVerifyDataSize) return std::nullopt;
  return Finished{.verify_data = Bytes(body.begin(), body.end())};
}

void AppendHandshake(Bytes& flight, HandshakeType type, ByteView body) {
  const std::size_t need = flight.size() + 4 + body.size();
  if (flight.capacity() < need) {
    flight.reserve(std::max(need, 2 * flight.capacity()));
  }
  AppendUint(flight, static_cast<std::uint64_t>(type), 1);
  AppendUint(flight, body.size(), 3);
  Append(flight, body);
}

void Transcript::Add(HandshakeType type, ByteView body) {
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(type),
      static_cast<std::uint8_t>(body.size() >> 16),
      static_cast<std::uint8_t>(body.size() >> 8),
      static_cast<std::uint8_t>(body.size())};
  hash_.Update(header);
  hash_.Update(body);
}

crypto::Sha256Digest Transcript::CurrentHash() const {
  crypto::Sha256 snapshot = hash_;
  return snapshot.Finish();
}

std::optional<std::vector<HandshakeMessage>> ParseFlight(ByteView flight) {
  std::vector<HandshakeMessage> msgs;
  msgs.reserve(4);  // the longest flight: ServerHello .. ServerHelloDone
  Reader r(flight);
  while (!r.AtEnd()) {
    const auto type = static_cast<HandshakeType>(r.ReadUint(1));
    Bytes body = r.ReadVector(3);
    if (r.Failed()) return std::nullopt;
    msgs.push_back(HandshakeMessage{type, std::move(body)});
  }
  return msgs;
}

}  // namespace tlsharm::tls
