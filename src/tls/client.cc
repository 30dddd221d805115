#include "tls/client.h"

#include "crypto/kex.h"
#include "crypto/prf.h"

namespace tlsharm::tls {
namespace {

HandshakeResult Fail(
    std::string error,
    HandshakeErrorClass error_class = HandshakeErrorClass::kMalformed) {
  HandshakeResult r;
  r.error = std::move(error);
  r.error_class = error_class;
  return r;
}

// A failed ServerConnection is a reset/timeout only when it reports the
// canonical transport details; everything else is a deliberate abort.
HandshakeErrorClass ClassifyTransport(std::string_view detail) {
  if (detail == kResetErrorDetail) return HandshakeErrorClass::kReset;
  if (detail == kTimeoutErrorDetail) return HandshakeErrorClass::kTimeout;
  return HandshakeErrorClass::kAlert;
}

}  // namespace

HandshakeResult TlsClient::Handshake(ServerConnection& conn, SimTime now,
                                     crypto::Drbg& drbg) {
  HandshakeResult result;
  Transcript transcript;

  // --- ClientHello -------------------------------------------------------
  ClientHello ch;
  ch.random = drbg.Generate(kRandomSize);
  ch.session_id = config_->resume_session_id;
  ch.cipher_suites.reserve(config_->offered_suites.size());
  for (CipherSuite s : config_->offered_suites) {
    ch.cipher_suites.push_back(static_cast<std::uint16_t>(s));
  }
  ch.server_name = config_->server_name;
  ch.offer_session_ticket = config_->offer_session_ticket;
  ch.session_ticket = config_->resume_ticket;
  result.client_random = ch.random;

  const Bytes ch_body = ch.Serialize();
  transcript.Add(HandshakeType::kClientHello, ch_body);
  Bytes flight1;
  AppendHandshake(flight1, HandshakeType::kClientHello, ch_body);

  const Bytes response = conn.OnClientFlight(flight1);
  if (conn.Failed()) {
    return Fail("server aborted: " + std::string(conn.ErrorDetail()),
                ClassifyTransport(conn.ErrorDetail()));
  }
  if (response.empty()) return Fail("empty server flight");
  const auto msgs = ParseFlight(response);
  if (!msgs || msgs->empty()) return Fail("malformed server flight");

  // --- ServerHello -------------------------------------------------------
  std::size_t idx = 0;
  if ((*msgs)[idx].type != HandshakeType::kServerHello) {
    return Fail("expected ServerHello");
  }
  const auto sh = ServerHello::Parse((*msgs)[idx].body);
  if (!sh) return Fail("bad ServerHello");
  if (sh->version != kVersionTls12) return Fail("version mismatch");
  bool offered = false;
  for (CipherSuite s : config_->offered_suites) {
    offered |= static_cast<std::uint16_t>(s) == sh->cipher_suite;
  }
  if (!offered || !IsKnownCipherSuite(sh->cipher_suite)) {
    return Fail("server chose unoffered suite");
  }
  transcript.Add(HandshakeType::kServerHello, (*msgs)[idx].body);
  ++idx;
  result.suite = static_cast<CipherSuite>(sh->cipher_suite);
  result.server_random = sh->random;
  result.session_id = sh->session_id;

  // Abbreviated handshakes never carry a Certificate.
  const bool full_handshake =
      idx < msgs->size() && (*msgs)[idx].type == HandshakeType::kCertificate;

  if (!full_handshake) {
    // --- Abbreviated (resumption) ---------------------------------------
    if (config_->resume_master_secret.empty()) {
      return Fail("server resumed but client has no session state");
    }
    result.resumed = true;
    result.master_secret = config_->resume_master_secret;

    // Optional reissued NewSessionTicket precedes the server Finished.
    if (idx < msgs->size() &&
        (*msgs)[idx].type == HandshakeType::kNewSessionTicket) {
      const auto nst = NewSessionTicket::Parse((*msgs)[idx].body);
      if (!nst) return Fail("bad NewSessionTicket");
      transcript.Add(HandshakeType::kNewSessionTicket, (*msgs)[idx].body);
      ++idx;
      result.ticket_issued = true;
      result.ticket_lifetime_hint = nst->lifetime_hint_seconds;
      result.ticket = nst->ticket;
    }
    if (idx >= msgs->size() ||
        (*msgs)[idx].type != HandshakeType::kFinished) {
      return Fail("expected server Finished");
    }
    const Bytes expected_verify = crypto::ComputeVerifyData(
        result.master_secret, "server finished", transcript.CurrentHash());
    const auto fin = Finished::Parse((*msgs)[idx].body);
    if (!fin || !ConstantTimeEqual(fin->verify_data, expected_verify)) {
      return Fail("server Finished verification failed");
    }
    transcript.Add(HandshakeType::kFinished, (*msgs)[idx].body);
    ++idx;
    if (idx != msgs->size()) return Fail("unexpected trailing messages");

    // Classify the resumption mechanism. When the client offered both, the
    // server echoing the offered session ID is ambiguous (RFC 5077 servers
    // echo it on ticket acceptance too); a reissued NewSessionTicket in the
    // abbreviated flight is the reliable ticket-resumption signal.
    const bool id_echoed = !config_->resume_session_id.empty() &&
                           sh->session_id == config_->resume_session_id;
    result.resumed_via_ticket =
        !config_->resume_ticket.empty() && (!id_echoed || result.ticket_issued);

    result.keys = DeriveSessionKeys(result.master_secret,
                                    result.client_random,
                                    result.server_random);

    // Client Finished closes the handshake.
    const Bytes client_verify = crypto::ComputeVerifyData(
        result.master_secret, "client finished", transcript.CurrentHash());
    Bytes flight2;
    AppendHandshake(flight2, HandshakeType::kFinished, client_verify);
    const Bytes final_response = conn.OnClientFlight(flight2);
    if (conn.Failed()) {
      return Fail("server rejected client Finished: " +
                      std::string(conn.ErrorDetail()),
                  ClassifyTransport(conn.ErrorDetail()));
    }
    if (!final_response.empty()) return Fail("unexpected data after Finished");
    result.ok = true;
    return result;
  }

  // --- Full handshake ----------------------------------------------------
  const auto cert_msg = CertificateMsg::Parse((*msgs)[idx].body);
  if (!cert_msg || cert_msg->chain.empty()) return Fail("bad Certificate");
  transcript.Add(HandshakeType::kCertificate, (*msgs)[idx].body);
  ++idx;
  result.chain = cert_msg->chain;
  if (config_->root_store != nullptr) {
    result.chain_status = config_->root_store->Verify(
        result.chain, config_->server_name, now);
    result.chain_trusted = result.chain_status == pki::VerifyStatus::kOk;
    if (config_->require_trusted && !result.chain_trusted) {
      return Fail(std::string("untrusted chain: ") +
                  pki::ToString(result.chain_status));
    }
  }
  const pki::Certificate& leaf = result.chain.front();
  const crypto::SchnorrScheme& scheme = pki::GetScheme(leaf.data.scheme);

  Bytes premaster;
  Bytes cke_public;
  const bool probe_only = config_->kex_probe_only;
  if (IsForwardSecret(result.suite)) {
    if (idx >= msgs->size() ||
        (*msgs)[idx].type != HandshakeType::kServerKeyExchange) {
      return Fail("expected ServerKeyExchange");
    }
    const auto ske = ServerKeyExchange::Parse((*msgs)[idx].body);
    if (!ske) return Fail("bad ServerKeyExchange");
    if (!crypto::IsKnownGroup(ske->group)) return Fail("unknown group");
    const auto& group =
        crypto::GetKexGroup(static_cast<crypto::NamedGroup>(ske->group));
    // The group family must match the negotiated suite.
    const bool want_ec = result.suite == CipherSuite::kEcdheWithAes128CbcSha256;
    if (want_ec != (group.Kind() == crypto::KexKind::kEcdhe)) {
      return Fail("group/suite family mismatch");
    }
    // Verify the signature over randoms || params with the leaf key.
    const Bytes signed_blob = Concat(
        {result.client_random, result.server_random, ske->SignedParams()});
    const auto sig = scheme.ParseSignature(ske->signature);
    if (!sig || !scheme.Verify(leaf.data.public_key, signed_blob, *sig)) {
      return Fail("ServerKeyExchange signature invalid");
    }
    transcript.Add(HandshakeType::kServerKeyExchange, (*msgs)[idx].body);
    ++idx;
    result.kex_group = ske->group;
    result.server_kex_public = ske->public_value;

    if (!probe_only) {
      const crypto::KexKeyPair client_kex = group.GenerateKeyPair(drbg);
      const auto shared =
          group.SharedSecret(client_kex.private_key, ske->public_value);
      if (!shared) return Fail("degenerate server key-exchange value");
      premaster = *shared;
      cke_public = client_kex.public_value;
    }
  } else if (!probe_only) {
    // Static suite: DH against the certificate key.
    const Bytes scalar = scheme.GenerateDhScalar(drbg);
    const auto shared = scheme.DhShared(scalar, leaf.data.public_key);
    if (!shared) return Fail("bad certificate key for static exchange");
    premaster = *shared;
    cke_public = scheme.DhPublic(scalar);
  }

  if (idx >= msgs->size() ||
      (*msgs)[idx].type != HandshakeType::kServerHelloDone) {
    return Fail("expected ServerHelloDone");
  }
  transcript.Add(HandshakeType::kServerHelloDone, (*msgs)[idx].body);
  ++idx;
  if (idx != msgs->size()) return Fail("unexpected trailing messages");

  if (probe_only) {
    // The scanner has its observables; abandon the connection here.
    result.kex_probe_aborted = true;
    result.ok = true;
    return result;
  }

  result.master_secret = crypto::DeriveMasterSecret(
      premaster, result.client_random, result.server_random);
  result.keys = DeriveSessionKeys(result.master_secret, result.client_random,
                                  result.server_random);

  // --- Client flight 2: ClientKeyExchange + Finished ----------------------
  ClientKeyExchange cke;
  cke.public_value = cke_public;
  const Bytes cke_body = cke.Serialize();
  transcript.Add(HandshakeType::kClientKeyExchange, cke_body);
  const Bytes client_verify = crypto::ComputeVerifyData(
      result.master_secret, "client finished", transcript.CurrentHash());
  transcript.Add(HandshakeType::kFinished, client_verify);

  Bytes flight2;
  AppendHandshake(flight2, HandshakeType::kClientKeyExchange, cke_body);
  AppendHandshake(flight2, HandshakeType::kFinished, client_verify);
  const Bytes response2 = conn.OnClientFlight(flight2);
  if (conn.Failed()) {
    return Fail("server aborted after key exchange: " +
                    std::string(conn.ErrorDetail()),
                ClassifyTransport(conn.ErrorDetail()));
  }
  if (response2.empty()) return Fail("empty server flight 2");
  const auto msgs2 = ParseFlight(response2);
  if (!msgs2 || msgs2->empty()) return Fail("malformed server flight 2");

  std::size_t j = 0;
  if ((*msgs2)[j].type == HandshakeType::kNewSessionTicket) {
    const auto nst = NewSessionTicket::Parse((*msgs2)[j].body);
    if (!nst) return Fail("bad NewSessionTicket");
    transcript.Add(HandshakeType::kNewSessionTicket, (*msgs2)[j].body);
    ++j;
    result.ticket_issued = true;
    result.ticket_lifetime_hint = nst->lifetime_hint_seconds;
    result.ticket = nst->ticket;
  }
  if (j >= msgs2->size() || (*msgs2)[j].type != HandshakeType::kFinished) {
    return Fail("expected server Finished");
  }
  const Bytes expected_verify = crypto::ComputeVerifyData(
      result.master_secret, "server finished", transcript.CurrentHash());
  const auto fin = Finished::Parse((*msgs2)[j].body);
  if (!fin || !ConstantTimeEqual(fin->verify_data, expected_verify)) {
    return Fail("server Finished verification failed");
  }
  ++j;
  if (j != msgs2->size()) return Fail("unexpected trailing messages");

  result.ok = true;
  return result;
}

std::optional<Bytes> TlsClient::Roundtrip(ServerConnection& conn,
                                          const HandshakeResult& hs,
                                          RecordChannel& channel,
                                          ByteView request,
                                          crypto::Drbg& drbg) {
  if (!hs.ok) return std::nullopt;
  const Bytes record = channel.Send(request, drbg);
  const Bytes response = conn.OnApplicationRecord(record);
  if (conn.Failed() || response.empty()) return std::nullopt;
  return channel.Receive(response);
}

}  // namespace tlsharm::tls
