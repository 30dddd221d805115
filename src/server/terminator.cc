#include "server/terminator.h"

#include <optional>

#include "crypto/prf.h"
#include "crypto/tuning.h"
#include "tls/keys.h"
#include "tls/messages.h"
#include "tls/record.h"

namespace tlsharm::server {

// One in-flight server connection. Owns no secret state: everything long-
// lived (cache, STEKs, KEX values) belongs to the terminator.
class TerminatorConnection final : public tls::ServerConnection {
 public:
  TerminatorConnection(SslTerminator& server, SimTime now,
                       std::shared_ptr<SslTerminator> pin = nullptr)
      : server_(server), now_(now), pin_(std::move(pin)) {}

  // The connection's private randomness stream, derived once the
  // ClientHello is known: a pure function of (terminator identity, time,
  // client random), so a replayed probe reproduces the handshake
  // byte-for-byte no matter how many other connections run concurrently.
  crypto::Drbg& Rand() { return *drbg_; }

  Bytes OnClientFlight(ByteView flight) override;
  Bytes OnApplicationRecord(ByteView record) override;

  bool Failed() const override { return state_ == State::kFailed; }
  std::string_view ErrorDetail() const override { return error_; }

 private:
  enum class State {
    kAwaitClientHello,
    kAwaitClientKex,
    kAwaitFinished,
    kEstablished,
    kFailed,
  };

  Bytes Abort(std::string_view error) {
    state_ = State::kFailed;
    error_ = std::string(error);
    return {};
  }

  Bytes HandleClientHello(const tls::HandshakeMessage& msg);
  Bytes HandleClientKexFlight(const std::vector<tls::HandshakeMessage>& msgs);
  Bytes HandleClientFinished(const tls::HandshakeMessage& msg);

  // Builds the abbreviated server flight for an accepted resumption.
  Bytes AcceptResumption(const tls::ClientHello& ch, std::uint16_t suite,
                         const Bytes& master_secret, bool via_ticket);

  tls::NewSessionTicket IssueTicket(std::uint16_t suite,
                                    const Bytes& master_secret);

  SslTerminator& server_;
  SimTime now_;
  // Keeps an evictable terminator alive for the connection's lifetime
  // (lazy fleets); null when the owner guarantees the reference outlives
  // the connection.
  std::shared_ptr<SslTerminator> pin_;
  std::optional<crypto::Drbg> drbg_;  // set in HandleClientHello
  State state_ = State::kAwaitClientHello;
  std::string error_;

  tls::Transcript transcript_;
  std::uint16_t suite_ = 0;
  Bytes client_random_;
  Bytes server_random_;
  Bytes session_id_;       // id sent in ServerHello
  bool cache_session_ = false;
  bool issue_ticket_ = false;
  Bytes server_kex_private_;
  crypto::NamedGroup kex_group_{};
  const Credential* credential_ = nullptr;
  Bytes master_secret_;
  tls::SessionKeys keys_;
  Bytes expected_client_verify_;
  std::uint64_t app_recv_seq_ = 0;
  std::uint64_t app_send_seq_ = 0;
};

Bytes TerminatorConnection::OnClientFlight(ByteView flight) {
  const auto msgs = tls::ParseFlight(flight);
  if (!msgs || msgs->empty()) return Abort("malformed flight");
  switch (state_) {
    case State::kAwaitClientHello:
      if (msgs->size() != 1 ||
          (*msgs)[0].type != tls::HandshakeType::kClientHello) {
        return Abort("expected ClientHello");
      }
      return HandleClientHello((*msgs)[0]);
    case State::kAwaitClientKex:
      return HandleClientKexFlight(*msgs);
    case State::kAwaitFinished:
      if (msgs->size() != 1 ||
          (*msgs)[0].type != tls::HandshakeType::kFinished) {
        return Abort("expected Finished");
      }
      return HandleClientFinished((*msgs)[0]);
    case State::kEstablished:
      return Abort("handshake already complete");
    case State::kFailed:
      return {};
  }
  return Abort("bad state");
}

tls::NewSessionTicket TerminatorConnection::IssueTicket(
    std::uint16_t suite, const Bytes& master_secret) {
  const tls::TicketCodec& codec =
      tls::GetTicketCodec(server_.stek_manager_->Codec());
  tls::TicketState state;
  state.cipher_suite = suite;
  state.master_secret = master_secret;
  state.issue_time = now_;
  tls::NewSessionTicket nst;
  nst.lifetime_hint_seconds = server_.config_.tickets.lifetime_hint_seconds;
  nst.ticket = codec.Seal(server_.stek_manager_->IssuingStek(now_), state,
                          Rand());
  return nst;
}

Bytes TerminatorConnection::AcceptResumption(const tls::ClientHello& ch,
                                             std::uint16_t suite,
                                             const Bytes& master_secret,
                                             bool via_ticket) {
  suite_ = suite;
  master_secret_ = master_secret;

  tls::ServerHello sh;
  sh.random = server_random_ = Rand().Generate(tls::kRandomSize);
  sh.session_id = ch.session_id;  // echo = resumption accepted
  sh.cipher_suite = suite;
  const bool reissue = via_ticket &&
                       server_.config_.tickets.reissue_on_resumption &&
                       ch.offer_session_ticket;
  sh.session_ticket_ack = reissue;
  session_id_ = sh.session_id;

  Bytes flight;
  const Bytes sh_body = sh.Serialize();
  transcript_.Add(tls::HandshakeType::kServerHello, sh_body);
  tls::AppendHandshake(flight, tls::HandshakeType::kServerHello, sh_body);

  if (reissue) {
    const tls::NewSessionTicket nst = IssueTicket(suite, master_secret);
    const Bytes nst_body = nst.Serialize();
    transcript_.Add(tls::HandshakeType::kNewSessionTicket, nst_body);
    tls::AppendHandshake(flight, tls::HandshakeType::kNewSessionTicket,
                         nst_body);
  }

  const Bytes server_verify = crypto::ComputeVerifyData(
      master_secret_, "server finished", transcript_.CurrentHash());
  transcript_.Add(tls::HandshakeType::kFinished, server_verify);
  tls::AppendHandshake(flight, tls::HandshakeType::kFinished, server_verify);

  keys_ = tls::DeriveSessionKeys(master_secret_, client_random_,
                                 server_random_);
  expected_client_verify_ = crypto::ComputeVerifyData(
      master_secret_, "client finished", transcript_.CurrentHash());
  state_ = State::kAwaitFinished;
  return flight;
}

Bytes TerminatorConnection::HandleClientHello(
    const tls::HandshakeMessage& msg) {
  const auto ch = tls::ClientHello::Parse(msg.body);
  if (!ch) return Abort("bad ClientHello");
  if (ch->version != tls::kVersionTls12) return Abort("protocol version");
  transcript_.Add(tls::HandshakeType::kClientHello, msg.body);
  client_random_ = ch->random;
  {
    Bytes material;
    material.reserve(server_.id_.size() + 16 + client_random_.size());
    material.assign(server_.id_.begin(), server_.id_.end());
    AppendUint(material, server_.seed_, 8);
    AppendUint(material, static_cast<std::uint64_t>(now_), 8);
    Append(material, client_random_);
    drbg_.emplace(material);
  }

  auto client_offered = [&ch](std::uint16_t suite) {
    for (std::uint16_t s : ch->cipher_suites) {
      if (s == suite) return true;
    }
    return false;
  };

  const ServerConfig& cfg = server_.config_;

  // --- Session-ID resumption attempt --------------------------------------
  if (cfg.session_cache.enabled && !ch->session_id.empty()) {
    const auto cached =
        server_.session_cache_->Lookup(ch->session_id, now_);
    if (cached && client_offered(cached->cipher_suite)) {
      return AcceptResumption(*ch, cached->cipher_suite,
                              cached->master_secret, /*via_ticket=*/false);
    }
  }

  // --- Ticket resumption attempt ------------------------------------------
  if (cfg.tickets.enabled && !ch->session_ticket.empty()) {
    const tls::TicketCodec& codec =
        tls::GetTicketCodec(server_.stek_manager_->Codec());
    for (const tls::Stek* stek :
         server_.stek_manager_->AcceptableSteks(now_)) {
      const auto state = codec.Open(*stek, ch->session_ticket);
      if (!state) continue;
      const bool fresh =
          state->issue_time + cfg.tickets.acceptance_window > now_;
      if (fresh && client_offered(state->cipher_suite)) {
        return AcceptResumption(*ch, state->cipher_suite,
                                state->master_secret, /*via_ticket=*/true);
      }
      break;  // ticket was ours but stale/unsuitable: full handshake
    }
  }

  // --- Full handshake ------------------------------------------------------
  std::uint16_t suite = 0;
  for (tls::CipherSuite s : cfg.suite_preference) {
    if (client_offered(static_cast<std::uint16_t>(s))) {
      suite = static_cast<std::uint16_t>(s);
      break;
    }
  }
  if (suite == 0) return Abort("no shared cipher suite");
  suite_ = suite;

  credential_ = &server_.CredentialForSni(ch->server_name);
  if (credential_ == nullptr) return Abort("no credential");

  tls::ServerHello sh;
  sh.random = server_random_ = Rand().Generate(tls::kRandomSize);
  cache_session_ = cfg.session_cache.enabled;
  if (cfg.session_cache.enabled || cfg.session_cache.issue_id_without_cache) {
    sh.session_id = Rand().Generate(tls::kMaxSessionIdSize);
  }
  session_id_ = sh.session_id;
  issue_ticket_ = cfg.tickets.enabled && ch->offer_session_ticket;
  sh.cipher_suite = suite;
  sh.session_ticket_ack = issue_ticket_;

  Bytes flight;
  const Bytes sh_body = sh.Serialize();
  transcript_.Add(tls::HandshakeType::kServerHello, sh_body);
  tls::AppendHandshake(flight, tls::HandshakeType::kServerHello, sh_body);

  // The Certificate message depends only on the (static) chain, so the
  // serialization cached by AddCredential is reused across handshakes.
  // Reference mode re-serializes per handshake (the pre-cache behavior).
  Bytes cert_body_storage;
  const Bytes* cert_body = &credential_->cert_msg_body;
  if (cert_body->empty() || crypto::ReferenceCryptoEnabled()) {
    tls::CertificateMsg cert_msg;
    cert_msg.chain = credential_->chain;
    cert_body_storage = cert_msg.Serialize();
    cert_body = &cert_body_storage;
  }
  transcript_.Add(tls::HandshakeType::kCertificate, *cert_body);
  tls::AppendHandshake(flight, tls::HandshakeType::kCertificate, *cert_body);

  if (tls::IsForwardSecret(static_cast<tls::CipherSuite>(suite))) {
    kex_group_ =
        suite == static_cast<std::uint16_t>(
                     tls::CipherSuite::kEcdheWithAes128CbcSha256)
            ? cfg.ecdhe_group
            : cfg.dhe_group;
    const KexReusePolicy& reuse_policy =
        suite == static_cast<std::uint16_t>(
                     tls::CipherSuite::kEcdheWithAes128CbcSha256)
            ? cfg.ecdhe_reuse
            : cfg.dhe_reuse;
    const crypto::KexKeyPair pair = server_.kex_cache_->GetKeyPair(
        kex_group_, reuse_policy, now_, Rand());
    server_kex_private_ = pair.private_key;

    tls::ServerKeyExchange ske;
    ske.group = static_cast<std::uint16_t>(kex_group_);
    ske.public_value = pair.public_value;
    const auto& scheme =
        pki::GetScheme(credential_->chain.front().data.scheme);
    const Bytes signed_blob =
        Concat({client_random_, server_random_, ske.SignedParams()});
    ske.signature = scheme.SerializeSignature(
        scheme.Sign(credential_->private_key, signed_blob, Rand()));
    const Bytes ske_body = ske.Serialize();
    transcript_.Add(tls::HandshakeType::kServerKeyExchange, ske_body);
    tls::AppendHandshake(flight, tls::HandshakeType::kServerKeyExchange,
                         ske_body);
  }

  transcript_.Add(tls::HandshakeType::kServerHelloDone, {});
  tls::AppendHandshake(flight, tls::HandshakeType::kServerHelloDone, {});
  state_ = State::kAwaitClientKex;
  return flight;
}

Bytes TerminatorConnection::HandleClientKexFlight(
    const std::vector<tls::HandshakeMessage>& msgs) {
  if (msgs.size() != 2 ||
      msgs[0].type != tls::HandshakeType::kClientKeyExchange ||
      msgs[1].type != tls::HandshakeType::kFinished) {
    return Abort("expected ClientKeyExchange + Finished");
  }
  const auto cke = tls::ClientKeyExchange::Parse(msgs[0].body);
  if (!cke) return Abort("bad ClientKeyExchange");
  transcript_.Add(tls::HandshakeType::kClientKeyExchange, msgs[0].body);

  Bytes premaster;
  if (tls::IsForwardSecret(static_cast<tls::CipherSuite>(suite_))) {
    const auto& group = crypto::GetKexGroup(kex_group_);
    const auto shared =
        group.SharedSecret(server_kex_private_, cke->public_value);
    if (!shared) return Abort("degenerate client key-exchange value");
    premaster = *shared;
  } else {
    const auto& scheme =
        pki::GetScheme(credential_->chain.front().data.scheme);
    const auto shared =
        scheme.DhShared(credential_->private_key, cke->public_value);
    if (!shared) return Abort("degenerate client key-exchange value");
    premaster = *shared;
  }
  master_secret_ =
      crypto::DeriveMasterSecret(premaster, client_random_, server_random_);
  keys_ = tls::DeriveSessionKeys(master_secret_, client_random_,
                                 server_random_);

  const Bytes expected = crypto::ComputeVerifyData(
      master_secret_, "client finished", transcript_.CurrentHash());
  const auto fin = tls::Finished::Parse(msgs[1].body);
  if (!fin || !ConstantTimeEqual(fin->verify_data, expected)) {
    return Abort("client Finished verification failed");
  }
  transcript_.Add(tls::HandshakeType::kFinished, msgs[1].body);

  // Session becomes resumable state on the server.
  if (cache_session_ && !session_id_.empty()) {
    server_.session_cache_->Insert(
        session_id_,
        CachedSession{.cipher_suite = suite_,
                      .master_secret = master_secret_,
                      .created = now_},
        now_);
  }

  Bytes flight;
  if (issue_ticket_) {
    const tls::NewSessionTicket nst = IssueTicket(suite_, master_secret_);
    const Bytes nst_body = nst.Serialize();
    transcript_.Add(tls::HandshakeType::kNewSessionTicket, nst_body);
    tls::AppendHandshake(flight, tls::HandshakeType::kNewSessionTicket,
                         nst_body);
  }
  const Bytes server_verify = crypto::ComputeVerifyData(
      master_secret_, "server finished", transcript_.CurrentHash());
  tls::AppendHandshake(flight, tls::HandshakeType::kFinished, server_verify);
  state_ = State::kEstablished;
  return flight;
}

Bytes TerminatorConnection::HandleClientFinished(
    const tls::HandshakeMessage& msg) {
  const auto fin = tls::Finished::Parse(msg.body);
  if (!fin || !ConstantTimeEqual(fin->verify_data, expected_client_verify_)) {
    return Abort("client Finished verification failed");
  }
  state_ = State::kEstablished;
  return {};
}

Bytes TerminatorConnection::OnApplicationRecord(ByteView record) {
  if (state_ != State::kEstablished) return Abort("handshake not complete");
  const auto request = tls::UnprotectRecord(
      keys_, tls::Direction::kClientToServer, app_recv_seq_, record);
  if (!request) return Abort("record decryption failed");
  ++app_recv_seq_;
  const Bytes response = tls::ProtectRecord(
      keys_, tls::Direction::kServerToClient, app_send_seq_++,
      ToBytes(server_.response_body_), Rand());
  return response;
}

// ---------------------------------------------------------------------------

SharedSecretState SslTerminator::MakeSharedSecretState(
    const std::string& id, const ServerConfig& config, std::uint64_t seed) {
  Bytes stek_seed = ToBytes(id + "/stek");
  AppendUint(stek_seed, seed, 8);
  Bytes kex_seed = ToBytes(id + "/kex");
  AppendUint(kex_seed, seed, 8);
  SharedSecretState state;
  state.cache = std::make_shared<SessionCache>(config.session_cache.lifetime,
                                               config.session_cache.capacity);
  state.steks = std::make_shared<StekManager>(config.stek,
                                              config.tickets.codec, stek_seed);
  state.kex = std::make_shared<KexCache>(kex_seed);
  return state;
}

SslTerminator::SslTerminator(std::string id, ServerConfig config,
                             std::uint64_t seed)
    : id_(std::move(id)), config_(std::move(config)), seed_(seed) {
  SharedSecretState state = MakeSharedSecretState(id_, config_, seed);
  session_cache_ = std::move(state.cache);
  stek_manager_ = std::move(state.steks);
  kex_cache_ = std::move(state.kex);
}

SslTerminator::SslTerminator(std::string id, ServerConfig config,
                             std::uint64_t seed, SharedSecretState state)
    : id_(std::move(id)),
      config_(std::move(config)),
      seed_(seed),
      session_cache_(std::move(state.cache)),
      stek_manager_(std::move(state.steks)),
      kex_cache_(std::move(state.kex)) {}

std::size_t SslTerminator::AddCredential(Credential credential) {
  if (credential.cert_msg_body.empty()) {
    tls::CertificateMsg cert_msg;
    cert_msg.chain = credential.chain;
    credential.cert_msg_body = cert_msg.Serialize();
  }
  provisioned_bytes_ += credential.cert_msg_body.size() +
                        credential.private_key.size() +
                        credential.chain.size() * 256 + 128;
  credentials_.push_back(std::move(credential));
  return credentials_.size() - 1;
}

void SslTerminator::MapDomain(const std::string& domain, std::size_t index) {
  domain_map_.emplace_back(domain, index);
  domain_index_.emplace(domain, index);
  provisioned_bytes_ += 2 * domain.size() + 128;
}

void SslTerminator::SetSessionCache(std::shared_ptr<SessionCache> cache) {
  session_cache_ = std::move(cache);
}

void SslTerminator::SetStekManager(std::shared_ptr<StekManager> steks) {
  stek_manager_ = std::move(steks);
}

void SslTerminator::SetKexCache(std::shared_ptr<KexCache> kex_cache) {
  kex_cache_ = std::move(kex_cache);
}

const Credential& SslTerminator::CredentialForSni(
    const std::string& sni) const {
  if (!sni.empty()) {
    // Exact SNI match through the hash index (duplicate mappings keep the
    // first insertion, matching the old first-match linear scan).
    const auto it = domain_index_.find(sni);
    if (it != domain_index_.end()) return credentials_[it->second];
    // Fall back to any credential whose chain covers the name.
    for (const auto& credential : credentials_) {
      if (pki::CertificateCoversHost(credential.chain.front(), sni)) {
        return credential;
      }
    }
  }
  return credentials_.front();
}

void SslTerminator::Restart(SimTime now) {
  session_cache_->Clear();
  kex_cache_->Clear();
  stek_manager_->OnProcessRestart(now);
}

std::unique_ptr<tls::ServerConnection> SslTerminator::NewConnection(
    SimTime now) {
  return std::make_unique<TerminatorConnection>(*this, now);
}

std::unique_ptr<tls::ServerConnection> SslTerminator::NewConnection(
    SimTime now, std::shared_ptr<SslTerminator> self) {
  return std::make_unique<TerminatorConnection>(*this, now, std::move(self));
}

Credential MakeCredential(const pki::CertificateAuthority& issuer,
                          const std::vector<std::string>& domains,
                          pki::SignatureScheme scheme, SimTime not_before,
                          SimTime not_after,
                          const pki::CertificateChain& issuer_chain,
                          crypto::Drbg& drbg, std::uint64_t serial) {
  const auto& sig_scheme = pki::GetScheme(scheme);
  const crypto::SchnorrKeyPair key = sig_scheme.GenerateKeyPair(drbg);
  std::vector<std::string> sans(domains.begin() + 1, domains.end());
  const pki::Certificate leaf =
      issuer.IssueLeaf(domains.front(), std::move(sans), key.public_key,
                       not_before, not_after, drbg, serial);
  Credential credential;
  credential.chain.push_back(leaf);
  for (const auto& cert : issuer_chain) credential.chain.push_back(cert);
  credential.private_key = key.private_key;
  return credential;
}

}  // namespace tlsharm::server
