#include "attack/capture.h"

#include <gtest/gtest.h>

#include "attack/record.h"
#include "testutil/fixtures.h"

namespace tlsharm::attack {
namespace {

using testutil::ClientFor;
using testutil::MakeTerminator;
using testutil::TestPki;

class CaptureTest : public ::testing::Test {
 protected:
  TestPki pki_;
  crypto::Drbg drbg_{ToBytes("capture client")};
};

TEST_F(CaptureTest, FullHandshakeCaptureParses) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  auto conn = term->NewConnection(100);
  PassiveCapture capture;
  tls::TappedConnection tapped(*conn, capture);
  tls::TlsClient client(ClientFor(pki_, "victim.com"));
  const auto hs = client.Handshake(tapped, 100, drbg_);
  ASSERT_TRUE(hs.ok) << hs.error;

  const ParsedCapture parsed = ParseCapture(capture.Log());
  ASSERT_TRUE(parsed.valid);
  EXPECT_FALSE(parsed.abbreviated);
  EXPECT_EQ(parsed.client_hello.random, hs.client_random);
  EXPECT_EQ(parsed.server_hello.random, hs.server_random);
  ASSERT_TRUE(parsed.server_kex.has_value());
  ASSERT_TRUE(parsed.client_kex.has_value());
  ASSERT_TRUE(parsed.new_session_ticket.has_value());
  EXPECT_EQ(parsed.new_session_ticket->ticket, hs.ticket);
  EXPECT_EQ(parsed.RelevantTicket(), hs.ticket);
}

TEST_F(CaptureTest, ApplicationRecordsAreCaptured) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  auto conn = term->NewConnection(100);
  PassiveCapture capture;
  tls::TappedConnection tapped(*conn, capture);
  tls::TlsClient client(ClientFor(pki_, "victim.com"));
  const auto hs = client.Handshake(tapped, 100, drbg_);
  ASSERT_TRUE(hs.ok);
  tls::RecordChannel channel(hs.keys, tls::Direction::kClientToServer);
  ASSERT_TRUE(tls::TlsClient::Roundtrip(tapped, hs, channel,
                                        ToBytes("GET /secret"), drbg_)
                  .has_value());

  const ParsedCapture parsed = ParseCapture(capture.Log());
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.client_records.size(), 1u);
  EXPECT_EQ(parsed.server_records.size(), 1u);
  // Captured records are ciphertext, not the plaintext request.
  EXPECT_EQ(std::search(parsed.client_records[0].begin(),
                        parsed.client_records[0].end(),
                        ToBytes("GET /secret").begin(),
                        ToBytes("GET /secret").end()),
            parsed.client_records[0].end());
}

TEST_F(CaptureTest, AbbreviatedHandshakeDetected) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  tls::TlsClient first_client(ClientFor(pki_, "victim.com"));
  auto conn1 = term->NewConnection(0);
  const auto first = first_client.Handshake(*conn1, 0, drbg_);
  ASSERT_TRUE(first.ok);

  tls::ClientConfig resume_config = ClientFor(pki_, "victim.com");
  resume_config.resume_ticket = first.ticket;
  resume_config.resume_master_secret = first.master_secret;
  auto conn2 = term->NewConnection(30);
  PassiveCapture capture;
  tls::TappedConnection tapped(*conn2, capture);
  tls::TlsClient second_client(resume_config);
  const auto second = second_client.Handshake(tapped, 30, drbg_);
  ASSERT_TRUE(second.ok);
  ASSERT_TRUE(second.resumed);

  const ParsedCapture parsed = ParseCapture(capture.Log());
  ASSERT_TRUE(parsed.valid);
  EXPECT_TRUE(parsed.abbreviated);
  // The client-presented ticket is the relevant one for STEK attacks.
  EXPECT_EQ(parsed.RelevantTicket(), first.ticket);
  EXPECT_FALSE(parsed.server_kex.has_value());
}

TEST_F(CaptureTest, EmptyLogIsInvalid) {
  const ParsedCapture parsed = ParseCapture({});
  EXPECT_FALSE(parsed.valid);
  EXPECT_EQ(parsed.parse_fail, CaptureParseFail::kEmptyLog);
}

TEST_F(CaptureTest, ValidCaptureReportsNoParseFail) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  auto conn = term->NewConnection(100);
  PassiveCapture capture;
  tls::TappedConnection tapped(*conn, capture);
  tls::TlsClient client(ClientFor(pki_, "victim.com"));
  ASSERT_TRUE(client.Handshake(tapped, 100, drbg_).ok);
  const ParsedCapture parsed = ParseCapture(capture.Log());
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.parse_fail, CaptureParseFail::kNone);
}

// Corpus-style corruption battery: every truncation of every handshake
// flight and a single-bit flip at every bit position must yield either a
// still-valid parse (flips can land in don't-care bytes like the ticket
// blob or a random) or valid=false with a non-kNone taxonomy reason —
// never a crash, never a "valid" capture with parse_fail set.
TEST_F(CaptureTest, CorruptionCorpusClassifiesEveryMutation) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  auto conn = term->NewConnection(100);
  PassiveCapture capture;
  tls::TappedConnection tapped(*conn, capture);
  tls::TlsClient client(ClientFor(pki_, "victim.com"));
  ASSERT_TRUE(client.Handshake(tapped, 100, drbg_).ok);
  const std::vector<CapturedExchange> log = capture.Log();
  ASSERT_GE(log.size(), 2u);

  auto check = [](const ParsedCapture& parsed) {
    if (parsed.valid) {
      EXPECT_EQ(parsed.parse_fail, CaptureParseFail::kNone);
    } else {
      EXPECT_NE(parsed.parse_fail, CaptureParseFail::kNone);
    }
  };

  for (std::size_t e = 0; e < log.size(); ++e) {
    // Every truncation of this exchange's bytes.
    for (std::size_t keep = 0; keep < log[e].bytes.size(); ++keep) {
      std::vector<CapturedExchange> mutated = log;
      mutated[e].bytes.resize(keep);
      if (keep == 0) mutated.erase(mutated.begin() + e);
      check(ParseCapture(mutated));
    }
    // Every single-bit flip.
    for (std::size_t bit = 0; bit < log[e].bytes.size() * 8; ++bit) {
      std::vector<CapturedExchange> mutated = log;
      mutated[e].bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      check(ParseCapture(mutated));
    }
  }
}

// What SummarizeCapture recorded before it stopped copying: every field
// read from the full ParseCapture, records included.
CaptureRecord SummaryFromFullParse(const std::vector<CapturedExchange>& log) {
  CaptureRecord out;
  for (const CapturedExchange& exchange : log) {
    out.wire_bytes += exchange.bytes.size();
  }
  const ParsedCapture parsed = ParseCapture(log);
  out.valid = parsed.valid;
  out.parse_fail = parsed.parse_fail;
  if (!parsed.valid) return out;
  out.abbreviated = parsed.abbreviated;
  out.suite = parsed.server_hello.cipher_suite;
  out.client_random = parsed.client_hello.random;
  out.server_random = parsed.server_hello.random;
  out.session_id = parsed.server_hello.session_id;
  out.ticket = parsed.RelevantTicket();
  if (parsed.new_session_ticket) {
    out.ticket_lifetime_hint = parsed.new_session_ticket->lifetime_hint_seconds;
  }
  if (parsed.server_kex) {
    out.kex_group = static_cast<std::uint16_t>(parsed.server_kex->group);
    out.server_kex = parsed.server_kex->public_value;
  }
  if (parsed.client_kex) out.client_kex = parsed.client_kex->public_value;
  out.client_records = static_cast<std::uint32_t>(parsed.client_records.size());
  out.server_records = static_cast<std::uint32_t>(parsed.server_records.size());
  for (const Bytes& record : parsed.client_records) {
    out.client_record_bytes += record.size();
  }
  for (const Bytes& record : parsed.server_records) {
    out.server_record_bytes += record.size();
  }
  return out;
}

// SummarizeCapture counts the application records in place and moves the
// parsed fields; it must record exactly what the full parse gives, on a
// full and an abbreviated handshake followed by application records, and
// on every truncation and bit flip of them.
TEST_F(CaptureTest, SummaryMatchesTheFullParseOnEveryMutation) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  std::vector<std::vector<CapturedExchange>> logs;
  tls::HandshakeResult full;
  {
    auto conn = term->NewConnection(100);
    PassiveCapture capture;
    tls::TappedConnection tapped(*conn, capture);
    tls::TlsClient client(ClientFor(pki_, "victim.com"));
    full = client.Handshake(tapped, 100, drbg_);
    ASSERT_TRUE(full.ok) << full.error;
    logs.push_back(capture.Log());
  }
  {
    auto conn = term->NewConnection(200);
    PassiveCapture capture;
    tls::TappedConnection tapped(*conn, capture);
    tls::ClientConfig config = ClientFor(pki_, "victim.com");
    config.resume_master_secret = full.master_secret;
    config.resume_ticket = full.ticket;
    tls::TlsClient client(config);
    const auto hs = client.Handshake(tapped, 200, drbg_);
    ASSERT_TRUE(hs.ok && hs.resumed) << hs.error;
    logs.push_back(capture.Log());
  }
  for (std::vector<CapturedExchange>& log : logs) {
    log.push_back({true, Bytes(37, 0x17)});
    log.push_back({false, Bytes(101, 0x17)});
    log.push_back({true, Bytes(5, 0x17)});
  }
  const auto check = [](const std::vector<CapturedExchange>& log) {
    const CaptureRecord want = SummaryFromFullParse(log);
    CaptureRecord got = SummarizeCapture(7, 300, 9, log);
    EXPECT_EQ(got.domain, 7u);
    EXPECT_EQ(got.time, 300);
    EXPECT_EQ(got.endpoint, 9u);
    got.domain = 0;
    got.time = 0;
    got.endpoint = 0;
    EXPECT_EQ(got, want);
  };
  for (const std::vector<CapturedExchange>& log : logs) {
    check(log);
    const CaptureRecord summary = SummarizeCapture(0, 0, 0, log);
    ASSERT_TRUE(summary.valid);
    EXPECT_EQ(summary.client_records, 2u);
    EXPECT_EQ(summary.server_records, 1u);
    EXPECT_EQ(summary.client_record_bytes, 42u);
    EXPECT_EQ(summary.server_record_bytes, 101u);
    for (std::size_t e = 0; e < log.size(); ++e) {
      for (std::size_t keep = 0; keep < log[e].bytes.size(); ++keep) {
        std::vector<CapturedExchange> mutated = log;
        mutated[e].bytes.resize(keep);
        if (keep == 0) mutated.erase(mutated.begin() + e);
        check(mutated);
      }
      for (std::size_t bit = 0; bit < log[e].bytes.size() * 8; bit += 3) {
        std::vector<CapturedExchange> mutated = log;
        mutated[e].bytes[bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        check(mutated);
      }
    }
  }
}

TEST_F(CaptureTest, TruncatedHandshakeIsInvalid) {
  auto term = MakeTerminator(pki_, {"victim.com"}, server::ServerConfig{});
  auto conn = term->NewConnection(100);
  PassiveCapture capture;
  tls::TappedConnection tapped(*conn, capture);
  // Only the ClientHello flight, then stop.
  tls::ClientHello ch;
  ch.random = drbg_.Generate(32);
  ch.cipher_suites = {
      static_cast<std::uint16_t>(tls::CipherSuite::kEcdheWithAes128CbcSha256)};
  Bytes flight;
  tls::AppendHandshake(flight, tls::HandshakeType::kClientHello,
                       ch.Serialize());
  (void)tapped.OnClientFlight(flight);
  EXPECT_FALSE(ParseCapture(capture.Log()).valid);
}

}  // namespace
}  // namespace tlsharm::attack
