#include "attack/capture.h"

namespace tlsharm::attack {

const char* ToString(CaptureParseFail fail) {
  switch (fail) {
    case CaptureParseFail::kNone:
      return "none";
    case CaptureParseFail::kEmptyLog:
      return "empty_log";
    case CaptureParseFail::kBadFraming:
      return "bad_framing";
    case CaptureParseFail::kBadClientHello:
      return "bad_client_hello";
    case CaptureParseFail::kBadServerHello:
      return "bad_server_hello";
    case CaptureParseFail::kBadServerKex:
      return "bad_server_kex";
    case CaptureParseFail::kBadClientKex:
      return "bad_client_kex";
    case CaptureParseFail::kBadTicket:
      return "bad_ticket";
    case CaptureParseFail::kUnknownMessage:
      return "unknown_message";
    case CaptureParseFail::kIncomplete:
      return "incomplete";
  }
  return "unknown";
}

namespace {

// Marks the capture invalid with a reason. Returning `out` through this
// helper keeps every bail-out path from forgetting the taxonomy bit.
ParsedCapture Fail(ParsedCapture out, CaptureParseFail why) {
  out.valid = false;
  out.parse_fail = why;
  return out;
}

}  // namespace

ParsedCapture ParseCapture(const std::vector<CapturedExchange>& log) {
  std::size_t records_begin = 0;
  ParsedCapture out = ParseCaptureHandshake(log, &records_begin);
  for (std::size_t i = records_begin; i < log.size(); ++i) {
    (log[i].from_client ? out.client_records : out.server_records)
        .push_back(log[i].bytes);
  }
  return out;
}

ParsedCapture ParseCaptureHandshake(const std::vector<CapturedExchange>& log,
                                    std::size_t* records_begin) {
  ParsedCapture out;
  *records_begin = log.size();
  if (log.empty()) return Fail(std::move(out), CaptureParseFail::kEmptyLog);
  bool client_finished = false;
  bool server_finished = false;
  bool saw_client_hello = false;
  bool saw_server_hello = false;
  bool saw_certificate = false;

  for (std::size_t i = 0; i < log.size(); ++i) {
    const CapturedExchange& exchange = log[i];
    if (client_finished && server_finished) {
      *records_begin = i;
      break;
    }
    const auto msgs = tls::ParseFlight(exchange.bytes);
    if (!msgs) {
      // Malformed mid-handshake: the flight's length framing is broken, so
      // nothing after this point can be trusted.
      return Fail(std::move(out), CaptureParseFail::kBadFraming);
    }
    for (const tls::HandshakeMessage& msg : *msgs) {
      switch (msg.type) {
        case tls::HandshakeType::kClientHello: {
          auto ch = tls::ClientHello::Parse(msg.body);
          if (!ch) {
            return Fail(std::move(out), CaptureParseFail::kBadClientHello);
          }
          out.client_hello = *std::move(ch);
          saw_client_hello = true;
          break;
        }
        case tls::HandshakeType::kServerHello: {
          auto sh = tls::ServerHello::Parse(msg.body);
          if (!sh) {
            return Fail(std::move(out), CaptureParseFail::kBadServerHello);
          }
          out.server_hello = *std::move(sh);
          saw_server_hello = true;
          break;
        }
        case tls::HandshakeType::kCertificate:
          saw_certificate = true;
          break;
        case tls::HandshakeType::kServerKeyExchange: {
          auto ske = tls::ServerKeyExchange::Parse(msg.body);
          if (!ske) {
            return Fail(std::move(out), CaptureParseFail::kBadServerKex);
          }
          out.server_kex = std::move(ske);
          break;
        }
        case tls::HandshakeType::kServerHelloDone:
          break;
        case tls::HandshakeType::kClientKeyExchange: {
          auto cke = tls::ClientKeyExchange::Parse(msg.body);
          if (!cke) {
            return Fail(std::move(out), CaptureParseFail::kBadClientKex);
          }
          out.client_kex = std::move(cke);
          break;
        }
        case tls::HandshakeType::kNewSessionTicket: {
          auto nst = tls::NewSessionTicket::Parse(msg.body);
          if (!nst) {
            return Fail(std::move(out), CaptureParseFail::kBadTicket);
          }
          out.new_session_ticket = std::move(nst);
          break;
        }
        case tls::HandshakeType::kFinished:
          (exchange.from_client ? client_finished : server_finished) = true;
          break;
        default:
          // A type byte no TLS 1.2 handshake uses: a bit flip landed on the
          // message header. Refusing the whole capture beats misparsing.
          return Fail(std::move(out), CaptureParseFail::kUnknownMessage);
      }
    }
  }
  out.abbreviated = !saw_certificate;
  out.valid = saw_client_hello && saw_server_hello && client_finished &&
              server_finished;
  out.parse_fail =
      out.valid ? CaptureParseFail::kNone : CaptureParseFail::kIncomplete;
  return out;
}

}  // namespace tlsharm::attack
