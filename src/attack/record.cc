#include "attack/record.h"

namespace tlsharm::attack {

CaptureRecord SummarizeCapture(std::uint32_t domain, SimTime time,
                               std::uint32_t endpoint,
                               const std::vector<CapturedExchange>& log) {
  CaptureRecord out;
  out.domain = domain;
  out.time = time;
  out.endpoint = endpoint;
  for (const CapturedExchange& exchange : log) {
    out.wire_bytes += exchange.bytes.size();
  }

  // The application records are counted and sized where they lie in the
  // log, and the parsed fields move into the record: nothing is copied.
  std::size_t records_begin = 0;
  ParsedCapture parsed = ParseCaptureHandshake(log, &records_begin);
  out.valid = parsed.valid;
  out.parse_fail = parsed.parse_fail;
  if (!parsed.valid) return out;

  out.abbreviated = parsed.abbreviated;
  out.suite = parsed.server_hello.cipher_suite;
  out.client_random = std::move(parsed.client_hello.random);
  out.server_random = std::move(parsed.server_hello.random);
  out.session_id = std::move(parsed.server_hello.session_id);
  // RelevantTicket(), moved instead of copied.
  if (!parsed.client_hello.session_ticket.empty()) {
    out.ticket = std::move(parsed.client_hello.session_ticket);
  } else if (parsed.new_session_ticket) {
    out.ticket = std::move(parsed.new_session_ticket->ticket);
  }
  if (parsed.new_session_ticket) {
    out.ticket_lifetime_hint = parsed.new_session_ticket->lifetime_hint_seconds;
  }
  if (parsed.server_kex) {
    out.kex_group = static_cast<std::uint16_t>(parsed.server_kex->group);
    out.server_kex = std::move(parsed.server_kex->public_value);
  }
  if (parsed.client_kex) {
    out.client_kex = std::move(parsed.client_kex->public_value);
  }

  for (std::size_t i = records_begin; i < log.size(); ++i) {
    const CapturedExchange& record = log[i];
    if (record.from_client) {
      ++out.client_records;
      out.client_record_bytes += record.bytes.size();
    } else {
      ++out.server_records;
      out.server_record_bytes += record.bytes.size();
    }
  }
  return out;
}

ParsedCapture ReconstructCapture(const CaptureRecord& record) {
  ParsedCapture out;
  out.valid = record.valid;
  out.parse_fail = record.parse_fail;
  if (!record.valid) return out;
  out.abbreviated = record.abbreviated;
  out.client_hello.random = record.client_random;
  // The record keeps only the relevant ticket; presenting it in the
  // ClientHello slot makes RelevantTicket() find it either way.
  out.client_hello.session_ticket = record.ticket;
  out.server_hello.random = record.server_random;
  out.server_hello.session_id = record.session_id;
  out.server_hello.cipher_suite = record.suite;
  if (!record.server_kex.empty()) {
    tls::ServerKeyExchange ske;
    ske.group = record.kex_group;
    ske.public_value = record.server_kex;
    out.server_kex = ske;
  }
  if (!record.client_kex.empty()) {
    tls::ClientKeyExchange cke;
    cke.public_value = record.client_kex;
    out.client_kex = cke;
  }
  return out;
}

}  // namespace tlsharm::attack
