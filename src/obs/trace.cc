#include "obs/trace.h"

#include <cstdlib>
#include <ostream>

#include "obs/json.h"

namespace tlsharm::obs {

std::string FormatTraceEvent(const ProbeTraceEvent& event) {
  std::string out;
  out.reserve(160);
  out += "{\"day\":" + std::to_string(event.day);
  out += ",\"seq\":" + std::to_string(event.seq);
  out += ",\"pass\":";
  AppendJsonString(out, event.pass);
  out += ",\"kind\":";
  AppendJsonString(out, event.kind);
  out += ",\"domain\":" + std::to_string(event.domain);
  out += ",\"scheduled\":" + std::to_string(event.scheduled);
  out += ",\"attempt\":" + std::to_string(event.attempt);
  out += ",\"start\":" + std::to_string(event.start);
  out += ",\"dur\":" + std::to_string(event.duration);
  out += ",\"backoff\":" + std::to_string(event.backoff);
  out += ",\"failure\":";
  AppendJsonString(out, event.failure);
  // 0/1 instead of JSON booleans: every trace value stays inside the
  // integer-only subset obs::ParseJson accepts, so tooling can reparse its
  // own output (TelemetryDeterminismTest's schema check relies on this).
  out += ",\"final\":";
  out += event.final_attempt ? '1' : '0';
  if (event.resumed >= 0) {
    out += ",\"resumed\":";
    out += event.resumed > 0 ? '1' : '0';
  }
  out.push_back('}');
  return out;
}

void JsonlTraceSink::Emit(const ProbeTraceEvent& event) {
  out_ << FormatTraceEvent(event) << '\n';
  ++emitted_;
}

std::string TracePathFromEnv() {
  const char* env = std::getenv("TLSHARM_TRACE");
  return env == nullptr ? std::string() : std::string(env);
}

}  // namespace tlsharm::obs
