// Structured probe-lifecycle telemetry: one event per connection attempt,
// emitted as JSONL through a pluggable TraceSink.
//
// Determinism contract (matching scan_engine.h): events identify a probe by
// its CANONICAL position — (day, seq) where seq is the probe's index in the
// day's merged observation order — never by the worker shard that happened
// to execute it. Shard identity, thread ids, and wall-clock times are
// execution details that would differ across TLSHARM_THREADS values, so
// they are deliberately unrepresentable in an event; every time field is
// virtual. The sharded engine keeps each probe's attempt log in the slot of
// its canonical index and emits the slots in index order on the merge
// thread, so the JSONL byte stream is identical at any thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/sim_clock.h"

namespace tlsharm::obs {

struct ProbeTraceEvent {
  int day = 0;
  // Canonical index of the probe within its day: main pass probes take
  // 2*target_index (main offer) and 2*target_index + 1 (DHE offer); the
  // requeue pass continues after the main pass in pending order.
  std::uint64_t seq = 0;
  std::string_view pass = "main";  // "main" | "requeue"
  std::string_view kind = "main";  // offered ciphers: "main" | "dhe"
  std::uint32_t domain = 0;
  SimTime scheduled = 0;  // the probe's scheduled virtual time
  int attempt = 1;        // 1-based attempt number within the probe
  SimTime start = 0;      // virtual start of this attempt
  SimTime duration = 0;   // virtual time charged to the attempt
  SimTime backoff = 0;    // wait before the next attempt (0 on the last)
  std::string_view failure = "ok";  // ProbeFailure name for this attempt
  bool final_attempt = true;
  // Resumption outcome: -1 not a resumption probe, 0 rejected, 1 accepted.
  int resumed = -1;
};

// One JSONL line (no trailing newline), fixed key order, virtual times
// only. String fields are JSON-escaped.
std::string FormatTraceEvent(const ProbeTraceEvent& event);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const ProbeTraceEvent& event) = 0;
};

// Writes one JSON object per line to `out`.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}

  void Emit(const ProbeTraceEvent& event) override;
  std::size_t Emitted() const { return emitted_; }

 private:
  std::ostream& out_;
  std::size_t emitted_ = 0;
};

// The TLSHARM_TRACE environment knob: the path a tool should stream its
// JSONL probe trace to, or "" when tracing is off (the default).
std::string TracePathFromEnv();

}  // namespace tlsharm::obs
