// The replay engine: folds a capture archive against the compromise model
// and sweeps harm curves — decryptable-traffic fraction as a function of
// the compromise time T — in one pass over the archive per profile/vector.
//
// The engine never touches live secrets. It derives each fleet's secret
// *timeline* from the archive itself: the STEK fingerprint a terminator's
// tickets carried at each capture time, the reused (EC)DHE public value it
// served, and the session-cache liveness window implied by the terminator's
// configured lifetime and restart schedule. A connection is decryptable at
// compromise time T exactly when the secret stolen at T matches the one
// that protected it:
//
//   stek  — the connection's ticket fingerprint equals some fleet
//           terminator's issuing-key fingerprint at T (tickets sealed
//           under the stolen key open forward AND backward in time);
//   dh    — the connection's server KEX value equals the reused value a
//           terminator holds at T (only endpoints whose config reuses the
//           group qualify — a fresh-per-handshake value is never "held");
//   session_cache — the dump at T contains the connection's master secret:
//           capture time <= T < min(capture + lifetime, next restart).
//
// Survivors are classed with attack::DecryptFailureClass so curves report
// WHY traffic survived, not just how much. Candidate T values are the
// archive's distinct capture times; at times where every fleet endpoint
// was captured (the daily main pass), the sweep agrees exactly with a
// ground-truth TakeSnapshot + ReplaySnapshot pass — HarmEngineTest
// cross-checks this for the STEK and DH vectors.
//
// Everything here is deterministic: rows fold in canonical archive order,
// all grouping containers are ordered, and the JSONL rendering is integer
// only — byte-identical at any thread count and identical whether records
// come from the live CaptureBufferSink or a reloaded CaptureTape.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adversary/compromise.h"
#include "attack/record.h"
#include "simnet/internet.h"

namespace tlsharm::adversary {

// One point of a harm curve: the compromise at time `t` against the whole
// archive (past and future connections alike — record now, decrypt later).
struct HarmPoint {
  SimTime t = 0;
  // Denominators: every archived connection of the profile.
  std::uint64_t connections = 0;
  std::uint64_t wire_bytes = 0;
  // What the compromise at `t` opens.
  std::uint64_t decryptable = 0;
  std::uint64_t decryptable_bytes = 0;
  std::uint64_t decryptable_domains = 0;  // distinct domains affected
  SimTime oldest_decrypted = -1;  // earliest decryptable capture; -1 = none
  // Why the rest survived, by failure class (kNone slot stays 0).
  std::array<std::uint64_t, attack::kDecryptFailureClassCount> survivors{};

  bool operator==(const HarmPoint&) const = default;
};

struct HarmCurve {
  std::string profile;  // operator_name
  CompromiseVector vector = CompromiseVector::kStek;
  std::vector<HarmPoint> points;  // ascending t (the candidate times)

  bool operator==(const HarmCurve&) const = default;
};

class HarmEngine {
 public:
  // `net` supplies world metadata only (operator names, ticket codecs,
  // cache configs, restart schedules) — never a secret.
  explicit HarmEngine(const simnet::Internet& net);

  // Folds one archived record. Call in canonical archive order (the order
  // CaptureTape::ForEachCapture and CaptureBufferSink preserve).
  void Ingest(int day, const attack::CaptureRecord& record);

  // Finalizes timelines and candidate times. Call once, after the last
  // Ingest and before any sweep.
  void Seal();

  // Distinct capture times, ascending — the sweep's candidate T values.
  const std::vector<SimTime>& CandidateTimes() const { return times_; }
  std::uint64_t RowCount() const { return static_cast<std::uint64_t>(rows_.size()); }
  // Observed operator profiles, sorted.
  std::vector<std::string> Profiles() const;

  // All curves: profiles sorted, vectors in enum order, points ascending.
  std::vector<HarmCurve> Sweep() const;
  // One curve; unknown profile yields an empty-point curve.
  HarmCurve SweepProfileVector(const std::string& profile,
                               CompromiseVector vector) const;

 private:
  struct EndpointMeta {
    tls::TicketCodecKind codec = tls::TicketCodecKind::kRfc5077;
    bool cacheable = false;  // cache enabled and not the issue-only quirk
    SimTime cache_lifetime = 0;
    simnet::Internet::RestartSchedule restarts;
    bool dhe_reuse = false;
    bool ecdhe_reuse = false;
    std::uint16_t dhe_group = 0;
    std::uint16_t ecdhe_group = 0;
  };

  struct Row {
    std::uint32_t domain = 0;
    SimTime time = 0;
    std::uint32_t endpoint = 0;
    std::uint32_t profile = 0;
    bool valid = false;
    std::uint64_t wire_bytes = 0;
    std::int32_t stek_fp = -1;  // interned ticket fingerprint; -1 = none
    std::int32_t kex_fp = -1;   // interned (group, value); -1 = none
    std::uint16_t kex_group = 0;
    bool kex_reused = false;    // endpoint reuses the row's KEX group
    bool has_session_id = false;
    bool cacheable = false;
    SimTime cache_end = 0;  // entry evicted/flushed at this time
  };

  const EndpointMeta& MetaOf(std::uint32_t endpoint);
  std::uint32_t ProfileOf(std::uint32_t domain);
  std::int32_t Intern(std::map<Bytes, std::int32_t>& table, Bytes key);

  HarmCurve SweepStek(std::uint32_t pid, HarmCurve curve) const;
  HarmCurve SweepDh(std::uint32_t pid, HarmCurve curve) const;
  HarmCurve SweepCache(std::uint32_t pid, HarmCurve curve) const;

  const simnet::Internet& net_;
  bool sealed_ = false;

  std::map<std::string, std::uint32_t> profile_ids_;
  std::vector<std::string> profile_names_;  // by id
  std::map<std::uint32_t, std::uint32_t> domain_profile_;  // memoized
  std::map<std::uint32_t, EndpointMeta> endpoint_meta_;    // memoized

  std::map<Bytes, std::int32_t> stek_fps_;
  std::map<Bytes, std::int32_t> kex_fps_;

  std::vector<Row> rows_;                    // canonical archive order
  std::vector<SimTime> times_;               // sealed: sorted distinct
  std::vector<std::vector<std::uint32_t>> profile_rows_;  // row idx by pid

  // Secret timelines, sealed: sorted (time, fp), deduplicated.
  using Timeline = std::vector<std::pair<SimTime, std::int32_t>>;
  std::map<std::uint32_t, Timeline> stek_timelines_;  // by endpoint
  // by endpoint<<16 | group — reuse-enabled (endpoint, group) pairs only.
  std::map<std::uint64_t, Timeline> kex_timelines_;
};

// Canonical JSONL: one line per (profile, vector, t), integer fields only
// (decryptable_ppm is the fixed-point fraction), survivors as a nested
// object with only the non-zero classes.
std::string RenderHarmCurvesJsonl(const std::vector<HarmCurve>& curves);

}  // namespace tlsharm::adversary
