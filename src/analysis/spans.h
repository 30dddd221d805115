// Secret-lifetime estimation from daily observations (§4.3's method).
//
// A secret's span for a domain is last-seen − first-seen + 1 days for the
// same (domain, secret-id) pair. Intermediate days where a different id was
// observed do not break the span — that is exactly the paper's tolerance
// for load-balancer and A-record jitter. Memory is bounded by folding
// entries that cannot reappear (outside the reappearance horizon) into a
// per-domain running maximum.
#pragma once

#include <cstdint>
#include <vector>

#include "scanner/observation.h"
#include "util/bytes.h"

namespace tlsharm::analysis {

using scanner::DomainIndex;
using scanner::SecretId;

class SpanTracker {
 public:
  explicit SpanTracker(int reappearance_horizon_days = 8)
      : horizon_(reappearance_horizon_days) {}

  // Records that `domain` presented secret `id` on `day` (non-decreasing
  // across calls). kNoSecret observations are ignored.
  void Observe(DomainIndex domain, SecretId id, int day);

  // True if the domain ever presented any secret.
  bool EverObserved(DomainIndex domain) const;

  // Longest span (inclusive days) of any single secret for this domain;
  // 0 when never observed. A value of 1 means no id ever recurred across
  // days ("used different STEKs each day").
  int MaxSpanDays(DomainIndex domain) const;

  // Number of days on which the domain presented any secret.
  int DaysObserved(DomainIndex domain) const;

  // The per-domain maximum spans for every observed domain, sorted by
  // DomainIndex, so every report built on it is byte-stable.
  std::vector<std::pair<DomainIndex, int>> AllSpans() const;

  // Serializes the full tracker state (varint-encoded, domains in index
  // order) so the warehouse's incremental fold can checkpoint mid-study
  // and resume from day k without re-reading days 0..k-1.
  void EncodeState(Bytes& out) const;
  // Restores a tracker from EncodeState bytes starting at `off`; advances
  // `off` past the state. False on malformed input (tracker unspecified).
  bool DecodeState(ByteView in, std::size_t& off);

 private:
  struct Entry {
    SecretId id;
    std::uint16_t first;
    std::uint16_t last;
  };
  struct DomainState {
    std::vector<Entry> live;
    int best = 0;
    int days_observed = 0;
    int last_day_counted = -1;
  };

  void Fold(DomainState& state, int day) const;
  DomainState& FindOrAdd(DomainIndex domain);
  const DomainState* Find(DomainIndex domain) const;

  int horizon_;
  // Observed domains' states, in first-observation order, and a table from
  // DomainIndex to 1 + the state's position (0: never observed). Roster
  // indices are dense, so the table costs 4 bytes a domain, a lookup is a
  // load, and the domains walk in index order without a sort.
  std::vector<DomainState> states_;
  std::vector<std::uint32_t> slot_of_;
};

}  // namespace tlsharm::analysis
