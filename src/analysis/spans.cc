#include "analysis/spans.h"

#include <algorithm>

namespace tlsharm::analysis {
namespace {

// Domain indices come from the simulated Internet's roster; a state naming
// a larger one is corrupt, and would size the slot table past reason.
constexpr std::uint64_t kMaxDomainIndex = 1u << 28;

}  // namespace

void SpanTracker::Fold(DomainState& state, int day) const {
  // Retire entries that can no longer recur (outside the horizon).
  auto it = state.live.begin();
  while (it != state.live.end()) {
    if (static_cast<int>(it->last) + horizon_ < day) {
      state.best = std::max(state.best,
                            static_cast<int>(it->last) -
                                static_cast<int>(it->first) + 1);
      it = state.live.erase(it);
    } else {
      ++it;
    }
  }
}

SpanTracker::DomainState& SpanTracker::FindOrAdd(DomainIndex domain) {
  if (domain >= slot_of_.size()) slot_of_.resize(domain + std::size_t{1}, 0);
  std::uint32_t& slot = slot_of_[domain];
  if (slot == 0) {
    states_.emplace_back();
    slot = static_cast<std::uint32_t>(states_.size());
  }
  return states_[slot - 1];
}

const SpanTracker::DomainState* SpanTracker::Find(DomainIndex domain) const {
  if (domain >= slot_of_.size() || slot_of_[domain] == 0) return nullptr;
  return &states_[slot_of_[domain] - 1];
}

void SpanTracker::Observe(DomainIndex domain, SecretId id, int day) {
  if (id == scanner::kNoSecret) return;
  DomainState& state = FindOrAdd(domain);
  if (day != state.last_day_counted) {
    state.last_day_counted = day;
    ++state.days_observed;
    Fold(state, day);
  }
  for (Entry& entry : state.live) {
    if (entry.id == id) {
      entry.last = static_cast<std::uint16_t>(day);
      return;
    }
  }
  state.live.push_back(Entry{id, static_cast<std::uint16_t>(day),
                             static_cast<std::uint16_t>(day)});
}

bool SpanTracker::EverObserved(DomainIndex domain) const {
  return Find(domain) != nullptr;
}

int SpanTracker::MaxSpanDays(DomainIndex domain) const {
  const DomainState* state = Find(domain);
  if (state == nullptr) return 0;
  int best = state->best;
  for (const Entry& entry : state->live) {
    best = std::max(best, static_cast<int>(entry.last) -
                              static_cast<int>(entry.first) + 1);
  }
  return best;
}

int SpanTracker::DaysObserved(DomainIndex domain) const {
  const DomainState* state = Find(domain);
  return state == nullptr ? 0 : state->days_observed;
}

std::vector<std::pair<DomainIndex, int>> SpanTracker::AllSpans() const {
  std::vector<std::pair<DomainIndex, int>> out;
  out.reserve(states_.size());
  for (DomainIndex domain = 0; domain < slot_of_.size(); ++domain) {
    if (slot_of_[domain] != 0) out.emplace_back(domain, MaxSpanDays(domain));
  }
  return out;
}

void SpanTracker::EncodeState(Bytes& out) const {
  AppendVarint(out, static_cast<std::uint64_t>(horizon_));
  AppendVarint(out, states_.size());
  // Domains in index order, so the encoding is a pure function of the
  // tracked state, not of the order domains were first observed in.
  for (DomainIndex domain = 0; domain < slot_of_.size(); ++domain) {
    if (slot_of_[domain] == 0) continue;
    const DomainState& state = states_[slot_of_[domain] - 1];
    AppendVarint(out, domain);
    AppendVarint(out, static_cast<std::uint64_t>(state.best));
    AppendVarint(out, static_cast<std::uint64_t>(state.days_observed));
    // last_day_counted is -1 until the first observation; bias it by one
    // so the varint stays unsigned.
    AppendVarint(out, static_cast<std::uint64_t>(state.last_day_counted + 1));
    AppendVarint(out, state.live.size());
    for (const Entry& entry : state.live) {
      AppendVarint(out, entry.id);
      AppendVarint(out, entry.first);
      AppendVarint(out, entry.last);
    }
  }
}

bool SpanTracker::DecodeState(ByteView in, std::size_t& off) {
  std::uint64_t horizon = 0, count = 0;
  if (!ReadVarint(in, off, horizon) || !ReadVarint(in, off, count)) {
    return false;
  }
  if (horizon > 0xffff || count > in.size()) return false;
  horizon_ = static_cast<int>(horizon);
  states_.clear();
  slot_of_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t domain = 0, best = 0, days = 0, last_counted = 0, live = 0;
    if (!ReadVarint(in, off, domain) || !ReadVarint(in, off, best) ||
        !ReadVarint(in, off, days) || !ReadVarint(in, off, last_counted) ||
        !ReadVarint(in, off, live)) {
      return false;
    }
    if (domain >= kMaxDomainIndex || best > 0xffff || days > 0xffff ||
        last_counted > 0x10000 || live > in.size()) {
      return false;
    }
    DomainState& state = FindOrAdd(static_cast<DomainIndex>(domain));
    state.best = static_cast<int>(best);
    state.days_observed = static_cast<int>(days);
    state.last_day_counted = static_cast<int>(last_counted) - 1;
    state.live.reserve(static_cast<std::size_t>(live));
    for (std::uint64_t e = 0; e < live; ++e) {
      std::uint64_t id = 0, first = 0, last = 0;
      if (!ReadVarint(in, off, id) || !ReadVarint(in, off, first) ||
          !ReadVarint(in, off, last)) {
        return false;
      }
      if (first > 0xffff || last > 0xffff || first > last) return false;
      state.live.push_back(Entry{id, static_cast<std::uint16_t>(first),
                                 static_cast<std::uint16_t>(last)});
    }
  }
  return true;
}

}  // namespace tlsharm::analysis
