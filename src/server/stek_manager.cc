#include "server/stek_manager.h"

#include <algorithm>
#include <limits>

namespace tlsharm::server {

StekManager::StekManager(StekPolicy policy, tls::TicketCodecKind codec,
                         ByteView seed)
    : policy_(policy), codec_(codec), drbg_(seed) {
  RotateLocked(0);
}

void StekManager::ScheduleForcedRotation(SimTime when) {
  std::lock_guard<std::mutex> lock(mu_);
  forced_.insert(std::upper_bound(forced_.begin() +
                                      static_cast<std::ptrdiff_t>(next_forced_),
                                  forced_.end(), when),
                 when);
}

void StekManager::ScheduleRestarts(SimTime first, SimTime every) {
  if (every <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  restarts_.push_back(RestartSchedule{first, every});
}

void StekManager::RotateLocked(SimTime now) {
  if (!epochs_.empty() && epochs_.back().retired_at == kNotRetired) {
    epochs_.back().retired_at = now;
  }
  const std::size_t key_name_size =
      tls::GetTicketCodec(codec_).KeyNameSize();
  epochs_.push_back(KeyEpoch{
      .stek = tls::Stek::Generate(drbg_, key_name_size),
      .issued_from = now,
      .retired_at = kNotRetired,
  });
  ++generations_;
  PruneLocked();
}

void StekManager::PruneLocked() {
  // Keep one day of slack behind the watermark: concurrent shards all work
  // inside the same scan day, so no live query (or reference handed out to
  // one) can be further behind than that.
  const SimTime cutoff = watermark_ - kDay;
  while (epochs_.size() > 1 && epochs_.front().retired_at != kNotRetired &&
         epochs_.front().retired_at + policy_.previous_key_acceptance <
             cutoff) {
    epochs_.pop_front();
  }
}

void StekManager::AdvanceToLocked(SimTime now) {
  if (now <= watermark_) return;
  constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
  for (;;) {
    // Next due event across every source, applied in chronological order so
    // the epoch sequence is independent of which caller advances the clock.
    SimTime next = kNoEvent;
    if (policy_.rotation == StekRotation::kInterval &&
        policy_.rotation_interval > 0) {
      next = epochs_.back().issued_from + policy_.rotation_interval;
    }
    if (next_forced_ < forced_.size()) {
      next = std::min(next, forced_[next_forced_]);
    }
    if (policy_.rotation == StekRotation::kPerProcess) {
      for (const RestartSchedule& r : restarts_) next = std::min(next, r.next);
    }
    if (next > now) break;
    while (next_forced_ < forced_.size() && forced_[next_forced_] <= next) {
      ++next_forced_;
    }
    if (policy_.rotation == StekRotation::kPerProcess) {
      for (RestartSchedule& r : restarts_) {
        while (r.next <= next) r.next += r.every;
      }
    }
    // Same-instant events coalesce into one rotation.
    if (epochs_.back().issued_from < next) RotateLocked(next);
  }
  watermark_ = now;
  PruneLocked();
}

const StekManager::KeyEpoch& StekManager::EpochAtLocked(SimTime now) const {
  // Last epoch with issued_from <= now; epochs past `now` exist when another
  // thread has advanced the watermark further than this query.
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    if (it->issued_from <= now) return *it;
  }
  return epochs_.front();
}

const tls::Stek& StekManager::IssuingStek(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceToLocked(now);
  return EpochAtLocked(now).stek;
}

std::vector<const tls::Stek*> StekManager::AcceptableSteks(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceToLocked(now);
  std::vector<const tls::Stek*> out;
  out.reserve(epochs_.size());
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    if (it->issued_from > now) continue;  // not yet issuing at `now`
    if (it->retired_at == kNotRetired ||
        it->retired_at + policy_.previous_key_acceptance >= now) {
      out.push_back(&it->stek);
    }
  }
  return out;
}

void StekManager::ForceRotateLocked(SimTime now) {
  if (epochs_.back().issued_from >= now) {
    // An epoch already starts at (or after) `now`: redraw its key in place
    // so the rotation still visibly changes the issuing key.
    const std::size_t key_name_size =
        tls::GetTicketCodec(codec_).KeyNameSize();
    epochs_.back().stek = tls::Stek::Generate(drbg_, key_name_size);
    ++generations_;
    return;
  }
  RotateLocked(now);
}

void StekManager::OnProcessRestart(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceToLocked(now);
  if (policy_.rotation == StekRotation::kPerProcess) ForceRotateLocked(now);
  // kStatic and kInterval keys live outside the process; restart is a no-op.
}

void StekManager::ForceRotate(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceToLocked(now);
  ForceRotateLocked(now);
}

std::uint64_t StekManager::Rotations() {
  std::lock_guard<std::mutex> lock(mu_);
  return generations_ - 1;  // the constructor's initial key is not a rotation
}

std::size_t StekManager::LiveEpochs() {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.size();
}

SimTime StekManager::IssuingEpochStart(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceToLocked(now);
  return EpochAtLocked(now).issued_from;
}

}  // namespace tlsharm::server
