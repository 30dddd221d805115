#include "adversary/replay.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

namespace tlsharm::adversary {
namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

// Fingerprint in force at T: the latest observation at or before T.
// -1 = the archive has no knowledge of this secret yet (matches nothing).
std::int32_t TimelineAt(
    const std::vector<std::pair<SimTime, std::int32_t>>& timeline,
    SimTime t) {
  const auto it = std::upper_bound(
      timeline.begin(), timeline.end(),
      std::make_pair(t, std::numeric_limits<std::int32_t>::max()));
  if (it == timeline.begin()) return -1;
  return std::prev(it)->second;
}

std::uint64_t KexTimelineKey(std::uint32_t endpoint, std::uint16_t group) {
  return (static_cast<std::uint64_t>(endpoint) << 16) | group;
}

// Per-fingerprint tally of the connections sealed under one secret.
struct FpGroup {
  std::uint64_t connections = 0;
  std::uint64_t bytes = 0;
  SimTime oldest = kNever;
  std::set<std::uint32_t> domains;
};

void AppendInt(std::string& out, std::uint64_t v) { out += std::to_string(v); }

void AppendSigned(std::string& out, SimTime v) { out += std::to_string(v); }

}  // namespace

HarmEngine::HarmEngine(const simnet::Internet& net) : net_(net) {}

const HarmEngine::EndpointMeta& HarmEngine::MetaOf(std::uint32_t endpoint) {
  const auto it = endpoint_meta_.find(endpoint);
  if (it != endpoint_meta_.end()) return it->second;
  const server::ServerConfig& config =
      net_.TerminatorConfigOf(static_cast<simnet::TerminatorId>(endpoint));
  EndpointMeta meta;
  meta.codec = config.tickets.codec;
  meta.cacheable = config.session_cache.enabled &&
                   !config.session_cache.issue_id_without_cache;
  meta.cache_lifetime = config.session_cache.lifetime;
  meta.restarts =
      net_.RestartScheduleOf(static_cast<simnet::TerminatorId>(endpoint));
  meta.dhe_reuse = config.dhe_reuse.reuse;
  meta.ecdhe_reuse = config.ecdhe_reuse.reuse;
  meta.dhe_group = static_cast<std::uint16_t>(config.dhe_group);
  meta.ecdhe_group = static_cast<std::uint16_t>(config.ecdhe_group);
  return endpoint_meta_.emplace(endpoint, meta).first->second;
}

std::uint32_t HarmEngine::ProfileOf(std::uint32_t domain) {
  const auto it = domain_profile_.find(domain);
  if (it != domain_profile_.end()) return it->second;
  const std::string& name =
      net_.DomainOperator(static_cast<simnet::DomainId>(domain));
  const auto [pit, inserted] = profile_ids_.emplace(
      name, static_cast<std::uint32_t>(profile_names_.size()));
  if (inserted) {
    profile_names_.push_back(name);
    profile_rows_.emplace_back();
  }
  return domain_profile_.emplace(domain, pit->second).first->second;
}

std::int32_t HarmEngine::Intern(std::map<Bytes, std::int32_t>& table,
                                Bytes key) {
  const auto [it, inserted] =
      table.emplace(std::move(key), static_cast<std::int32_t>(table.size()));
  return it->second;
}

void HarmEngine::Ingest(int day, const attack::CaptureRecord& record) {
  (void)day;  // times are absolute; day partitioning is a storage concern
  const EndpointMeta& meta = MetaOf(record.endpoint);

  Row row;
  row.domain = record.domain;
  row.time = record.time;
  row.endpoint = record.endpoint;
  row.profile = ProfileOf(record.domain);
  row.valid = record.valid;
  row.wire_bytes = record.wire_bytes;

  if (record.valid && !record.ticket.empty()) {
    const std::optional<Bytes> id =
        tls::GetTicketCodec(meta.codec).ExtractStekId(record.ticket);
    if (id.has_value()) row.stek_fp = Intern(stek_fps_, *id);
  }
  if (record.valid && !record.server_kex.empty()) {
    Bytes key;
    key.reserve(record.server_kex.size() + 2);
    key.push_back(static_cast<std::uint8_t>(record.kex_group >> 8));
    key.push_back(static_cast<std::uint8_t>(record.kex_group & 0xff));
    key.insert(key.end(), record.server_kex.begin(), record.server_kex.end());
    row.kex_fp = Intern(kex_fps_, std::move(key));
    row.kex_group = record.kex_group;
    row.kex_reused =
        (record.kex_group == meta.dhe_group && meta.dhe_reuse) ||
        (record.kex_group == meta.ecdhe_group && meta.ecdhe_reuse);
  }
  row.has_session_id = record.valid && !record.session_id.empty();
  row.cacheable = meta.cacheable;
  if (row.valid && row.has_session_id && row.cacheable) {
    SimTime end = row.time + meta.cache_lifetime;
    if (meta.restarts.every > 0) {
      // First restart strictly after the capture flushes the entry
      // (maintenance due exactly at the capture time was applied before
      // the connection, so the entry survives that one).
      SimTime next = meta.restarts.first;
      if (next <= row.time) {
        const SimTime past = (row.time - meta.restarts.first) /
                             meta.restarts.every;
        next = meta.restarts.first + (past + 1) * meta.restarts.every;
      }
      end = std::min(end, next);
    }
    row.cache_end = end;
  }

  profile_rows_[row.profile].push_back(
      static_cast<std::uint32_t>(rows_.size()));
  times_.push_back(row.time);
  rows_.push_back(row);
}

void HarmEngine::Seal() {
  std::sort(times_.begin(), times_.end());
  times_.erase(std::unique(times_.begin(), times_.end()), times_.end());

  for (const Row& row : rows_) {
    if (!row.valid) continue;
    if (row.stek_fp >= 0) {
      stek_timelines_[row.endpoint].emplace_back(row.time, row.stek_fp);
    }
    if (row.kex_fp >= 0 && row.kex_reused) {
      kex_timelines_[KexTimelineKey(row.endpoint, row.kex_group)]
          .emplace_back(row.time, row.kex_fp);
    }
  }
  const auto finalize = [](Timeline& timeline) {
    std::sort(timeline.begin(), timeline.end());
    timeline.erase(std::unique(timeline.begin(), timeline.end()),
                   timeline.end());
  };
  for (auto& [endpoint, timeline] : stek_timelines_) finalize(timeline);
  for (auto& [key, timeline] : kex_timelines_) finalize(timeline);
  sealed_ = true;
}

std::vector<std::string> HarmEngine::Profiles() const {
  std::vector<std::string> out;
  out.reserve(profile_ids_.size());
  for (const auto& [name, id] : profile_ids_) out.push_back(name);
  return out;
}

std::vector<HarmCurve> HarmEngine::Sweep() const {
  std::vector<HarmCurve> out;
  for (const auto& [name, pid] : profile_ids_) {
    for (int v = 0; v < kCompromiseVectorCount; ++v) {
      out.push_back(
          SweepProfileVector(name, static_cast<CompromiseVector>(v)));
    }
  }
  return out;
}

HarmCurve HarmEngine::SweepProfileVector(const std::string& profile,
                                         CompromiseVector vector) const {
  HarmCurve curve;
  curve.profile = profile;
  curve.vector = vector;
  const auto it = profile_ids_.find(profile);
  if (!sealed_ || it == profile_ids_.end()) return curve;
  switch (vector) {
    case CompromiseVector::kStek:
      return SweepStek(it->second, std::move(curve));
    case CompromiseVector::kSessionCache:
      return SweepCache(it->second, std::move(curve));
    case CompromiseVector::kDh:
      return SweepDh(it->second, std::move(curve));
  }
  return curve;
}

HarmCurve HarmEngine::SweepStek(std::uint32_t pid, HarmCurve curve) const {
  using attack::DecryptFailureClass;
  std::uint64_t total = 0, total_bytes = 0, invalid = 0, no_ticket = 0,
                ticketed = 0;
  std::map<std::int32_t, FpGroup> groups;
  std::set<std::uint32_t> endpoints;
  for (const std::uint32_t idx : profile_rows_[pid]) {
    const Row& row = rows_[idx];
    ++total;
    total_bytes += row.wire_bytes;
    endpoints.insert(row.endpoint);
    if (!row.valid) {
      ++invalid;
      continue;
    }
    if (row.stek_fp < 0) {
      ++no_ticket;
      continue;
    }
    ++ticketed;
    FpGroup& group = groups[row.stek_fp];
    ++group.connections;
    group.bytes += row.wire_bytes;
    group.oldest = std::min(group.oldest, row.time);
    group.domains.insert(row.domain);
  }
  // Fleet timelines: only endpoints this profile's rows touched.
  std::vector<const Timeline*> timelines;
  for (const std::uint32_t endpoint : endpoints) {
    const auto tl = stek_timelines_.find(endpoint);
    if (tl != stek_timelines_.end()) timelines.push_back(&tl->second);
  }
  for (const SimTime t : times_) {
    std::set<std::int32_t> active;
    for (const Timeline* timeline : timelines) {
      const std::int32_t fp = TimelineAt(*timeline, t);
      if (fp >= 0) active.insert(fp);
    }
    HarmPoint point;
    point.t = t;
    point.connections = total;
    point.wire_bytes = total_bytes;
    std::set<std::uint32_t> domains;
    for (const std::int32_t fp : active) {
      const auto group = groups.find(fp);
      if (group == groups.end()) continue;
      point.decryptable += group->second.connections;
      point.decryptable_bytes += group->second.bytes;
      if (group->second.oldest != kNever) {
        point.oldest_decrypted =
            point.oldest_decrypted < 0
                ? group->second.oldest
                : std::min(point.oldest_decrypted, group->second.oldest);
      }
      domains.insert(group->second.domains.begin(),
                     group->second.domains.end());
    }
    point.decryptable_domains = domains.size();
    point.survivors[static_cast<int>(DecryptFailureClass::kCaptureInvalid)] =
        invalid;
    point.survivors[static_cast<int>(DecryptFailureClass::kNoTicket)] =
        no_ticket;
    point.survivors[static_cast<int>(DecryptFailureClass::kWrongStek)] =
        ticketed - point.decryptable;
    curve.points.push_back(point);
  }
  return curve;
}

HarmCurve HarmEngine::SweepDh(std::uint32_t pid, HarmCurve curve) const {
  using attack::DecryptFailureClass;
  std::uint64_t total = 0, total_bytes = 0, invalid = 0, no_kex = 0,
                fresh_kex = 0, reused_kex = 0;
  std::map<std::int32_t, FpGroup> groups;
  std::set<std::uint64_t> timeline_keys;
  for (const std::uint32_t idx : profile_rows_[pid]) {
    const Row& row = rows_[idx];
    ++total;
    total_bytes += row.wire_bytes;
    if (!row.valid) {
      ++invalid;
      continue;
    }
    if (row.kex_fp < 0) {
      ++no_kex;
      continue;
    }
    if (!row.kex_reused) {
      // The server never keeps this value: gone before any compromise.
      ++fresh_kex;
      continue;
    }
    ++reused_kex;
    timeline_keys.insert(KexTimelineKey(row.endpoint, row.kex_group));
    FpGroup& group = groups[row.kex_fp];
    ++group.connections;
    group.bytes += row.wire_bytes;
    group.oldest = std::min(group.oldest, row.time);
    group.domains.insert(row.domain);
  }
  std::vector<const Timeline*> timelines;
  for (const std::uint64_t key : timeline_keys) {
    const auto tl = kex_timelines_.find(key);
    if (tl != kex_timelines_.end()) timelines.push_back(&tl->second);
  }
  for (const SimTime t : times_) {
    std::set<std::int32_t> active;
    for (const Timeline* timeline : timelines) {
      const std::int32_t fp = TimelineAt(*timeline, t);
      if (fp >= 0) active.insert(fp);
    }
    HarmPoint point;
    point.t = t;
    point.connections = total;
    point.wire_bytes = total_bytes;
    std::set<std::uint32_t> domains;
    for (const std::int32_t fp : active) {
      const auto group = groups.find(fp);
      if (group == groups.end()) continue;
      point.decryptable += group->second.connections;
      point.decryptable_bytes += group->second.bytes;
      if (group->second.oldest != kNever) {
        point.oldest_decrypted =
            point.oldest_decrypted < 0
                ? group->second.oldest
                : std::min(point.oldest_decrypted, group->second.oldest);
      }
      domains.insert(group->second.domains.begin(),
                     group->second.domains.end());
    }
    point.decryptable_domains = domains.size();
    point.survivors[static_cast<int>(DecryptFailureClass::kCaptureInvalid)] =
        invalid;
    point.survivors[static_cast<int>(DecryptFailureClass::kNoKex)] = no_kex;
    point.survivors[static_cast<int>(DecryptFailureClass::kKexMismatch)] =
        fresh_kex + (reused_kex - point.decryptable);
    curve.points.push_back(point);
  }
  return curve;
}

HarmCurve HarmEngine::SweepCache(std::uint32_t pid, HarmCurve curve) const {
  using attack::DecryptFailureClass;
  std::uint64_t total = 0, total_bytes = 0, invalid = 0, no_id = 0,
                never_cached = 0, eligible = 0;
  // Liveness events: a cached entry exists for [time, cache_end).
  struct Event {
    SimTime at = 0;
    std::uint32_t row = 0;
  };
  std::vector<Event> starts, ends;
  for (const std::uint32_t idx : profile_rows_[pid]) {
    const Row& row = rows_[idx];
    ++total;
    total_bytes += row.wire_bytes;
    if (!row.valid) {
      ++invalid;
      continue;
    }
    if (!row.has_session_id) {
      ++no_id;
      continue;
    }
    if (!row.cacheable) {
      // ID on the wire but the server never stored it (issue-only quirk
      // or cache disabled): a dump can never contain the secret.
      ++never_cached;
      continue;
    }
    ++eligible;
    starts.push_back(Event{row.time, idx});
    ends.push_back(Event{row.cache_end, idx});
  }
  const auto by_at = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at < b.at : a.row < b.row;
  };
  std::sort(starts.begin(), starts.end(), by_at);
  std::sort(ends.begin(), ends.end(), by_at);

  std::size_t si = 0, ei = 0;
  std::uint64_t live = 0, live_bytes = 0;
  std::map<std::uint32_t, std::uint32_t> live_domains;
  std::multiset<SimTime> live_times;
  for (const SimTime t : times_) {
    // The dump at T holds entries created at or before T ...
    for (; si < starts.size() && starts[si].at <= t; ++si) {
      const Row& row = rows_[starts[si].row];
      ++live;
      live_bytes += row.wire_bytes;
      ++live_domains[row.domain];
      live_times.insert(row.time);
    }
    // ... and not yet expired or flushed (end <= T means gone at T).
    for (; ei < ends.size() && ends[ei].at <= t; ++ei) {
      const Row& row = rows_[ends[ei].row];
      --live;
      live_bytes -= row.wire_bytes;
      const auto dom = live_domains.find(row.domain);
      if (--dom->second == 0) live_domains.erase(dom);
      live_times.erase(live_times.find(row.time));
    }
    HarmPoint point;
    point.t = t;
    point.connections = total;
    point.wire_bytes = total_bytes;
    point.decryptable = live;
    point.decryptable_bytes = live_bytes;
    point.decryptable_domains = live_domains.size();
    point.oldest_decrypted = live_times.empty() ? -1 : *live_times.begin();
    point.survivors[static_cast<int>(DecryptFailureClass::kCaptureInvalid)] =
        invalid;
    point.survivors[static_cast<int>(DecryptFailureClass::kNoSessionId)] =
        no_id;
    point.survivors[static_cast<int>(DecryptFailureClass::kCacheMiss)] =
        never_cached + (eligible - live);
    curve.points.push_back(point);
  }
  return curve;
}

std::string RenderHarmCurvesJsonl(const std::vector<HarmCurve>& curves) {
  std::string out;
  for (const HarmCurve& curve : curves) {
    for (const HarmPoint& point : curve.points) {
      out += "{\"profile\":\"";
      out += curve.profile;
      out += "\",\"vector\":\"";
      out += ToString(curve.vector);
      out += "\",\"t\":";
      AppendSigned(out, point.t);
      out += ",\"connections\":";
      AppendInt(out, point.connections);
      out += ",\"wire_bytes\":";
      AppendInt(out, point.wire_bytes);
      out += ",\"decryptable\":";
      AppendInt(out, point.decryptable);
      out += ",\"decryptable_bytes\":";
      AppendInt(out, point.decryptable_bytes);
      out += ",\"decryptable_domains\":";
      AppendInt(out, point.decryptable_domains);
      out += ",\"decryptable_ppm\":";
      AppendInt(out, point.connections == 0
                         ? 0
                         : point.decryptable * 1000000 / point.connections);
      out += ",\"oldest_decrypted\":";
      AppendSigned(out, point.oldest_decrypted);
      out += ",\"survivors\":{";
      bool first = true;
      for (int c = 0; c < attack::kDecryptFailureClassCount; ++c) {
        if (point.survivors[c] == 0) continue;
        if (!first) out += ',';
        first = false;
        out += '"';
        out += attack::ToString(static_cast<attack::DecryptFailureClass>(c));
        out += "\":";
        AppendInt(out, point.survivors[c]);
      }
      out += "}}\n";
    }
  }
  return out;
}

}  // namespace tlsharm::adversary
