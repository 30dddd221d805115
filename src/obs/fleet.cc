#include "obs/fleet.h"

#include <set>
#include <string>

#include "simnet/internet.h"

namespace tlsharm::obs {
namespace {

// STEK issuing-epoch age buckets: an hour up to the paper's 9-week horizon.
std::vector<std::int64_t> StekAgeBounds() {
  return {tlsharm::kHour, 6 * tlsharm::kHour, tlsharm::kDay,
          7 * tlsharm::kDay, 28 * tlsharm::kDay, 63 * tlsharm::kDay};
}

}  // namespace

void CollectFleetMetrics(simnet::Internet& net, SimTime now,
                         MetricsRegistry& registry) {
  registry.GetGauge("fleet.terminators")
      .Max(static_cast<std::int64_t>(net.TerminatorCount()));

  // Shared stores are installed on several terminators; count each once,
  // visiting in terminator-id order so ties resolve deterministically.
  std::set<const void*> seen_steks;
  std::set<const void*> seen_caches;
  std::set<const void*> seen_kex;

  Counter& stek_managers = registry.GetCounter("fleet.stek.managers");
  Counter& stek_rotations = registry.GetCounter("fleet.stek.rotations");
  Counter& stek_epochs = registry.GetCounter("fleet.stek.live_epochs");
  Histogram& stek_age =
      registry.GetHistogram("fleet.stek.issuing_age", StekAgeBounds());
  Counter& session_caches = registry.GetCounter("fleet.session.caches");
  Counter& session_inserts = registry.GetCounter("fleet.session.inserts");
  Counter& session_lookups = registry.GetCounter("fleet.session.lookups");
  Counter& session_hits = registry.GetCounter("fleet.session.hits");
  Counter& kex_caches = registry.GetCounter("fleet.kex.caches");
  Counter& kex_reused = registry.GetCounter("fleet.kex.reused");
  Counter& kex_fresh = registry.GetCounter("fleet.kex.fresh");

  // The sweep reads the resident secret stores directly: they are live
  // whether or not a terminator is built, so an end-of-study pass over a
  // million-domain fleet never builds (or pays for) a terminator object.
  for (simnet::TerminatorId id = 0; id < net.TerminatorCount(); ++id) {
    server::StekManager& steks = net.SteksOf(id);
    if (seen_steks.insert(&steks).second) {
      stek_managers.Add();
      stek_rotations.Add(steks.Rotations());
      stek_epochs.Add(steks.LiveEpochs());
      stek_age.Observe(now - steks.IssuingEpochStart(now));
    }

    server::SessionCache& cache = net.CacheOf(id);
    if (seen_caches.insert(&cache).second) {
      session_caches.Add();
      session_inserts.Add(cache.Inserts());
      session_lookups.Add(cache.Lookups());
      session_hits.Add(cache.Hits());
    }

    server::KexCache& kex = net.KexOf(id);
    if (seen_kex.insert(&kex).second) {
      kex_caches.Add();
      kex_reused.Add(kex.ReusedServed());
      kex_fresh.Add(kex.FreshServed());
    }
  }

  if (const simnet::FaultInjector* faults = net.Faults();
      faults != nullptr && faults->Enabled()) {
    for (int kind = 1; kind < simnet::kFaultKinds; ++kind) {
      const auto fault_kind = static_cast<simnet::FaultKind>(kind);
      registry
          .GetCounter("fault.injected." +
                      std::string(simnet::ToString(fault_kind)))
          .Add(faults->InjectedCount(fault_kind));
    }
  }
}

}  // namespace tlsharm::obs
