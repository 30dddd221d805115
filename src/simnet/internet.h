// The simulated HTTPS Internet: domains, DNS, AS/IP topology, SSL
// terminators, churn, and scheduled maintenance (restarts, manual STEK
// rotations).
//
// Scanners talk to it exactly the way the paper's tool-chain talked to the
// real Internet: resolve a domain, open a connection, run TLS. Everything
// the scanner can observe comes out of real handshakes against the
// terminator fleet.
//
// Scaling (DESIGN.md "Scaling" has the full contract): construction is a
// BLUEPRINT pass — it fixes every random draw (ranks, configs, churn,
// reuse coins) and lays the population out as a struct-of-arrays table
// (one small column per attribute, names regenerated from compact
// patterns) instead of per-domain heap objects, and builds no terminator.
// Terminators are pure functions of (world seed, terminator id): their
// secret stores are derived once at construction and stay resident (the
// session cache is the only order-dependent mutable state in the system),
// while the expensive part — credentials, SNI maps — is built on a
// terminator's first connection into a working set bounded by
// PopulationSpec::fleet_budget_mb and evicted freely past it. A
// million-domain world therefore costs megabytes until it is probed, and
// a bounded budget thereafter.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pki/ca.h"
#include "pki/root_store.h"
#include "server/terminator.h"
#include "simnet/faults.h"
#include "simnet/spec.h"
#include "tls/transport.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace tlsharm::simnet {

using DomainId = std::uint32_t;
using TerminatorId = std::uint32_t;

struct DomainInfo {
  std::string name;
  int rank = 0;                     // average Alexa rank (1-based)
  std::string operator_name;
  std::uint32_t as_number = 0;
  std::vector<TerminatorId> endpoints;  // A records (terminators)
  bool https = false;               // listens on 443 at all
  bool trusted_cert = false;        // chain validates to the root store
  bool stable = true;               // in the Top-N list every day
  double presence_prob = 1.0;       // daily presence for transient domains
  bool mx_google = false;           // MX points at Google's mail servers
};

class Internet {
 public:
  // Builds the world; deterministic in (spec, seed).
  Internet(const PopulationSpec& spec, std::uint64_t seed);
  ~Internet();

  // --- population --------------------------------------------------------
  std::size_t DomainCount() const { return table_.flags.size(); }
  // Materializes the full record for `id`. The table is columnar, so this
  // assembles name/endpoints/operator strings per call — analysis-path
  // convenience, not a hot-path accessor (the scanner uses the column
  // accessors below).
  DomainInfo GetDomain(DomainId id) const;
  std::optional<DomainId> FindDomain(const std::string& name) const;
  const pki::RootStore& NssRootStore() const { return root_store_; }

  // Column accessors: O(1), no allocation.
  bool DomainHttps(DomainId id) const { return (table_.flags[id] & kHttps) != 0; }
  bool DomainTrusted(DomainId id) const {
    return (table_.flags[id] & kTrusted) != 0;
  }
  bool DomainStable(DomainId id) const {
    return (table_.flags[id] & kStable) != 0;
  }
  int DomainRank(DomainId id) const { return table_.rank[id]; }
  std::uint32_t DomainAs(DomainId id) const { return table_.as_number[id]; }
  std::uint64_t DomainNameHash(DomainId id) const {
    return table_.name_hash[id];
  }
  std::size_t DomainEndpointCount(DomainId id) const {
    return table_.endpoint_count[id];
  }
  TerminatorId DomainEndpoint(DomainId id, std::size_t i) const {
    return table_.endpoint_lo[id] + static_cast<TerminatorId>(i);
  }
  const std::string& DomainOperator(DomainId id) const {
    return operator_names_[table_.op[id]];
  }
  // Regenerates the domain's name into `out` (capacity reuse across calls
  // — the per-probe SNI path), or as a fresh string.
  void AssignDomainName(DomainId id, std::string* out) const;
  std::string DomainName(DomainId id) const;

  // Domains present in the simulated Top-N list on `day` (0-based).
  bool InTopListOnDay(DomainId id, int day) const;

  // --- connectivity ------------------------------------------------------
  // How a connection attempt ended before TLS could start. kOk carries a
  // live connection (possibly fault-decorated); everything else is a
  // connect-time failure.
  enum class ConnectStatus : std::uint8_t {
    kOk = 0,
    kNoHttps,  // the domain does not listen on 443 at all
    kRefused,  // fast TCP RST (injected fault)
    kTimeout,  // slow host, the connect never completed (injected fault)
    kOutage,   // the domain is inside a transient dark window
  };

  struct ConnectOutcome {
    std::unique_ptr<tls::ServerConnection> connection;  // set iff kOk
    ConnectStatus status = ConnectStatus::kNoHttps;
  };

  // Opens a TCP/443 connection. Load-balancer selection of the endpoint is
  // deterministic per (domain, day) with occasional off-affinity picks —
  // the scan jitter of §4.3. Applies due maintenance (restarts, manual
  // rotations) lazily. When a fault spec is installed, connect-time faults
  // surface in the status and mid-handshake faults ride along inside a
  // FaultyConnection decorator.
  ConnectOutcome ConnectDetailed(DomainId id, SimTime now);

  // Legacy binary view of ConnectDetailed: nullptr on any failure.
  std::unique_ptr<tls::ServerConnection> Connect(DomainId id, SimTime now);

  // Installs (or, with spec.enabled == false, removes) a fault model. The
  // injector derives its randomness from the world seed, so a faulty study
  // replays bit-for-bit from (spec, seed).
  void SetFaultSpec(const FaultSpec& spec);
  bool FaultsEnabled() const {
    return fault_injector_ != nullptr && fault_injector_->Enabled();
  }
  const FaultInjector* Faults() const { return fault_injector_.get(); }

  // The terminator Connect would use at `now` (for topology queries).
  TerminatorId EndpointFor(DomainId id, SimTime now) const;

  std::size_t TerminatorCount() const { return term_meta_.size(); }

  // Resident per-terminator state — live whether or not the terminator
  // object itself is built. No accessor hands out the terminator object, so
  // an end-of-study pass (the fleet sweep in obs/fleet.cc, the adversary
  // engine) over a million-domain fleet never builds one, and no caller can
  // hold a reference into a terminator that eviction frees.
  server::SessionCache& CacheOf(TerminatorId id) { return *shared_[id].cache; }
  server::StekManager& SteksOf(TerminatorId id) { return *shared_[id].steks; }
  server::KexCache& KexOf(TerminatorId id) { return *shared_[id].kex; }
  const server::ServerConfig& TerminatorConfigOf(TerminatorId id) const {
    return term_meta_[id].config;
  }
  const std::string& TerminatorIdOf(TerminatorId id) const {
    return term_meta_[id].id;
  }

  // Fleet observability: how many terminators are currently built, bytes
  // they hold, and cumulative (re)materializations and evictions.
  struct FleetStats {
    std::size_t resident = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t budget_bytes = 0;
    std::uint64_t materializations = 0;
    std::uint64_t evictions = 0;
  };
  FleetStats Fleet() const;

  // IP address (opaque id) of a terminator; co-located domains share it.
  std::uint32_t IpOf(TerminatorId id) const;

  // The terminator's process-restart timetable, fixed at construction:
  // restarts happen at first + k * every for k = 0, 1, ... (every == 0
  // means the process never restarts). This is the schedule the adversary
  // engine replays to model session-cache flushes from the capture archive
  // alone — the live `next_restart` cursor advances lazily with probe
  // traffic, so it is NOT a safe source for offline timeline modeling.
  struct RestartSchedule {
    SimTime first = 0;
    SimTime every = 0;  // 0 = never restarts
  };
  RestartSchedule RestartScheduleOf(TerminatorId id) const;

  // Domains whose A records include an endpoint with this IP.
  std::vector<DomainId> DomainsOnIp(std::uint32_t ip) const;
  std::vector<DomainId> DomainsInAs(std::uint32_t as_number) const;

  // MX lookup: true when mail for the domain is handled by Google (§7.2).
  bool MxPointsAtGoogle(DomainId id) const {
    return (table_.flags[id] & kMxGoogle) != 0;
  }

 private:
  // --- columnar population table -----------------------------------------
  // Domain names follow six generator patterns, all derivable from the
  // domain's interned operator name plus a small ordinal. Regeneration is
  // what keeps a million-domain table at a few dozen bytes per domain
  // instead of a heap string each.
  enum NameKind : std::uint8_t {
    kNamed = 0,   // the operator intern IS the name (hand-named domains)
    kSite,        // "site{num}.{operator}.sim"  (named service groups)
    kWww,         // "www{num}.{operator}.sim"   (operator archetypes)
    kSelf,        // "self{num}.untrusted.sim"
    kPlain,       // "plain{num}.nohttps.sim"
    kTransient,   // "t{num}.transient.sim"
  };
  enum Flag : std::uint8_t {
    kHttps = 1,
    kTrusted = 2,
    kStable = 4,
    kMxGoogle = 8,
  };
  struct DomainTable {
    std::vector<std::uint64_t> name_hash;   // StableHash64(name), precomputed
    std::vector<std::uint32_t> rank;
    std::vector<std::uint32_t> as_number;
    std::vector<std::uint8_t> flags;
    std::vector<double> presence;           // daily presence probability
    std::vector<TerminatorId> endpoint_lo;  // endpoints are a contiguous
    std::vector<std::uint16_t> endpoint_count;  // ... terminator-id range
    std::vector<std::uint16_t> op;          // index into operator_names_
    std::vector<std::uint8_t> name_kind;
    std::vector<std::uint32_t> name_num;
  };

  // --- terminator blueprint ----------------------------------------------
  // One SAN certificate to issue when the terminator materializes: the
  // credential covers domains [domain_lo, domain_lo + count) in table
  // order. Credential randomness is a derived DRBG of (terminator id,
  // world seed, ordinal), so materialization order is irrelevant.
  struct CredPlan {
    DomainId domain_lo = 0;
    std::uint16_t count = 0;
    bool trusted = true;
  };
  struct TermMeta {
    std::string id;
    server::ServerConfig config;
    std::uint32_t plan_lo = 0;    // slice of cred_plans_
    std::uint32_t plan_count = 0;
  };

  // Maintenance bookkeeping per terminator. STEK rotations, KEX clears and
  // their restart-driven counterparts are registered as schedules inside
  // the managers themselves at construction (they apply events
  // time-indexed, safely under concurrency); what remains here is the lazy
  // session-cache flush on process restart, guarded by a per-terminator
  // mutex. Scan observations never depend on cache contents (fresh probes
  // carry no resumption state), so the flush's lazy timing cannot perturb
  // the deterministic scan output.
  struct Maintenance {
    SimTime restart_every = 0;
    SimTime first_restart = 0;  // construction-time phase, never mutated
    SimTime next_restart = 0;
    std::vector<SimTime> forced_stek_rotations;   // absolute times, sorted
    std::vector<SimTime> forced_kex_rotations;
    std::mutex mu;  // guards next_restart after construction
  };

  void ApplyMaintenance(TerminatorId id, SimTime now);
  // Installs the collected maintenance schedules into the STEK managers and
  // KEX caches once every terminator (and shared-state swap) exists.
  void RegisterSchedules();

  std::uint16_t InternOperator(const std::string& name);
  DomainId AddDomainRow(std::uint8_t kind, std::uint32_t num,
                        std::uint64_t hash, int rank, std::uint16_t op,
                        std::uint32_t as_number, std::uint8_t flags,
                        double presence, TerminatorId endpoint_lo,
                        std::uint16_t endpoint_count);

  // Builds (or fetches) the terminator object: derives it — credentials
  // and all — from the blueprint under a striped lock on first use,
  // charges it against the byte budget, and evicts round-robin past it.
  std::shared_ptr<server::SslTerminator> Materialize(TerminatorId id);
  std::shared_ptr<server::SslTerminator> BuildTerminator(TerminatorId id) const;
  void EvictOverBudget(TerminatorId keep);  // fleet_mu_ held

  // Lazily built topology index (analysis paths only).
  void EnsureTopologyIndex() const;

  DomainTable table_;
  std::vector<std::string> operator_names_;   // interned, kept small

  std::vector<TermMeta> term_meta_;
  std::vector<CredPlan> cred_plans_;
  std::vector<server::SharedSecretState> shared_;  // resident secret state
  std::deque<Maintenance> maintenance_;  // deque: Maintenance is immovable

  // Terminator working set, populated on demand. Slots are shared_ptrs
  // guarded by fleet_mu_, with striped mutexes for the build path; readers
  // take a shared_ptr copy (their pin, which outlives eviction).
  std::uint64_t budget_bytes_ = 0;
  std::vector<std::shared_ptr<server::SslTerminator>> slots_;
  mutable std::mutex fleet_mu_;
  // Build stripes: serialize duplicate builds of one terminator without
  // holding fleet_mu_ through credential issuance.
  static constexpr std::size_t kBuildStripes = 64;
  mutable std::array<std::mutex, kBuildStripes> build_mu_;
  std::uint64_t resident_bytes_ = 0;
  std::size_t evict_cursor_ = 0;
  std::atomic<std::uint64_t> materializations_{0};
  std::atomic<std::uint64_t> evictions_{0};

  // CA material kept for on-demand credential issuance (terminators issue
  // certificates long after construction).
  struct Pki;
  std::unique_ptr<Pki> pki_;

  pki::RootStore root_store_;
  std::uint64_t seed_;
  std::unique_ptr<FaultInjector> fault_injector_;
  // Per-domain resolved fault profile (rebuilt by SetFaultSpec): the
  // connect path pays no override-map lookups.
  std::vector<const FaultProfile*> fault_profile_of_;

  // Sorted (key, domain) topology indexes, built on first use — only the
  // co-location analyses need them, and a million-domain scan should not
  // pay their footprint up front.
  mutable std::once_flag topo_once_;
  mutable std::vector<std::pair<std::uint32_t, DomainId>> ip_index_;
  mutable std::vector<std::pair<std::uint32_t, DomainId>> as_index_;
};

}  // namespace tlsharm::simnet
