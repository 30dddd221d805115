// Population specification: how to synthesize an Alexa-Top-N HTTPS
// ecosystem.
//
// The default instance (PaperPopulationSpec() in profiles.cc) is calibrated
// so the fractions the paper reports — resumption lifetimes, STEK spans,
// (EC)DHE reuse rates, service-group sizes — emerge from the synthesized
// behaviour. Counts scale linearly with `top_list_size`, so benches compare
// percentages (and rescaled counts) against the paper.
#pragma once

#include <string>
#include <vector>

#include "server/config.h"

namespace tlsharm::simnet {

// Distribution of reuse TTLs for terminators of an archetype that do reuse.
struct ReuseMix {
  // Fraction of this archetype's terminators that reuse at all.
  double reuse_fraction = 0.0;
  // (weight, ttl) choices for reusers; ttl 0 = reuse for process lifetime.
  std::vector<std::pair<double, SimTime>> ttl_mix;
};

// An operator archetype: either one large organization (instances == 1,
// e.g. CloudFlare) or a family of many small independent operators
// (instances >> 1, e.g. default-config Apache hosts).
struct OperatorSpec {
  std::string name;
  // Fraction of the *trusted HTTPS* domain population hosted here.
  double trusted_share = 0.0;
  // Number of independent operator instances of this archetype.
  int instances = 1;
  // SSL terminators per instance (fleet size).
  int terminators_per_instance = 1;
  server::ServerConfig config;

  // Cross-terminator sharing. Caches and KEX values are shared within a
  // sub-fleet; STEKs are shared across the whole instance (the synchronized
  // key file reaches every data center). `stek_pool` additionally shares
  // one STEK manager across *different* operator entries with the same pool
  // name (e.g. Google web + Blogspot present one STEK group, §5.2/§7.2).
  bool share_cache_across_fleet = false;
  bool share_stek_across_fleet = false;
  bool share_kex_across_fleet = false;
  std::string stek_pool;

  // Number of sub-fleets: an instance's terminators are split into this
  // many groups; sharing (cache/KEX) happens per sub-fleet. Models
  // CloudFlare's multiple distinct session-cache groups within one AS.
  int subfleets = 1;
  // Optional relative domain weights per sub-fleet (CloudFlare's cache
  // groups are ~2:1). Empty = uniform.
  std::vector<double> subfleet_weights;

  // Domains per SAN certificate (1 = a dedicated cert per domain).
  int domains_per_cert = 1;

  // Process restart cadence (0 = never restarts). Restarts regenerate
  // per-process STEKs and flush caches/KEX values.
  SimTime restart_every = 0;

  // Ephemeral-value reuse assignment across this archetype's terminators.
  ReuseMix dhe_reuse;
  ReuseMix ecdhe_reuse;

  // Fraction of this archetype's domains whose MX records point at Google
  // (Google-for-Work customers, §7.2).
  double mx_google_fraction = 0.0;
};

// A named real-world domain with hand-specified behaviour, so the paper's
// "top domains" tables reproduce row-for-row.
struct NamedDomainSpec {
  std::string domain;
  int rank = 0;
  server::ServerConfig config;
  // Days (since study start) on which the operator manually rotates the
  // STEK (the Jack Henry cluster's day-59 switch). Spans between rotations
  // are what the scanner should measure.
  std::vector<int> stek_rotation_days;
  // Same for manual (EC)DHE value rotation.
  std::vector<int> dhe_rotation_days;
  std::vector<int> ecdhe_rotation_days;
};

// A named service group: several domains sharing secrets (Jack Henry's 79
// banks, Affinity Internet's 91 domains on one DH value, ...). Counts are
// per-million and scale with the population.
struct NamedGroupSpec {
  std::string operator_name;
  int domains_per_million = 0;
  int min_domains = 2;  // floor after scaling
  // Terminators the group's domains are partitioned across (caches are
  // per-terminator unless share_cache).
  int terminators = 1;
  server::ServerConfig config;
  bool share_cache = true;
  bool share_stek = true;
  bool share_kex = false;
  std::vector<int> stek_rotation_days;
};

struct ChurnSpec {
  // Fraction of the daily list that is always present.
  double stable_fraction = 0.54;
  // Transient pool size as a multiple of the list size.
  double transient_pool_factor = 1.05;
  // Transient presence probability = max_presence * u, u uniform per
  // domain (heterogeneous churn; ~10% of unique domains appear on <= 7
  // days, as in §3).
  double transient_max_presence = 0.9;
};

// Inert: the fleet is always built on demand (see DESIGN.md "Scaling"),
// and nothing reads this. It remains only because the benchmark package
// still assigns `fleet_mode = FleetMode::kLazy`; it goes when that
// assignment does.
enum class FleetMode : std::uint8_t { kLazy };

struct PopulationSpec {
  // Size of the daily "Top N" list (the paper's 1,000,000).
  std::size_t top_list_size = 60000;
  // Fraction of stable domains that support HTTPS at all.
  double https_fraction = 0.68;
  // Fraction of stable domains presenting a browser-trusted certificate.
  double trusted_fraction = 0.54;
  // Inert; see FleetMode.
  FleetMode fleet_mode = FleetMode::kLazy;
  // Terminator working-set budget in MiB (0 = TLSHARM_FLEET_BUDGET_MB or
  // the built-in default). Terminators are built on first use and evicted
  // round-robin past it; the budget never changes a single observed byte
  // (FleetEquivalenceTest proves it), only memory/time trade-offs.
  // Accounting unit: SslTerminator::ProvisionedBytes.
  std::size_t fleet_budget_mb = 0;
  ChurnSpec churn;
  std::vector<OperatorSpec> operators;
  std::vector<NamedGroupSpec> named_groups;
  std::vector<NamedDomainSpec> named_domains;
};

// The paper-calibrated specification. `top_list_size` of 0 selects
// DefaultPopulationSize().
PopulationSpec PaperPopulationSpec(std::size_t top_list_size = 0);

// The one TLSHARM_POPULATION parser: the env value when it is at least
// 100, else `fallback`.
std::size_t DefaultPopulationSize(std::size_t fallback = 20000);

}  // namespace tlsharm::simnet
