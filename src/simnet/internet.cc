#include "simnet/internet.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <unordered_set>

namespace tlsharm::simnet {
namespace {

constexpr SimTime kCertNotBefore = -180 * kDay;
constexpr SimTime kCertNotAfter = 3650 * kDay;
// Default working-set budget. ~384 MiB holds tens of thousands of
// provisioned terminators — far more than one scan shard touches between
// evictions — while a million-domain world stays bounded.
constexpr std::uint64_t kDefaultFleetBudgetMb = 384;

void AppendNum(std::string* out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

// CA material outlives construction: terminators issue certificates on
// demand, long after the blueprint pass. The DRBG member only feeds
// construction-time draws (CA keypairs, the intermediate's certificate);
// per-credential issuance uses derived DRBGs and explicit serials so it is
// order-free and thread-safe.
struct Internet::Pki {
  crypto::Drbg ca_drbg{ToBytes("simnet ca")};
  pki::CertificateAuthority root;
  pki::CertificateAuthority trusted_int;
  pki::CertificateAuthority untrusted_ca;
  pki::CertificateChain trusted_chain;
  pki::CertificateChain untrusted_chain;  // untrusted CA signs directly

  Pki()
      : root("SimNSS Root CA", pki::SignatureScheme::kSchnorrSim61, ca_drbg),
        trusted_int("SimDV Intermediate CA",
                    pki::SignatureScheme::kSchnorrSim61, ca_drbg),
        untrusted_ca("SelfSign CA", pki::SignatureScheme::kSchnorrSim61,
                     ca_drbg) {
    trusted_chain = {root.IssueCaCertificate(trusted_int, -365 * kDay,
                                             3650 * kDay, ca_drbg)};
  }
};

Internet::~Internet() = default;

std::uint16_t Internet::InternOperator(const std::string& name) {
  for (std::size_t i = 0; i < operator_names_.size(); ++i) {
    if (operator_names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  operator_names_.push_back(name);
  return static_cast<std::uint16_t>(operator_names_.size() - 1);
}

DomainId Internet::AddDomainRow(std::uint8_t kind, std::uint32_t num,
                                std::uint64_t hash, int rank, std::uint16_t op,
                                std::uint32_t as_number, std::uint8_t flags,
                                double presence, TerminatorId endpoint_lo,
                                std::uint16_t endpoint_count) {
  const DomainId id = static_cast<DomainId>(table_.flags.size());
  table_.name_hash.push_back(hash);
  table_.rank.push_back(static_cast<std::uint32_t>(rank));
  table_.as_number.push_back(as_number);
  table_.flags.push_back(flags);
  table_.presence.push_back(presence);
  table_.endpoint_lo.push_back(endpoint_lo);
  table_.endpoint_count.push_back(endpoint_count);
  table_.op.push_back(op);
  table_.name_kind.push_back(kind);
  table_.name_num.push_back(num);
  return id;
}

Internet::Internet(const PopulationSpec& spec, std::uint64_t seed)
    : pki_(std::make_unique<Pki>()), seed_(seed) {
  std::uint64_t budget_mb = spec.fleet_budget_mb;
  if (budget_mb == 0) {
    const char* env = std::getenv("TLSHARM_FLEET_BUDGET_MB");
    if (env != nullptr) budget_mb = std::strtoull(env, nullptr, 10);
    if (budget_mb == 0) budget_mb = kDefaultFleetBudgetMb;
  }
  budget_bytes_ = budget_mb << 20;

  Rng rng(seed);
  root_store_.AddRoot(pki_->root.Name(), pki_->root.Scheme(),
                      pki_->root.PublicKey());

  // ==== blueprint pass =====================================================
  // Everything below fixes the population — every Rng draw, every rank,
  // every terminator's config and maintenance calendar, every credential's
  // (domains, serial) — without building a single terminator. The draw
  // sequence matches the original materializing constructor exactly;
  // certificate issuance moved onto derived per-credential DRBGs, which is
  // what makes terminators order-free pure functions of the blueprint.

  auto new_terminator = [&](std::string id, const server::ServerConfig& config,
                            SimTime restart_every,
                            std::uint64_t restart_phase_seed) -> TerminatorId {
    const TerminatorId tid = static_cast<TerminatorId>(term_meta_.size());
    shared_.push_back(server::SslTerminator::MakeSharedSecretState(
        id, config, seed ^ StableHash64(id)));
    TermMeta meta;
    meta.id = std::move(id);
    meta.config = config;
    term_meta_.push_back(std::move(meta));
    Maintenance& m = maintenance_.emplace_back();
    m.restart_every = restart_every;
    if (restart_every > 0) {
      std::uint64_t phase_state = restart_phase_seed;
      m.next_restart =
          static_cast<SimTime>(SplitMix64(phase_state) %
                               static_cast<std::uint64_t>(restart_every));
      m.first_restart = m.next_restart;
    }
    return tid;
  };

  // Records one future credential for `tid`. A terminator's plans must be
  // contiguous in cred_plans_ (TermMeta stores a slice).
  auto add_plan = [&](TerminatorId tid, DomainId domain_lo, std::uint16_t count,
                      bool trusted) {
    TermMeta& meta = term_meta_[tid];
    if (meta.plan_count == 0) {
      meta.plan_lo = static_cast<std::uint32_t>(cred_plans_.size());
    }
    assert(meta.plan_lo + meta.plan_count == cred_plans_.size());
    cred_plans_.push_back(CredPlan{domain_lo, count, trusted});
    ++meta.plan_count;
  };

  // Regenerates the name a row (kind, num, op) will carry — used here only
  // to precompute the name hash the runtime paths key on.
  std::string scratch_name;
  auto row_name = [&](std::uint8_t kind, std::uint32_t num,
                      std::uint16_t op) -> const std::string& {
    scratch_name.clear();
    switch (static_cast<NameKind>(kind)) {
      case kNamed:
        scratch_name = operator_names_[op];
        break;
      case kSite:
        scratch_name = "site";
        AppendNum(&scratch_name, num);
        scratch_name += '.';
        scratch_name += operator_names_[op];
        scratch_name += ".sim";
        break;
      case kWww:
        scratch_name = "www";
        AppendNum(&scratch_name, num);
        scratch_name += '.';
        scratch_name += operator_names_[op];
        scratch_name += ".sim";
        break;
      case kSelf:
        scratch_name = "self";
        AppendNum(&scratch_name, num);
        scratch_name += ".untrusted.sim";
        break;
      case kPlain:
        scratch_name = "plain";
        AppendNum(&scratch_name, num);
        scratch_name += ".nohttps.sim";
        break;
      case kTransient:
        scratch_name = "t";
        AppendNum(&scratch_name, num);
        scratch_name += ".transient.sim";
        break;
    }
    return scratch_name;
  };

  // Provisions HTTPS domains (name pattern `kind` with ordinals `nums`, all
  // operated by `op_index`) on a group of terminators with the given
  // sharing flags, recording credential plans and population rows.
  auto provision_group = [&](std::uint8_t kind,
                             const std::vector<std::uint32_t>& nums,
                             const std::vector<TerminatorId>& fleet,
                             bool share_cache, bool share_stek, bool share_kex,
                             int domains_per_cert, bool trusted,
                             std::uint32_t as_number, std::uint16_t op_index,
                             const std::vector<int>* explicit_ranks,
                             bool stable, double presence_prob,
                             double mx_google_fraction, Rng& local_rng) {
    // Share secret state across the fleet as configured.
    if (fleet.size() > 1) {
      for (std::size_t i = 1; i < fleet.size(); ++i) {
        if (share_cache) shared_[fleet[i]].cache = shared_[fleet[0]].cache;
        if (share_stek) shared_[fleet[i]].steks = shared_[fleet[0]].steks;
        if (share_kex) shared_[fleet[i]].kex = shared_[fleet[0]].kex;
      }
    }
    // Endpoint ranges are contiguous by construction; the columnar table
    // depends on it.
    for (std::size_t i = 1; i < fleet.size(); ++i) {
      assert(fleet[i] == fleet[0] + i);
      (void)i;
    }
    // Credential plans: one SAN certificate per batch per terminator.
    const DomainId base_id = static_cast<DomainId>(table_.flags.size());
    for (const TerminatorId tid : fleet) {
      for (std::size_t base = 0; base < nums.size();
           base += static_cast<std::size_t>(domains_per_cert)) {
        const std::size_t end = std::min(
            nums.size(), base + static_cast<std::size_t>(domains_per_cert));
        add_plan(tid, base_id + static_cast<DomainId>(base),
                 static_cast<std::uint16_t>(end - base), trusted);
      }
    }
    for (std::size_t i = 0; i < nums.size(); ++i) {
      const std::uint64_t hash = StableHash64(row_name(kind, nums[i], op_index));
      std::uint8_t flags = kHttps;
      if (trusted) flags |= kTrusted;
      if (stable) flags |= kStable;
      if (local_rng.Bernoulli(mx_google_fraction)) flags |= kMxGoogle;
      AddDomainRow(kind, nums[i], hash,
                   explicit_ranks != nullptr ? (*explicit_ranks)[i] : 0,
                   op_index, as_number, flags, presence_prob,
                   fleet.empty() ? 0 : fleet.front(),
                   static_cast<std::uint16_t>(fleet.size()));
    }
  };

  // --- sizing --------------------------------------------------------------
  const std::size_t n = spec.top_list_size;
  const auto stable_count =
      static_cast<std::size_t>(static_cast<double>(n) *
                               spec.churn.stable_fraction);
  const auto trusted_target = static_cast<std::size_t>(
      static_cast<double>(stable_count) * spec.trusted_fraction);
  const auto https_untrusted_target = static_cast<std::size_t>(
      static_cast<double>(stable_count) *
      (spec.https_fraction - spec.trusted_fraction));
  const double scale = static_cast<double>(n) / 1'000'000.0;

  std::size_t trusted_used = 0;
  // Cross-operator STEK pools (see OperatorSpec::stek_pool).
  std::map<std::string, std::shared_ptr<server::StekManager>> stek_pools;

  // --- named domains -------------------------------------------------------
  for (const auto& named : spec.named_domains) {
    const TerminatorId tid = new_terminator("term/" + named.domain,
                                            named.config, 0,
                                            StableHash64(named.domain));
    auto& maint = maintenance_[tid];
    for (const int day : named.stek_rotation_days) {
      maint.forced_stek_rotations.push_back(day * kDay + 30);
    }
    for (const int day : named.dhe_rotation_days) {
      maint.forced_kex_rotations.push_back(day * kDay + 30);
    }
    for (const int day : named.ecdhe_rotation_days) {
      maint.forced_kex_rotations.push_back(day * kDay + 30);
    }
    std::sort(maint.forced_stek_rotations.begin(),
              maint.forced_stek_rotations.end());
    std::sort(maint.forced_kex_rotations.begin(),
              maint.forced_kex_rotations.end());
    const std::vector<int> ranks = {named.rank};
    Rng domain_rng = rng.Fork("named/" + named.domain);
    provision_group(kNamed, {0}, {tid},
                    /*share_cache=*/false, /*share_stek=*/false,
                    /*share_kex=*/false, /*domains_per_cert=*/1,
                    /*trusted=*/true,
                    /*as_number=*/static_cast<std::uint32_t>(
                        20000 + StableHash64(named.domain) % 40000),
                    InternOperator(named.domain), &ranks, /*stable=*/true,
                    /*presence_prob=*/1.0, /*mx_google=*/0.0, domain_rng);
    ++trusted_used;
  }

  // --- named groups --------------------------------------------------------
  for (const auto& group : spec.named_groups) {
    const int count = std::max(
        group.min_domains,
        static_cast<int>(group.domains_per_million * scale));
    const std::string& base = group.operator_name;
    const int n_terms = std::max(1, group.terminators);
    std::vector<TerminatorId> fleet;
    for (int t = 0; t < n_terms; ++t) {
      const TerminatorId tid = new_terminator(
          "term/" + base + "/" + std::to_string(t), group.config, 0,
          StableHash64(base) + static_cast<std::uint64_t>(t));
      auto& maint = maintenance_[tid];
      for (const int day : group.stek_rotation_days) {
        maint.forced_stek_rotations.push_back(day * kDay + 30);
      }
      std::sort(maint.forced_stek_rotations.begin(),
                maint.forced_stek_rotations.end());
      fleet.push_back(tid);
    }
    // STEK/KEX sharing spans the whole group; caches are per-terminator
    // unless share_cache.
    for (std::size_t t = 1; t < fleet.size(); ++t) {
      if (group.share_stek) shared_[fleet[t]].steks = shared_[fleet[0]].steks;
      if (group.share_kex) shared_[fleet[t]].kex = shared_[fleet[0]].kex;
      if (group.share_cache) shared_[fleet[t]].cache = shared_[fleet[0]].cache;
    }
    Rng group_rng = rng.Fork("group/" + base);
    const std::uint32_t as_number =
        static_cast<std::uint32_t>(30000 + StableHash64(base) % 30000);
    const std::uint16_t op_index = InternOperator(base);
    // Partition domains across the fleet's terminators.
    for (int t = 0; t < n_terms; ++t) {
      std::vector<std::uint32_t> nums;
      for (int i = t; i < count; i += n_terms) {
        nums.push_back(static_cast<std::uint32_t>(i));
      }
      if (nums.empty()) continue;
      provision_group(kSite, nums, {fleet[static_cast<std::size_t>(t)]},
                      false, false, false,
                      /*domains_per_cert=*/std::max<int>(1, count / 4),
                      /*trusted=*/true, as_number, op_index, nullptr,
                      /*stable=*/true, /*presence_prob=*/1.0, 0.0, group_rng);
    }
    trusted_used += static_cast<std::size_t>(count);
  }

  // --- archetype operators ---------------------------------------------------
  double total_share = 0;
  for (const auto& op : spec.operators) total_share += op.trusted_share;
  const std::size_t archetype_budget =
      trusted_target > trusted_used ? trusted_target - trusted_used : 0;

  for (const auto& op : spec.operators) {
    const auto op_domains = static_cast<std::size_t>(
        static_cast<double>(archetype_budget) * op.trusted_share /
        total_share);
    if (op_domains == 0) continue;
    const int instances = std::max(1, op.instances);
    const std::size_t per_instance =
        std::max<std::size_t>(1, op_domains / static_cast<std::size_t>(instances));
    Rng op_rng = rng.Fork("op/" + op.name);

    std::size_t produced = 0;
    for (int inst = 0; inst < instances && produced < op_domains; ++inst) {
      const std::size_t want =
          std::min(per_instance, op_domains - produced);
      if (want == 0) break;
      const std::string inst_name =
          op.name + (instances > 1 ? "-" + std::to_string(inst) : "");
      // AS: one per instance for big orgs; small archetypes pool into a
      // bounded set of hosting ASes so co-AS sampling finds candidates.
      const std::uint32_t as_number =
          instances == 1
              ? static_cast<std::uint32_t>(1000 + StableHash64(op.name) % 9000)
              : static_cast<std::uint32_t>(
                    50000 + StableHash64(op.name) % 1000 +
                    static_cast<std::uint32_t>(inst) % 64);

      // Decide ephemeral-value reuse for this instance.
      server::ServerConfig config = op.config;
      auto apply_reuse = [&op_rng](const ReuseMix& mix,
                                   server::KexReusePolicy& policy) {
        if (mix.reuse_fraction <= 0 || !op_rng.Bernoulli(mix.reuse_fraction)) {
          return;
        }
        policy.reuse = true;
        policy.ttl = 0;
        if (!mix.ttl_mix.empty()) {
          std::vector<double> weights;
          weights.reserve(mix.ttl_mix.size());
          for (const auto& [w, ttl] : mix.ttl_mix) weights.push_back(w);
          policy.ttl = mix.ttl_mix[op_rng.WeightedIndex(weights)].second;
        }
      };
      apply_reuse(op.dhe_reuse, config.dhe_reuse);
      apply_reuse(op.ecdhe_reuse, config.ecdhe_reuse);

      const int subfleets = std::max(1, op.subfleets);
      const int per_fleet =
          std::max(1, op.terminators_per_instance / subfleets);
      // Restart interval jitter: ±40% per instance.
      SimTime restart = op.restart_every;
      if (restart > 0) {
        const double jitter = 0.6 + 0.8 * op_rng.UniformDouble();
        restart = static_cast<SimTime>(static_cast<double>(restart) * jitter);
        restart = std::max<SimTime>(restart, kHour);
      }

      std::vector<std::vector<TerminatorId>> fleets(
          static_cast<std::size_t>(subfleets));
      std::vector<TerminatorId> all_terminators;
      for (int sf = 0; sf < subfleets; ++sf) {
        for (int t = 0; t < per_fleet; ++t) {
          const TerminatorId tid = new_terminator(
              "term/" + inst_name + "/" + std::to_string(sf) + "." +
                  std::to_string(t),
              config, restart,
              StableHash64(inst_name) + static_cast<std::uint64_t>(sf * 131 + t));
          fleets[static_cast<std::size_t>(sf)].push_back(tid);
          all_terminators.push_back(tid);
        }
      }
      // STEK sharing: instance-wide, and optionally via a cross-operator
      // pool (one synchronized key file for the whole organization).
      if (!op.stek_pool.empty()) {
        auto [it, inserted] = stek_pools.try_emplace(
            op.stek_pool, shared_[all_terminators[0]].steks);
        for (const TerminatorId tid : all_terminators) {
          shared_[tid].steks = it->second;
        }
      } else if (op.share_stek_across_fleet && all_terminators.size() > 1) {
        auto shared_steks = shared_[all_terminators[0]].steks;
        for (std::size_t i = 1; i < all_terminators.size(); ++i) {
          shared_[all_terminators[i]].steks = shared_steks;
        }
      }

      // Domain ordinals for this instance, spread across sub-fleets.
      std::vector<std::vector<std::uint32_t>> nums(
          static_cast<std::size_t>(subfleets));
      // Optional weighted split (CloudFlare's ~2:1 cache groups).
      std::vector<double> cumulative;
      if (!op.subfleet_weights.empty()) {
        double total = 0;
        for (double w : op.subfleet_weights) total += w;
        double acc = 0;
        for (double w : op.subfleet_weights) {
          acc += w / total;
          cumulative.push_back(acc);
        }
      }
      for (std::size_t i = 0; i < want; ++i) {
        std::size_t sf;
        if (cumulative.empty()) {
          sf = i % static_cast<std::size_t>(subfleets);
        } else {
          const double f =
              (static_cast<double>(i) + 0.5) / static_cast<double>(want);
          sf = 0;
          while (sf + 1 < cumulative.size() && f > cumulative[sf]) ++sf;
        }
        nums[sf].push_back(static_cast<std::uint32_t>(i));
      }
      const std::uint16_t op_index = InternOperator(inst_name);
      for (int sf = 0; sf < subfleets; ++sf) {
        if (nums[static_cast<std::size_t>(sf)].empty()) continue;
        // Cache/KEX sharing stays within the sub-fleet; STEK sharing was
        // handled instance-wide above.
        provision_group(kWww, nums[static_cast<std::size_t>(sf)],
                        fleets[static_cast<std::size_t>(sf)],
                        op.share_cache_across_fleet,
                        /*share_stek=*/false,
                        op.share_kex_across_fleet,
                        std::max(1, op.domains_per_cert), /*trusted=*/true,
                        as_number, op_index, nullptr,
                        /*stable=*/true, 1.0, op.mx_google_fraction, op_rng);
      }
      produced += want;
    }
    trusted_used += produced;
  }

  // --- HTTPS-but-untrusted stable domains ----------------------------------
  {
    Rng untrusted_rng = rng.Fork("untrusted");
    const std::uint16_t op_index = InternOperator("untrusted-host");
    const std::size_t per_term = 16;
    std::size_t made = 0;
    int batch = 0;
    while (made < https_untrusted_target) {
      const std::size_t count =
          std::min(per_term, https_untrusted_target - made);
      server::ServerConfig config;  // defaults; behaviour barely matters
      config.tickets.enabled = untrusted_rng.Bernoulli(0.7);
      const TerminatorId tid = new_terminator(
          "term/untrusted-" + std::to_string(batch), config, 7 * kDay,
          StableHash64("untrusted") + static_cast<std::uint64_t>(batch));
      std::vector<std::uint32_t> nums;
      for (std::size_t i = 0; i < count; ++i) {
        nums.push_back(static_cast<std::uint32_t>(made + i));
      }
      provision_group(kSelf, nums, {tid}, false, false, false, 4,
                      /*trusted=*/false,
                      static_cast<std::uint32_t>(60000 + batch % 128),
                      op_index, nullptr, true, 1.0, 0.0, untrusted_rng);
      made += count;
      ++batch;
    }
  }

  // --- non-HTTPS stable domains ---------------------------------------------
  {
    const std::size_t no_https = stable_count > trusted_used +
                                        https_untrusted_target
                                     ? stable_count - trusted_used -
                                           https_untrusted_target
                                     : 0;
    const std::uint16_t op_index = InternOperator("no-https");
    for (std::size_t i = 0; i < no_https; ++i) {
      const std::uint64_t hash = StableHash64(
          row_name(kPlain, static_cast<std::uint32_t>(i), op_index));
      std::uint8_t flags = kStable;
      if (hash % 100 < 9) flags |= kMxGoogle;
      AddDomainRow(kPlain, static_cast<std::uint32_t>(i), hash, 0, op_index,
                   static_cast<std::uint32_t>(70000 + i % 512), flags, 1.0, 0,
                   0);
    }
  }

  // --- transient (churning) domains ------------------------------------------
  {
    Rng churn_rng = rng.Fork("churn");
    const auto pool = static_cast<std::size_t>(
        static_cast<double>(n) * spec.churn.transient_pool_factor);
    const std::size_t per_term = 32;
    TerminatorId current_term = 0;
    std::size_t on_current = per_term;
    int batch = 0;
    const std::uint16_t op_index = InternOperator("transient-host");
    // Behaviour templates for the churning tail, mirroring the stable
    // cohort's implementation mix so single-day metrics stay calibrated.
    std::vector<server::ServerConfig> templates;
    {
      server::ServerConfig apache;  // defaults: all suites, 5m cache, 3m t.
      apache.session_cache.lifetime = 5 * kMinute;
      apache.tickets.lifetime_hint_seconds = 180;
      apache.tickets.acceptance_window = 3 * kMinute;
      templates.push_back(apache);                       // 0: apache (DHE)
      server::ServerConfig nodhe = apache;
      nodhe.suite_preference = {tls::CipherSuite::kEcdheWithAes128CbcSha256,
                                tls::CipherSuite::kStaticWithAes128CbcSha256};
      templates.push_back(nodhe);                        // 1: no DHE
      server::ServerConfig old = apache;
      old.suite_preference = {tls::CipherSuite::kDheWithAes128CbcSha256,
                              tls::CipherSuite::kStaticWithAes128CbcSha256};
      templates.push_back(old);                          // 2: no ECDHE
      server::ServerConfig iis = apache;
      iis.suite_preference = nodhe.suite_preference;
      iis.session_cache.lifetime = 10 * kHour;
      iis.tickets.codec = tls::TicketCodecKind::kSChannel;
      iis.tickets.acceptance_window = 10 * kHour;
      templates.push_back(iis);                          // 3: IIS
      server::ServerConfig no_tickets = apache;
      no_tickets.tickets.enabled = false;
      templates.push_back(no_tickets);                   // 4: no tickets
      server::ServerConfig nginx = apache;
      nginx.session_cache.enabled = false;
      nginx.session_cache.issue_id_without_cache = true;
      nginx.suite_preference = nodhe.suite_preference;
      templates.push_back(nginx);                        // 5: id, no cache
      server::ServerConfig smallhost = apache;
      smallhost.session_cache.lifetime = 30 * kMinute;
      smallhost.tickets.lifetime_hint_seconds = 1800;
      smallhost.tickets.acceptance_window = 30 * kMinute;
      templates.push_back(smallhost);                    // 6: 30m windows
    }
    const std::vector<double> template_weights = {0.22, 0.20, 0.10, 0.10,
                                                  0.12, 0.12, 0.14};
    for (std::size_t i = 0; i < pool; ++i) {
      const double u = churn_rng.UniformDouble();
      const double presence = spec.churn.transient_max_presence * u;
      const bool https = churn_rng.Bernoulli(0.55);
      const bool trusted = https && churn_rng.Bernoulli(0.62);
      std::uint8_t flags = 0;
      if (https) flags |= kHttps;
      if (trusted) flags |= kTrusted;
      if (churn_rng.Bernoulli(0.09)) flags |= kMxGoogle;
      TerminatorId endpoint_lo = 0;
      std::uint16_t endpoint_count = 0;
      if (https) {
        if (on_current == per_term) {
          server::ServerConfig config =
              templates[churn_rng.WeightedIndex(template_weights)];
          // A tenth of shared-hosting boxes reuse ECDHE values for hours.
          if (churn_rng.Bernoulli(0.10)) {
            config.ecdhe_reuse = {.reuse = true, .ttl = 8 * kHour};
          }
          if (churn_rng.Bernoulli(0.02)) {
            config.dhe_reuse = {.reuse = true, .ttl = 6 * kHour};
          }
          current_term = new_terminator(
              "term/transient-" + std::to_string(batch++), config, 3 * kDay,
              StableHash64("transient") + i);
          on_current = 0;
        }
        ++on_current;
        add_plan(current_term, static_cast<DomainId>(table_.flags.size()), 1,
                 trusted);
        endpoint_lo = current_term;
        endpoint_count = 1;
      }
      const std::uint64_t hash = StableHash64(
          row_name(kTransient, static_cast<std::uint32_t>(i), op_index));
      AddDomainRow(kTransient, static_cast<std::uint32_t>(i), hash, 0,
                   op_index, static_cast<std::uint32_t>(80000 + i % 1024),
                   flags, presence, endpoint_lo, endpoint_count);
    }
  }

  // --- rank assignment post-pass ---------------------------------------------
  // Named domains carry their real Alexa ranks; everything else is spread
  // uniformly (and deterministically) over the remaining rank space so
  // rank-tier analyses (Figure 4) see a realistic mix at every tier.
  {
    std::unordered_set<int> taken;
    std::vector<DomainId> unranked;
    for (DomainId id = 0; id < table_.rank.size(); ++id) {
      if (table_.rank[id] > 0) {
        taken.insert(static_cast<int>(table_.rank[id]));
      } else {
        unranked.push_back(id);
      }
    }
    Rng rank_rng = rng.Fork("ranks");
    for (std::size_t i = unranked.size(); i > 1; --i) {
      const std::size_t j = rank_rng.UniformInt(i);
      std::swap(unranked[i - 1], unranked[j]);
    }
    int next_rank = 1;
    for (const DomainId id : unranked) {
      while (taken.count(next_rank) != 0) ++next_rank;
      table_.rank[id] = static_cast<std::uint32_t>(next_rank++);
    }
  }

  RegisterSchedules();
  slots_.resize(term_meta_.size());
}

void Internet::RegisterSchedules() {
  // Hand every terminator's maintenance calendar to its (possibly shared)
  // STEK manager and KEX cache. Shared managers accumulate the schedules of
  // every sharing terminator — time-indexed, so concurrent probes observe
  // the same key epochs regardless of arrival order, and independent of
  // whether the terminator object itself is currently materialized.
  for (TerminatorId tid = 0; tid < term_meta_.size(); ++tid) {
    const Maintenance& m = maintenance_[tid];
    for (const SimTime t : m.forced_stek_rotations) {
      shared_[tid].steks->ScheduleForcedRotation(t);
    }
    for (const SimTime t : m.forced_kex_rotations) {
      shared_[tid].kex->ScheduleClearAt(t);
    }
    if (m.restart_every > 0) {
      shared_[tid].steks->ScheduleRestarts(m.next_restart, m.restart_every);
      shared_[tid].kex->SchedulePeriodicClear(m.next_restart, m.restart_every);
    }
  }
}

std::shared_ptr<server::SslTerminator> Internet::BuildTerminator(
    TerminatorId id) const {
  const TermMeta& meta = term_meta_[id];
  auto term = std::make_shared<server::SslTerminator>(
      meta.id, meta.config, seed_ ^ StableHash64(meta.id), shared_[id]);
  std::vector<std::string> batch;
  for (std::uint32_t k = 0; k < meta.plan_count; ++k) {
    const std::uint32_t global = meta.plan_lo + k;
    const CredPlan& plan = cred_plans_[global];
    batch.clear();
    for (std::uint32_t d = 0; d < plan.count; ++d) {
      batch.push_back(DomainName(plan.domain_lo + d));
    }
    // Per-credential DRBG and serial: issuance is a pure function of the
    // blueprint, so terminators can be (re)built in any order, on any
    // thread, and still present bit-identical certificates.
    Bytes material = ToBytes("cred/");
    Append(material, ToBytes(meta.id));
    AppendUint(material, seed_, 8);
    AppendUint(material, global, 8);
    crypto::Drbg drbg(material);
    server::Credential credential = server::MakeCredential(
        plan.trusted ? pki_->trusted_int : pki_->untrusted_ca, batch,
        pki::SignatureScheme::kSchnorrSim61, kCertNotBefore, kCertNotAfter,
        plan.trusted ? pki_->trusted_chain : pki_->untrusted_chain, drbg,
        /*serial=*/static_cast<std::uint64_t>(global) + 1);
    const std::size_t idx = term->AddCredential(std::move(credential));
    for (std::uint32_t d = 0; d < plan.count; ++d) {
      term->MapDomain(batch[d], idx);
    }
  }
  return term;
}

std::shared_ptr<server::SslTerminator> Internet::Materialize(TerminatorId id) {
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    if (slots_[id] != nullptr) return slots_[id];
  }
  // Build outside fleet_mu_; the stripe lock stops duplicate builds of the
  // same terminator from racing.
  std::lock_guard<std::mutex> stripe(build_mu_[id % kBuildStripes]);
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    if (slots_[id] != nullptr) return slots_[id];
  }
  auto term = BuildTerminator(id);
  const std::uint64_t bytes = term->ProvisionedBytes();
  std::lock_guard<std::mutex> lock(fleet_mu_);
  slots_[id] = term;
  resident_bytes_ += bytes;
  materializations_.fetch_add(1, std::memory_order_relaxed);
  EvictOverBudget(id);
  return term;
}

void Internet::EvictOverBudget(TerminatorId keep) {
  // fleet_mu_ held. Round-robin eviction: which terminators are resident at
  // any instant depends on probe arrival order, but since terminators are
  // pure functions of the blueprint (and the shared secret stores never
  // leave), eviction order cannot perturb a single observed byte.
  const std::size_t n = slots_.size();
  std::size_t scanned = 0;
  while (resident_bytes_ > budget_bytes_ && scanned < n) {
    const std::size_t victim = evict_cursor_;
    evict_cursor_ = (evict_cursor_ + 1) % n;
    ++scanned;
    if (victim == keep || slots_[victim] == nullptr) continue;
    resident_bytes_ -= slots_[victim]->ProvisionedBytes();
    slots_[victim].reset();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

Internet::FleetStats Internet::Fleet() const {
  FleetStats stats;
  stats.budget_bytes = budget_bytes_;
  stats.materializations = materializations_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(fleet_mu_);
  stats.resident_bytes = resident_bytes_;
  for (const auto& slot : slots_) {
    if (slot != nullptr) ++stats.resident;
  }
  return stats;
}

void Internet::AssignDomainName(DomainId id, std::string* out) const {
  out->clear();
  const std::uint32_t num = table_.name_num[id];
  switch (static_cast<NameKind>(table_.name_kind[id])) {
    case kNamed:
      out->append(operator_names_[table_.op[id]]);
      return;
    case kSite:
      out->append("site");
      AppendNum(out, num);
      out->push_back('.');
      out->append(operator_names_[table_.op[id]]);
      out->append(".sim");
      return;
    case kWww:
      out->append("www");
      AppendNum(out, num);
      out->push_back('.');
      out->append(operator_names_[table_.op[id]]);
      out->append(".sim");
      return;
    case kSelf:
      out->append("self");
      AppendNum(out, num);
      out->append(".untrusted.sim");
      return;
    case kPlain:
      out->append("plain");
      AppendNum(out, num);
      out->append(".nohttps.sim");
      return;
    case kTransient:
      out->push_back('t');
      AppendNum(out, num);
      out->append(".transient.sim");
      return;
  }
}

std::string Internet::DomainName(DomainId id) const {
  std::string out;
  AssignDomainName(id, &out);
  return out;
}

DomainInfo Internet::GetDomain(DomainId id) const {
  DomainInfo info;
  info.name = DomainName(id);
  info.rank = static_cast<int>(table_.rank[id]);
  info.operator_name = operator_names_[table_.op[id]];
  info.as_number = table_.as_number[id];
  const TerminatorId lo = table_.endpoint_lo[id];
  const std::uint16_t count = table_.endpoint_count[id];
  info.endpoints.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    info.endpoints.push_back(lo + i);
  }
  const std::uint8_t flags = table_.flags[id];
  info.https = (flags & kHttps) != 0;
  info.trusted_cert = (flags & kTrusted) != 0;
  info.stable = (flags & kStable) != 0;
  info.mx_google = (flags & kMxGoogle) != 0;
  info.presence_prob = table_.presence[id];
  return info;
}

std::optional<DomainId> Internet::FindDomain(const std::string& name) const {
  // Cold path (tests, analysis entry points): a name index would cost tens
  // of megabytes at a million domains for no hot-path benefit, so resolve
  // by hash scan + verify instead.
  const std::uint64_t hash = StableHash64(name);
  std::string candidate;
  for (DomainId id = 0; id < table_.name_hash.size(); ++id) {
    if (table_.name_hash[id] != hash) continue;
    AssignDomainName(id, &candidate);
    if (candidate == name) return id;
  }
  return std::nullopt;
}

bool Internet::InTopListOnDay(DomainId id, int day) const {
  if ((table_.flags[id] & kStable) != 0) return true;
  // Deterministic per (domain, day) presence draw.
  std::uint64_t state = seed_ ^ table_.name_hash[id] ^
                        (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                     day + 1));
  const double u =
      static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  return u < table_.presence[id];
}

TerminatorId Internet::EndpointFor(DomainId id, SimTime now) const {
  const std::uint16_t count = table_.endpoint_count[id];
  assert(count > 0);
  const TerminatorId lo = table_.endpoint_lo[id];
  if (count == 1) return lo;
  const int day = static_cast<int>(now / kDay);
  std::uint64_t state = seed_ ^ table_.name_hash[id] ^
                        (0xbf58476d1ce4e5b9ULL *
                         static_cast<std::uint64_t>(day + 7));
  std::uint64_t pick = SplitMix64(state);
  // 5% of connections land off-affinity (poorly configured LB).
  std::uint64_t conn_state = state ^ static_cast<std::uint64_t>(now);
  if (SplitMix64(conn_state) % 100 < 5) pick = SplitMix64(conn_state);
  return lo + static_cast<TerminatorId>(pick % count);
}

void Internet::ApplyMaintenance(TerminatorId id, SimTime now) {
  // STEK rotations and KEX clears are schedule-driven inside the managers;
  // the only remaining lazy effect of a restart is flushing the session
  // cache (resumable state does not survive the process). The cache is
  // resident shared state, so no terminator materialization is needed.
  Maintenance& m = maintenance_[id];
  if (m.restart_every <= 0) return;
  std::lock_guard<std::mutex> lock(m.mu);
  if (m.next_restart > now) return;
  // Only the most recent missed restart matters for the cache flush.
  const std::uint64_t periods =
      static_cast<std::uint64_t>(now - m.next_restart) /
          static_cast<std::uint64_t>(m.restart_every) +
      1;
  const SimTime last_restart =
      m.next_restart + static_cast<SimTime>(periods - 1) * m.restart_every;
  shared_[id].cache->Clear();
  m.next_restart = last_restart + m.restart_every;
}

Internet::ConnectOutcome Internet::ConnectDetailed(DomainId id, SimTime now) {
  ConnectOutcome out;
  if ((table_.flags[id] & kHttps) == 0 || table_.endpoint_count[id] == 0) {
    out.status = ConnectStatus::kNoHttps;
    return out;
  }
  FaultDecision fault;
  if (FaultsEnabled()) {
    fault = fault_injector_->Decide(table_.name_hash[id],
                                    *fault_profile_of_[id], now);
    switch (fault.kind) {
      case FaultKind::kOutage:
        out.status = ConnectStatus::kOutage;
        return out;
      case FaultKind::kRefused:
        out.status = ConnectStatus::kRefused;
        return out;
      case FaultKind::kTimeout:
        out.status = ConnectStatus::kTimeout;
        return out;
      default:
        break;  // mid-handshake faults decorate the connection below
    }
  }
  const TerminatorId tid = EndpointFor(id, now);
  ApplyMaintenance(tid, now);
  auto term = Materialize(tid);
  out.connection = term->NewConnection(now, std::move(term));
  if (fault.kind != FaultKind::kNone) {
    out.connection =
        std::make_unique<FaultyConnection>(std::move(out.connection), fault);
  }
  out.status = ConnectStatus::kOk;
  return out;
}

std::unique_ptr<tls::ServerConnection> Internet::Connect(DomainId id,
                                                         SimTime now) {
  return ConnectDetailed(id, now).connection;
}

void Internet::SetFaultSpec(const FaultSpec& spec) {
  fault_injector_ = std::make_unique<FaultInjector>(spec, seed_);
  // Resolve each domain's profile once; the references stay valid as long
  // as the injector lives.
  fault_profile_of_.resize(DomainCount());
  for (DomainId id = 0; id < DomainCount(); ++id) {
    fault_profile_of_[id] = &fault_injector_->ResolveProfile(
        operator_names_[table_.op[id]], table_.as_number[id]);
  }
}

std::uint32_t Internet::IpOf(TerminatorId id) const {
  return static_cast<std::uint32_t>(id) + 0x0a000000;
}

Internet::RestartSchedule Internet::RestartScheduleOf(TerminatorId id) const {
  const Maintenance& m = maintenance_[id];
  // Both fields are construction-time constants (only next_restart mutates,
  // under the maintenance mutex), so no locking is needed here.
  return RestartSchedule{m.first_restart, m.restart_every};
}

void Internet::EnsureTopologyIndex() const {
  std::call_once(topo_once_, [&] {
    ip_index_.reserve(term_meta_.size());
    as_index_.reserve(DomainCount());
    for (DomainId id = 0; id < DomainCount(); ++id) {
      const TerminatorId lo = table_.endpoint_lo[id];
      const std::uint16_t count = table_.endpoint_count[id];
      for (std::uint16_t i = 0; i < count; ++i) {
        ip_index_.emplace_back(IpOf(lo + i), id);
      }
      as_index_.emplace_back(table_.as_number[id], id);
    }
    // stable_sort keeps equal keys in generation order — ascending domain
    // id, the order the old insertion-ordered multimap yielded.
    std::stable_sort(ip_index_.begin(), ip_index_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::stable_sort(as_index_.begin(), as_index_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  });
}

namespace {

std::vector<DomainId> RangeLookup(
    const std::vector<std::pair<std::uint32_t, DomainId>>& index,
    std::uint32_t key) {
  std::vector<DomainId> out;
  auto it = std::lower_bound(index.begin(), index.end(), key,
                             [](const auto& entry, std::uint32_t k) {
                               return entry.first < k;
                             });
  for (; it != index.end() && it->first == key; ++it) {
    out.push_back(it->second);
  }
  return out;
}

}  // namespace

std::vector<DomainId> Internet::DomainsOnIp(std::uint32_t ip) const {
  EnsureTopologyIndex();
  return RangeLookup(ip_index_, ip);
}

std::vector<DomainId> Internet::DomainsInAs(std::uint32_t as_number) const {
  EnsureTopologyIndex();
  return RangeLookup(as_index_, as_number);
}

}  // namespace tlsharm::simnet
