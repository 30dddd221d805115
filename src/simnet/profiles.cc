// Paper-calibrated population specification.
//
// Every constant here traces to a specific observation in the paper:
// server-implementation defaults (§4.1–§4.2), STEK rotation behaviour
// (§4.3), ephemeral-value reuse rates (§4.4, Table 1), service-group sizes
// (Tables 5–7), and the named real-world domains of Tables 2–4.
// EXPERIMENTS.md records how well the synthesized ecosystem matches each
// target.
#include <cstdlib>

#include "simnet/spec.h"

namespace tlsharm::simnet {
namespace {

using server::ServerConfig;
using server::StekRotation;
using tls::CipherSuite;

// Suites: ECDHE > DHE > static (the common ordering); some operators
// disable DHE entirely, matching the 57% DHE success rate (§4.4).
std::vector<CipherSuite> AllSuites() {
  return {CipherSuite::kEcdheWithAes128CbcSha256,
          CipherSuite::kDheWithAes128CbcSha256,
          CipherSuite::kStaticWithAes128CbcSha256};
}

std::vector<CipherSuite> NoDheSuites() {
  return {CipherSuite::kEcdheWithAes128CbcSha256,
          CipherSuite::kStaticWithAes128CbcSha256};
}

// Apache mod_ssl defaults: 5-minute session cache, 3-minute (advertised and
// honoured) tickets, per-process STEK.
ServerConfig ApacheDefault() {
  ServerConfig config;
  config.implementation = "apache";
  config.suite_preference = AllSuites();
  config.session_cache.lifetime = 5 * kMinute;
  config.tickets.lifetime_hint_seconds = 180;
  config.tickets.acceptance_window = 3 * kMinute;
  config.stek.rotation = StekRotation::kPerProcess;
  return config;
}

// Nginx default: issues session IDs but never caches them; tickets on with
// a 3-minute window; per-process STEK.
ServerConfig NginxDefault() {
  ServerConfig config = ApacheDefault();
  config.implementation = "nginx";
  config.session_cache.enabled = false;
  config.session_cache.issue_id_without_cache = true;
  return config;
}

// Microsoft IIS: 10-hour session cache (§4.1), SChannel DPAPI-style
// tickets, no DHE.
ServerConfig IisDefault() {
  ServerConfig config;
  config.implementation = "iis";
  config.suite_preference = NoDheSuites();
  config.session_cache.lifetime = 10 * kHour;
  config.tickets.codec = tls::TicketCodecKind::kSChannel;
  config.tickets.lifetime_hint_seconds = 36000;
  config.tickets.acceptance_window = 10 * kHour;
  config.stek.rotation = StekRotation::kPerProcess;
  return config;
}

// Shared-hosting control panels: moderate cache/ticket windows.
ServerConfig SmallHost(SimTime window) {
  ServerConfig config = ApacheDefault();
  config.implementation = "smallhost";
  config.session_cache.lifetime = window;
  config.tickets.lifetime_hint_seconds =
      static_cast<std::uint32_t>(window);
  config.tickets.acceptance_window = window;
  return config;
}

OperatorSpec CloudFlare() {
  OperatorSpec op;
  op.name = "cloudflare";
  // Two session-cache service groups (Table 5: 30,163 + 15,241) under one
  // STEK group (Table 6: 62,176); ~12.5% of trusted HTTPS domains.
  op.trusted_share = 0.155;
  op.instances = 1;
  op.terminators_per_instance = 12;
  op.subfleets = 2;
  op.subfleet_weights = {2.0, 1.0};  // Table 5's 30,163 vs 15,241 groups
  op.share_cache_across_fleet = true;
  op.share_stek_across_fleet = true;
  op.domains_per_cert = 32;  // CloudFlare's SAN-packed free certs
  ServerConfig config;
  config.implementation = "cloudflare";
  config.suite_preference = NoDheSuites();
  config.session_cache.lifetime = 5 * kMinute;
  // Figure 2's 18-hour step: 54,522 CloudFlare domains.
  config.tickets.lifetime_hint_seconds = 18 * 3600;
  config.tickets.acceptance_window = 18 * kHour;
  // Rotated at least daily (§6.1: largest groups reuse < 24h).
  config.stek.rotation = StekRotation::kInterval;
  config.stek.rotation_interval = kDay;
  config.stek.previous_key_acceptance = 18 * kHour;
  op.config = config;
  return op;
}

// Google web properties: 24h+ session caches (86% of the 0.8% of domains
// resuming >= 24h), 28-hour ticket hint, 14h STEK roll with 28h acceptance
// (§7.2). Shares its STEK with Blogspot via the "google" pool.
OperatorSpec GooglePlex() {
  OperatorSpec op;
  op.name = "googleplex";
  op.trusted_share = 0.013;
  op.instances = 1;
  op.terminators_per_instance = 8;
  // One terminator per sub-fleet: per-GFE-pool session caches (no giant
  // Google cache group in Table 5) without load-balancer flapping breaking
  // the 24h+ resumption window of Figure 1.
  op.subfleets = 8;
  op.share_cache_across_fleet = true;
  op.stek_pool = "google";
  op.domains_per_cert = 16;
  ServerConfig config;
  config.implementation = "gfe";
  config.suite_preference = NoDheSuites();
  config.session_cache.lifetime = 25 * kHour;
  config.tickets.lifetime_hint_seconds = 28 * 3600;
  config.tickets.acceptance_window = 28 * kHour;
  config.stek.rotation = StekRotation::kInterval;
  config.stek.rotation_interval = 14 * kHour;
  config.stek.previous_key_acceptance = 14 * kHour;
  op.config = config;
  op.mx_google_fraction = 1.0;
  return op;
}

// Blogspot: five distinct session-cache service groups (Table 5) with
// multi-hour cache lifetimes (§6.2: medians 4.5h–24h).
OperatorSpec Blogspot() {
  OperatorSpec op = GooglePlex();
  op.name = "blogspot";
  op.trusted_share = 0.014;
  op.terminators_per_instance = 10;
  op.subfleets = 5;
  op.config.session_cache.lifetime = 5 * kHour;
  op.mx_google_fraction = 0.0;
  return op;
}

OperatorSpec Automattic() {
  OperatorSpec op;
  op.name = "automattic";
  // Two cache groups (2,247 + 1,552), one STEK group (4,182).
  op.trusted_share = 0.0097;
  op.instances = 1;
  op.terminators_per_instance = 8;
  op.subfleets = 2;
  op.share_cache_across_fleet = true;
  op.share_stek_across_fleet = true;
  op.domains_per_cert = 8;
  ServerConfig config;
  config.implementation = "automattic";
  config.suite_preference = NoDheSuites();
  config.session_cache.lifetime = kHour;
  config.tickets.lifetime_hint_seconds = 3600;
  config.tickets.acceptance_window = kHour;
  config.stek.rotation = StekRotation::kInterval;
  config.stek.rotation_interval = kDay;
  op.config = config;
  return op;
}

OperatorSpec Shopify() {
  OperatorSpec op;
  op.name = "shopify";
  // STEK group 3,247; session-cache group only 593 (Table 5/6): many
  // sub-fleets with private caches under one key file.
  op.trusted_share = 0.0075;
  op.instances = 1;
  op.terminators_per_instance = 10;
  op.subfleets = 5;
  op.share_cache_across_fleet = true;
  op.share_stek_across_fleet = true;
  op.domains_per_cert = 4;
  ServerConfig config;
  config.implementation = "shopify";
  config.suite_preference = NoDheSuites();
  config.session_cache.lifetime = 30 * kMinute;
  config.tickets.lifetime_hint_seconds = 1800;
  config.tickets.acceptance_window = 30 * kMinute;
  config.stek.rotation = StekRotation::kInterval;
  config.stek.rotation_interval = kDay;
  op.config = config;
  return op;
}

OperatorSpec Tumblr() {
  OperatorSpec op;
  op.name = "tumblr";
  // Three separate ~960-domain STEK groups (Table 6).
  op.trusted_share = 0.0067;
  op.instances = 3;
  op.terminators_per_instance = 3;
  op.share_cache_across_fleet = true;
  op.share_stek_across_fleet = true;
  op.domains_per_cert = 8;
  op.config = SmallHost(30 * kMinute);
  op.config.implementation = "tumblr";
  op.config.stek.rotation = StekRotation::kInterval;
  op.config.stek.rotation_interval = kDay;
  return op;
}

OperatorSpec GoDaddy() {
  OperatorSpec op;
  op.name = "godaddy";
  op.trusted_share = 0.0043;
  op.instances = 1;
  op.terminators_per_instance = 6;
  op.share_cache_across_fleet = false;
  op.share_stek_across_fleet = true;
  op.domains_per_cert = 4;
  op.config = SmallHost(10 * kMinute);
  op.config.implementation = "godaddy";
  op.config.stek.rotation = StekRotation::kInterval;
  op.config.stek.rotation_interval = kDay;
  return op;
}

OperatorSpec AmazonElb() {
  OperatorSpec op = GoDaddy();
  op.name = "amazon-elb";
  op.trusted_share = 0.0035;
  op.config.implementation = "elb";
  return op;
}

// SquareSpace: the largest Diffie-Hellman service group (Table 7, 1,627
// domains) — a fleet-shared reused ECDHE value, rotated on deploys.
OperatorSpec SquareSpace() {
  OperatorSpec op;
  op.name = "squarespace";
  op.trusted_share = 0.0038;
  op.instances = 1;
  op.terminators_per_instance = 4;
  op.share_kex_across_fleet = true;
  op.share_stek_across_fleet = true;
  op.domains_per_cert = 4;
  op.config = SmallHost(10 * kMinute);
  op.config.implementation = "squarespace";
  op.config.stek.rotation = StekRotation::kInterval;
  op.config.stek.rotation_interval = kDay;
  op.ecdhe_reuse = {.reuse_fraction = 1.0, .ttl_mix = {{1.0, 4 * kDay}}};
  op.restart_every = 0;
  return op;
}

OperatorSpec LiveJournal() {
  OperatorSpec op = SquareSpace();
  op.name = "livejournal";
  op.trusted_share = 0.0031;
  op.config.implementation = "livejournal";
  op.ecdhe_reuse = {};
  op.dhe_reuse = {.reuse_fraction = 1.0, .ttl_mix = {{1.0, 5 * kDay}}};
  return op;
}

// Jimdo: ~180-domain single-IP hosting servers reusing one ECDHE value for
// ~2.5 weeks (Table 7 + §5.3/§6.3).
OperatorSpec Jimdo() {
  OperatorSpec op;
  op.name = "jimdo";
  op.trusted_share = 0.00083;  // two ~179-domain groups
  op.instances = 2;
  op.terminators_per_instance = 1;
  op.domains_per_cert = 8;
  op.config = SmallHost(10 * kMinute);
  op.config.implementation = "jimdo";
  op.ecdhe_reuse = {.reuse_fraction = 1.0, .ttl_mix = {{1.0, 18 * kDay}}};
  return op;
}

// The main body of the web: default-configured Apache/Nginx/IIS plus
// shared hosting, split by maintenance cadence to produce the paper's STEK
// span distribution (§4.3: 41% daily, 4% 2–6d, 12% 7–29d, 10% 30d+ of
// trusted domains — tuned against Fig. 3/Fig. 8).
std::vector<OperatorSpec> GenericWeb() {
  std::vector<OperatorSpec> ops;

  // Shares are tuned so that, after mixing with the named operators above
  // and the transient tail, Table 1's support rates emerge: ~59% of trusted
  // domains accept a DHE-only offer, ~89% complete ECDHE, ~81% issue
  // tickets (23% of the *stable* cohort never issue, §4.3).
  auto add = [&ops](const char* name, double share, int instances,
                    ServerConfig config, SimTime restart,
                    ReuseMix dhe = {}, ReuseMix ecdhe = {}) {
    OperatorSpec op;
    op.name = name;
    op.trusted_share = share;
    op.instances = instances;
    op.config = std::move(config);
    op.restart_every = restart;
    op.dhe_reuse = std::move(dhe);
    op.ecdhe_reuse = std::move(ecdhe);
    op.mx_google_fraction = 0.09;
    ops.push_back(std::move(op));
  };

  ServerConfig apache_nodhe = ApacheDefault();
  apache_nodhe.suite_preference = NoDheSuites();
  // "apache-old": ECDHE disabled entirely (pre-ECC builds), producing the
  // ~11% of trusted domains that fail an ECDHE-only offer.
  ServerConfig apache_old = ApacheDefault();
  apache_old.suite_preference = {CipherSuite::kDheWithAes128CbcSha256,
                                 CipherSuite::kStaticWithAes128CbcSha256};

  add("apache-daily", 0.17, 1800, ApacheDefault(), 16 * kHour,
      {.reuse_fraction = 0.10, .ttl_mix = {{1.0, 6 * kHour}}},
      {.reuse_fraction = 0.22, .ttl_mix = {{1.0, 8 * kHour}}});
  add("apache-daily-nodhe", 0.03, 400, apache_nodhe, 16 * kHour, {},
      {.reuse_fraction = 0.22, .ttl_mix = {{1.0, 8 * kHour}}});
  add("nginx-daily", 0.068, 900, NginxDefault(), 16 * kHour, {},
      {.reuse_fraction = 0.20, .ttl_mix = {{1.0, 8 * kHour}}});
  add("apache-weekly", 0.05, 700, ApacheDefault(), 4 * kDay,
      {.reuse_fraction = 0.10, .ttl_mix = {{1.0, 6 * kHour}}},
      {.reuse_fraction = 0.22, .ttl_mix = {{1.0, 8 * kHour}}});
  add("apache-weekly-nodhe", 0.02, 300, apache_nodhe, 4 * kDay, {},
      {.reuse_fraction = 0.22, .ttl_mix = {{1.0, 8 * kHour}}});
  // Long-cache boutique hosts fill Figure 1's tail between the IIS 10-hour
  // step and the 24-hour Google plateau.
  add("smallhost-12h", 0.04, 400, SmallHost(12 * kHour), 9 * kDay, {},
      {.reuse_fraction = 0.20, .ttl_mix = {{1.0, 8 * kHour}}});
  add("apache-old", 0.075, 900, apache_old, 16 * kHour,
      {.reuse_fraction = 0.12, .ttl_mix = {{1.0, 6 * kHour}}});
  {
    OperatorSpec op;
    op.name = "iis-monthly";
    op.trusted_share = 0.06;
    op.instances = 600;
    op.terminators_per_instance = 2;
    op.config = IisDefault();
    op.restart_every = 18 * kDay;  // jittered ~11–25 days
    op.mx_google_fraction = 0.05;
    ops.push_back(op);
  }
  ServerConfig smallhost_monthly = SmallHost(30 * kMinute);
  smallhost_monthly.tickets.lifetime_hint_seconds = 0;  // hint unspecified
  add("smallhost-monthly", 0.04, 400, smallhost_monthly, 16 * kDay,
      {.reuse_fraction = 0.10, .ttl_mix = {{1.0, 12 * kHour}}},
      {.reuse_fraction = 0.25, .ttl_mix = {{1.0, 12 * kHour}}});
  // Never maintained: per-process STEKs live for the whole study, and this
  // is where long-lived (EC)DHE reuse concentrates (§4.4's tail).
  ServerConfig smallhost_never = SmallHost(30 * kMinute);
  smallhost_never.tickets.lifetime_hint_seconds = 180;
  smallhost_never.tickets.acceptance_window = 3 * kMinute;
  add("smallhost-never", 0.073, 700, smallhost_never, 0,
      {.reuse_fraction = 0.10,
       .ttl_mix = {{0.05, 2 * kDay}, {0.65, 12 * kDay}, {0.30, 0}}},
      {.reuse_fraction = 0.50,
       .ttl_mix = {{0.20, 8 * kHour},
                   {0.10, 2 * kDay},
                   {0.30, 12 * kDay},
                   {0.40, 0}}});
  // Domains that never issue tickets (23% of the stable trusted cohort,
  // §4.3). Half session-cache-only Apache, half no resumption at all.
  {
    ServerConfig config = ApacheDefault();
    config.tickets.enabled = false;
    add("no-tickets-cache", 0.115, 1200, config, 3 * kDay,
        {.reuse_fraction = 0.08, .ttl_mix = {{1.0, 6 * kHour}}},
        {.reuse_fraction = 0.18, .ttl_mix = {{1.0, 8 * kHour}}});
  }
  {
    // Nginx defaults with tickets off: issues session IDs it will never
    // resume (part of Figure 1's 97%-indicated vs 83%-resumed gap).
    ServerConfig config = NginxDefault();
    config.tickets.enabled = false;
    add("no-tickets-nginx", 0.065, 700, config, 3 * kDay, {},
        {.reuse_fraction = 0.18, .ttl_mix = {{1.0, 8 * kHour}}});
  }
  {
    // No resumption machinery at all: no cache, no ID in ServerHello, no
    // tickets (the ~3% of trusted domains that indicate nothing).
    ServerConfig config = NginxDefault();
    config.tickets.enabled = false;
    config.session_cache.issue_id_without_cache = false;
    config.suite_preference = NoDheSuites();
    add("no-tickets-no-resume", 0.05, 500, config, 3 * kDay, {},
        {.reuse_fraction = 0.18, .ttl_mix = {{1.0, 8 * kHour}}});
  }
  return ops;
}

std::vector<NamedGroupSpec> NamedGroups() {
  std::vector<NamedGroupSpec> groups;

  auto static_stek_group = [](std::string name, int per_million,
                              std::vector<int> rotations = {}) {
    NamedGroupSpec group;
    group.operator_name = std::move(name);
    group.domains_per_million = per_million;
    ServerConfig config;
    config.implementation = group.operator_name;
    config.suite_preference = NoDheSuites();
    config.session_cache.lifetime = 5 * kMinute;
    config.tickets.lifetime_hint_seconds = 3600;
    config.tickets.acceptance_window = kHour;
    config.stek.rotation = StekRotation::kStatic;
    group.config = config;
    group.stek_rotation_days = std::move(rotations);
    return group;
  };

  // Fastly: same STEK for the entire nine weeks (§6.1) — foursquare.com,
  // www.gov.uk, aclu.org et al.
  {
    NamedGroupSpec fastly = static_stek_group("fastly", 700);
    fastly.terminators = 4;
    fastly.share_cache = false;
    groups.push_back(fastly);
  }
  // TMall: large static-STEK group (Table 6: 3,305 domains; Fig. 6 red).
  {
    NamedGroupSpec tmall = static_stek_group("tmall", 3305);
    tmall.terminators = 8;
    tmall.share_cache = false;
    groups.push_back(tmall);
  }
  // Jack Henry & Associates: 79 bank/credit-union domains, one STEK for 59
  // days, then a coordinated rotation to another shared key (§6.1).
  groups.push_back(static_stek_group("jackhenry", 79, {59}));

  // Hostway: the most widely shared DHE value (137 domains, §5.3).
  {
    NamedGroupSpec group;
    group.operator_name = "hostway";
    group.domains_per_million = 137;
    ServerConfig config = ApacheDefault();
    config.implementation = "hostway";
    config.dhe_reuse = {.reuse = true, .ttl = 0};
    config.stek.rotation = StekRotation::kPerProcess;
    group.config = config;
    group.share_kex = true;
    groups.push_back(group);
  }
  // Affinity Internet: one DHE value across 91–146 domains for 62 days.
  {
    NamedGroupSpec group;
    group.operator_name = "affinity";
    group.domains_per_million = 146;
    ServerConfig config = ApacheDefault();
    config.implementation = "affinity";
    config.dhe_reuse = {.reuse = true, .ttl = 0};
    group.config = config;
    group.share_kex = true;
    groups.push_back(group);
  }
  // Smaller named DH groups of Table 7.
  for (const auto& [name, count, ttl_days] :
       std::vector<std::tuple<const char*, int, int>>{
           {"distil", 174, 3},
           {"atypon", 167, 5},
           {"line-corp", 114, 4},
           {"digital-insight", 98, 6},
           {"edgecast", 75, 2}}) {
    NamedGroupSpec group;
    group.operator_name = name;
    group.domains_per_million = count;
    ServerConfig config = SmallHost(10 * kMinute);
    config.implementation = name;
    config.ecdhe_reuse = {.reuse = true, .ttl = ttl_days * kDay};
    group.config = config;
    group.share_kex = true;
    groups.push_back(group);
  }
  return groups;
}

// Rotation days producing a *maximum* observed span of `span` days over a
// 63-day study: rotate every `span` days (the final partial epoch is
// shorter, so the longest epoch is exactly `span`).
std::vector<int> RotationsEvery(int span) {
  std::vector<int> days;
  for (int day = span; day < 63; day += span) days.push_back(day);
  return days;
}

// Named domains of Tables 2–4 plus context domains. A span of S days is
// produced by rotating every S days.
std::vector<NamedDomainSpec> NamedDomains() {
  std::vector<NamedDomainSpec> named;

  ServerConfig default_config = ApacheDefault();
  default_config.tickets.lifetime_hint_seconds = 3600;
  default_config.tickets.acceptance_window = kHour;

  auto add = [&named](const std::string& domain, int rank,
                      ServerConfig config) -> NamedDomainSpec& {
    NamedDomainSpec spec;
    spec.domain = domain;
    spec.rank = rank;
    spec.config = std::move(config);
    named.push_back(std::move(spec));
    return named.back();
  };

  // Head-of-list context: rotate STEKs daily (Google, Twitter, YouTube,
  // Baidu per §4.3), generous session caches for Google/Facebook (§4.1).
  {
    ServerConfig config = default_config;
    config.suite_preference = NoDheSuites();
    config.stek.rotation = StekRotation::kInterval;
    config.stek.rotation_interval = 14 * kHour;
    config.stek.previous_key_acceptance = 14 * kHour;
    config.session_cache.lifetime = 25 * kHour;
    config.tickets.lifetime_hint_seconds = 28 * 3600;
    config.tickets.acceptance_window = 28 * kHour;
    add("google.com", 1, config);
    add("youtube.com", 3, config);
    config.session_cache.lifetime = 25 * kHour;  // Facebook CDN >24h IDs
    config.stek.rotation_interval = kDay;
    add("facebook.com", 2, config);
    config.session_cache.lifetime = 5 * kMinute;
    add("baidu.com", 4, config);
    add("twitter.com", 8, config);
  }

  // Table 2: prolonged STEK reuse (span in days; 63 = never seen rotating).
  auto stek_domain = [&](const std::string& domain, int rank, int span) {
    ServerConfig config = default_config;
    config.stek.rotation = StekRotation::kStatic;
    auto& spec = add(domain, rank, config);
    if (span < 63) spec.stek_rotation_days = RotationsEvery(span);
  };
  stek_domain("yahoo.com", 5, 63);
  stek_domain("qq.com", 19, 56);
  stek_domain("taobao.com", 20, 63);
  stek_domain("pinterest.com", 21, 63);
  stek_domain("imgur.com", 35, 63);
  stek_domain("tmall.com", 41, 63);
  stek_domain("pornhub.com", 55, 29);
  stek_domain("mail.ru", 27, 63);
  stek_domain("slack.com", 430, 18);
  // Yandex: eight TLDs, one static STEK since before the study (§7.2).
  int yandex_rank = 28;
  for (const char* tld :
       {"ru", "com", "com.tr", "ua", "by", "kz", "uz", "net"}) {
    stek_domain(std::string("yandex.") + tld, yandex_rank, 63);
    yandex_rank += 120;
  }

  // fc2.com: 18 days for both STEK and DHE (Tables 2 and 3).
  {
    ServerConfig config = default_config;
    config.stek.rotation = StekRotation::kStatic;
    config.dhe_reuse = {.reuse = true, .ttl = 0};
    auto& spec = add("fc2.com", 53, config);
    spec.stek_rotation_days = RotationsEvery(18);
    spec.dhe_rotation_days = RotationsEvery(18);
  }
  // netflix.com: STEK 54d (Table 2), DHE 59d (Table 3), ECDHE 59d (Table 4).
  {
    ServerConfig config = default_config;
    config.stek.rotation = StekRotation::kStatic;
    config.dhe_reuse = {.reuse = true, .ttl = 0};
    config.ecdhe_reuse = {.reuse = true, .ttl = 0};
    auto& spec = add("netflix.com", 31, config);
    spec.stek_rotation_days = RotationsEvery(54);
    spec.dhe_rotation_days = RotationsEvery(59);
  }

  // Table 3: prolonged DHE reuse.
  auto dhe_domain = [&](const std::string& domain, int rank, int span) {
    ServerConfig config = default_config;
    config.dhe_reuse = {.reuse = true, .ttl = 0};
    config.stek.rotation = StekRotation::kInterval;
    config.stek.rotation_interval = kDay;
    auto& spec = add(domain, rank, config);
    if (span < 63) spec.dhe_rotation_days = RotationsEvery(span);
  };
  dhe_domain("ebay.in", 392, 7);
  dhe_domain("ebay.it", 456, 8);
  dhe_domain("kayak.com", 580, 13);
  dhe_domain("cbssports.com", 592, 60);
  dhe_domain("gamefaqs.com", 626, 12);
  dhe_domain("overstock.com", 633, 17);
  dhe_domain("cookpad.com", 730, 63);
  dhe_domain("commsec.com.au", 4200, 36);
  // kayak country domains with 6-18 day DHE reuse (the paper saw 32;\n  // we embed 8 to limit small-scale distortion of the DHE tail).
  for (int i = 0; i < 8; ++i) {
    dhe_domain("kayak.tld" + std::to_string(i) + ".sim", 5000 + 37 * i,
               6 + (i % 13));
  }

  // bleacherreport.com: 24 days in both Table 3 and Table 4.
  {
    ServerConfig config = default_config;
    config.dhe_reuse = {.reuse = true, .ttl = 0};
    config.ecdhe_reuse = {.reuse = true, .ttl = 0};
    config.stek.rotation = StekRotation::kInterval;
    config.stek.rotation_interval = kDay;
    auto& spec = add("bleacherreport.com", 528, config);
    spec.dhe_rotation_days = RotationsEvery(24);
  }

  // Table 4: prolonged ECDHE reuse.
  auto ecdhe_domain = [&](const std::string& domain, int rank, int span) {
    ServerConfig config = default_config;
    config.suite_preference = NoDheSuites();
    config.ecdhe_reuse = {.reuse = true, .ttl = 0};
    config.stek.rotation = StekRotation::kInterval;
    config.stek.rotation_interval = kDay;
    auto& spec = add(domain, rank, config);
    if (span < 63) spec.ecdhe_rotation_days = RotationsEvery(span);
  };
  ecdhe_domain("whatsapp.com", 74, 62);
  ecdhe_domain("vice.com", 158, 26);
  ecdhe_domain("9gag.com", 221, 31);
  ecdhe_domain("liputan6.com", 322, 28);
  ecdhe_domain("paytm.com", 353, 27);
  ecdhe_domain("playstation.com", 464, 11);
  ecdhe_domain("woot.com", 527, 62);
  ecdhe_domain("leagueoflegends.com", 615, 27);
  ecdhe_domain("betterment.com", 6100, 62);
  ecdhe_domain("mint.com", 1900, 62);
  ecdhe_domain("symantec.com", 1500, 41);
  ecdhe_domain("symanteccloud.com", 8000, 16);
  ecdhe_domain("norton.com", 2600, 19);

  // fantabob*: the 90-day lifetime-hint outliers of §4.2.
  for (const char* domain : {"fantabobworld.com", "fantabobshow.com"}) {
    ServerConfig config = default_config;
    config.tickets.lifetime_hint_seconds = 90 * 86400;
    config.tickets.acceptance_window = 24 * kHour;
    config.stek.rotation = StekRotation::kStatic;
    add(domain, 300000 + (domain[7] == 'w' ? 0 : 1), config);
  }
  return named;
}

}  // namespace

std::size_t DefaultPopulationSize(std::size_t fallback) {
  if (const char* env = std::getenv("TLSHARM_POPULATION")) {
    const long parsed = std::atol(env);
    if (parsed >= 100) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

PopulationSpec PaperPopulationSpec(std::size_t top_list_size) {
  PopulationSpec spec;
  spec.top_list_size =
      top_list_size == 0 ? DefaultPopulationSize() : top_list_size;
  spec.https_fraction = 0.68;
  spec.trusted_fraction = 0.54;

  spec.operators.push_back(CloudFlare());
  spec.operators.push_back(GooglePlex());
  spec.operators.push_back(Blogspot());
  spec.operators.push_back(Automattic());
  spec.operators.push_back(Shopify());
  spec.operators.push_back(Tumblr());
  spec.operators.push_back(GoDaddy());
  spec.operators.push_back(AmazonElb());
  spec.operators.push_back(SquareSpace());
  spec.operators.push_back(LiveJournal());
  spec.operators.push_back(Jimdo());
  for (auto& op : GenericWeb()) spec.operators.push_back(std::move(op));

  spec.named_groups = NamedGroups();
  spec.named_domains = NamedDomains();
  return spec;
}

}  // namespace tlsharm::simnet
