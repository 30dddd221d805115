// bench_crypto: crypto hot-path microbenchmarks, reference vs optimized.
//
// Times the primitives the probe hot path lives in — fixed-base and
// variable-base modular exponentiation, Schnorr sign/verify, the TLS 1.2
// PRF, the HMAC-DRBG, SHA-256 and AES-128-CBC ticket decryption (the
// SHA-NI / AES-NI kernels on CPUs that have them) — and a full end-to-end
// probe loop, each once with
// the naive reference implementations (TLSHARM_REFERENCE_CRYPTO semantics,
// toggled in-process via crypto::SetReferenceCrypto) and once with the
// optimized paths. Every pair of runs is differentially checked: the
// optimized path must produce byte-identical outputs, and the probe loop
// identical observations. Results land in BENCH_crypto.json.
//
// `--selftest` runs the same differential checks at reduced iteration
// counts and skips the JSON report — the CI sanitizer gate. Both modes
// print which kernels the optimized side ran (crypto::ActiveCryptoKernels).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "crypto/aes128.h"
#include "crypto/biguint.h"
#include "crypto/drbg.h"
#include "crypto/ffdh.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "crypto/tuning.h"
#include "scanner/prober.h"
#include "simnet/internet.h"

using namespace tlsharm;
using crypto::BigUInt;
using crypto::Montgomery;

namespace {

bool g_selftest = false;
bool g_all_ok = true;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("DIFFERENTIAL MISMATCH: %s\n", what);
    g_all_ok = false;
  }
}

// Wall-clock microseconds for `iters` runs of `fn`, divided per iteration.
template <typename Fn>
double UsPerOp(int iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn(i);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         iters;
}

void PrintSpeedup(const std::string& what, double ref_us, double opt_us) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.2f us -> %.2f us (%.2fx)", ref_us,
                opt_us, opt_us > 0 ? ref_us / opt_us : 0);
  bench::PrintRow(what, "-", buf);
}

void ReportPair(bench::JsonReport& report, const std::string& key,
                double ref_us, double opt_us) {
  report.Add(key + "_ref_us", ref_us);
  report.Add(key + "_opt_us", opt_us);
  report.Add(key + "_speedup", opt_us > 0 ? ref_us / opt_us : 0.0);
}

// Folds the analysis-relevant observation fields into a running digest so
// the reference and optimized probe loops can be compared exactly.
std::uint64_t FoldObservation(std::uint64_t acc,
                              const scanner::HandshakeObservation& o) {
  const auto mix = [&acc](std::uint64_t v) {
    acc ^= v + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  };
  mix(o.domain);
  mix(static_cast<std::uint64_t>(o.time));
  mix((o.connected ? 1u : 0u) | (o.handshake_ok ? 2u : 0u) |
      (o.trusted ? 4u : 0u) | (o.session_id_set ? 8u : 0u) |
      (o.ticket_issued ? 16u : 0u));
  mix(static_cast<std::uint64_t>(o.failure));
  mix(static_cast<std::uint64_t>(o.suite));
  mix(o.kex_group);
  mix(o.kex_value);
  mix(o.session_id);
  mix(o.ticket_lifetime_hint);
  mix(o.stek_id);
  return acc;
}

// --- fixed/variable-base modular exponentiation ----------------------------

struct ModexpResult {
  double fixed_ref_us = 0, fixed_opt_us = 0;
  double window_ref_us = 0, window_opt_us = 0;
};

ModexpResult BenchModexpGroup(const crypto::FfdhParams& params, int iters) {
  const BigUInt p = BigUInt::FromHex(params.p_hex);
  const BigUInt q = BigUInt::FromHex(params.q_hex);
  const BigUInt g = BigUInt::FromU64(params.g);
  const Montgomery mont(p);
  const Montgomery::FixedBaseTable table =
      mont.PrecomputeFixedBase(g, q.BitLength());

  // Deterministic exponents in [0, q) and a variable base in [0, p).
  crypto::Drbg drbg(Bytes{'m', 'o', 'd', 'e', 'x', 'p'});
  const Montgomery mont_q(q);
  const std::size_t q_width = (q.BitLength() + 7) / 8;
  std::vector<BigUInt> exps;
  for (int i = 0; i < iters; ++i) {
    exps.push_back(mont_q.ReduceBytes(drbg.Generate(q_width)));
  }
  const BigUInt base = mont.Reduce(BigUInt::FromBytes(drbg.Generate(
      (p.BitLength() + 7) / 8 + 8)));

  ModexpResult r;
  std::uint64_t sink = 0;

  // Fixed base (the keygen/sign/DH-public shape).
  r.fixed_ref_us = UsPerOp(
      iters, [&](int i) { sink ^= mont.PowModReference(g, exps[i]).Limb(0); });
  r.fixed_opt_us = UsPerOp(iters, [&](int i) {
    sink ^= mont.PowModFixedBase(table, exps[i]).Limb(0);
  });

  // Variable base (the shared-secret shape), via the global dispatch.
  crypto::SetReferenceCrypto(true);
  r.window_ref_us = UsPerOp(
      iters, [&](int i) { sink ^= mont.PowMod(base, exps[i]).Limb(0); });
  crypto::SetReferenceCrypto(false);
  r.window_opt_us = UsPerOp(
      iters, [&](int i) { sink ^= mont.PowMod(base, exps[i]).Limb(0); });

  // Differential: every optimized path equals the reference ladder, over
  // the random exponents plus the edge cases.
  std::vector<BigUInt> edge = {BigUInt(), BigUInt::FromU64(1),
                               BigUInt::FromU64(2),
                               q,
                               BigUInt::Sub(q, BigUInt::FromU64(1)),
                               BigUInt::Add(q, BigUInt::FromU64(1))};
  for (std::size_t bit = 1; bit < q.BitLength(); bit *= 2) {
    BigUInt e = BigUInt::FromU64(1);
    for (std::size_t i = 0; i < bit; ++i) e = e.ShiftLeft1();
    edge.push_back(e);  // 2^bit
  }
  std::vector<BigUInt> checks = edge;
  const int check_count = g_selftest ? iters : std::min(iters, 16);
  checks.insert(checks.end(), exps.begin(), exps.begin() + check_count);
  const Montgomery::OddPowers odd = mont.PrecomputeOddPowers(base);
  const Montgomery::WindowTable gw = mont.PrecomputeWindowTable(g);
  const Montgomery::WindowTable bw = mont.PrecomputeWindowTable(base);
  for (const BigUInt& e : checks) {
    Check(mont.PowModWindowed(odd, e) == mont.PowModReference(base, e),
          "PowModWindowed vs reference");
    if (e.BitLength() <= table.MaxExpBits()) {
      Check(mont.PowModFixedBase(table, e) == mont.PowModReference(g, e),
            "PowModFixedBase vs reference");
    }
    const BigUInt lhs = mont.PowModDouble(gw, e, bw, e);
    Check(lhs == mont.MulMod(mont.PowModReference(g, e),
                             mont.PowModReference(base, e)),
          "PowModDouble vs reference");
  }
  if (sink == 0xdeadbeef) std::printf("");  // keep the sink alive
  return r;
}

// --- Schnorr sign / verify -------------------------------------------------

struct SchnorrResult {
  double sign_ref_us = 0, sign_opt_us = 0;
  double verify_ref_us = 0, verify_opt_us = 0;
};

SchnorrResult BenchSchnorr(const crypto::SchnorrScheme& scheme, int iters) {
  crypto::Drbg keygen_drbg(Bytes{'s', 'c', 'h', 'n', 'o', 'r', 'r'});
  const crypto::SchnorrKeyPair kp = scheme.GenerateKeyPair(keygen_drbg);
  std::vector<Bytes> messages;
  for (int i = 0; i < iters; ++i) messages.push_back(keygen_drbg.Generate(32));

  SchnorrResult r;
  // Identically seeded DRBGs give both modes the same nonce stream, so the
  // timed work — and the resulting signatures — match exactly.
  std::vector<crypto::SchnorrSignature> sigs_ref, sigs_opt;
  sigs_ref.reserve(messages.size());
  sigs_opt.reserve(messages.size());
  crypto::Drbg sign_ref(Bytes{'n', 'o', 'n', 'c', 'e'});
  crypto::Drbg sign_opt(Bytes{'n', 'o', 'n', 'c', 'e'});
  crypto::SetReferenceCrypto(true);
  r.sign_ref_us = UsPerOp(iters, [&](int i) {
    sigs_ref.push_back(scheme.Sign(kp.private_key, messages[i], sign_ref));
  });
  crypto::SetReferenceCrypto(false);
  r.sign_opt_us = UsPerOp(iters, [&](int i) {
    sigs_opt.push_back(scheme.Sign(kp.private_key, messages[i], sign_opt));
  });
  for (int i = 0; i < iters; ++i) {
    Check(sigs_ref[i].e == sigs_opt[i].e && sigs_ref[i].s == sigs_opt[i].s,
          "Schnorr signature bytes reference vs optimized");
  }

  crypto::SetReferenceCrypto(true);
  r.verify_ref_us = UsPerOp(iters, [&](int i) {
    Check(scheme.Verify(kp.public_key, messages[i], sigs_ref[i]),
          "reference verify accepts");
  });
  crypto::SetReferenceCrypto(false);
  r.verify_opt_us = UsPerOp(iters, [&](int i) {
    Check(scheme.Verify(kp.public_key, messages[i], sigs_ref[i]),
          "optimized verify accepts");
  });
  // Both modes must also agree on rejection.
  crypto::SchnorrSignature bad = sigs_ref[0];
  bad.e[0] ^= 0x01;
  crypto::SetReferenceCrypto(true);
  const bool ref_rejects = !scheme.Verify(kp.public_key, messages[0], bad);
  crypto::SetReferenceCrypto(false);
  const bool opt_rejects = !scheme.Verify(kp.public_key, messages[0], bad);
  Check(ref_rejects && opt_rejects, "both modes reject a forged signature");
  return r;
}

// --- PRF and DRBG ----------------------------------------------------------

void BenchPrfDrbg(bench::JsonReport* report, int iters) {
  crypto::Drbg seed_drbg(Bytes{'p', 'r', 'f'});
  const Bytes secret = seed_drbg.Generate(48);
  Bytes seed = seed_drbg.Generate(64);

  // Vary the seed each iteration so the cross-call memo never hits and the
  // row isolates the HMAC-midstate win; the memo's effect is measured by the
  // end-to-end probe row instead.
  const auto vary_seed = [&seed](int i) {
    seed[0] = static_cast<std::uint8_t>(i);
    seed[1] = static_cast<std::uint8_t>(i >> 8);
    seed[2] = static_cast<std::uint8_t>(i >> 16);
  };
  Bytes ref_out, opt_out;
  crypto::SetReferenceCrypto(true);
  const double prf_ref_us = UsPerOp(iters, [&](int i) {
    vary_seed(i);
    ref_out = crypto::Tls12Prf(secret, "key expansion", seed, 104);
  });
  crypto::SetReferenceCrypto(false);
  const double prf_opt_us = UsPerOp(iters, [&](int i) {
    vary_seed(i);
    opt_out = crypto::Tls12Prf(secret, "key expansion", seed, 104);
  });
  Check(ref_out == opt_out, "TLS 1.2 PRF reference vs optimized");

  crypto::Drbg drbg_ref(secret), drbg_opt(secret);
  crypto::SetReferenceCrypto(true);
  const double drbg_ref_us =
      UsPerOp(iters, [&](int) { ref_out = drbg_ref.Generate(32); });
  crypto::SetReferenceCrypto(false);
  const double drbg_opt_us =
      UsPerOp(iters, [&](int) { opt_out = drbg_opt.Generate(32); });
  Check(ref_out == opt_out, "HMAC-DRBG stream reference vs optimized");

  // One-shot HMAC over a short ticket-sized message.
  const Bytes mac_key = seed_drbg.Generate(32);
  const Bytes msg = seed_drbg.Generate(192);
  crypto::SetReferenceCrypto(true);
  const double hmac_ref_us =
      UsPerOp(iters, [&](int) { ref_out = crypto::HmacSha256Bytes(mac_key, msg); });
  crypto::SetReferenceCrypto(false);
  const double hmac_opt_us =
      UsPerOp(iters, [&](int) { opt_out = crypto::HmacSha256Bytes(mac_key, msg); });
  Check(ref_out == opt_out, "HMAC-SHA256 reference vs optimized");

  PrintSpeedup("TLS 1.2 PRF (48B secret -> 104B)", prf_ref_us, prf_opt_us);
  PrintSpeedup("HMAC-DRBG Generate(32)", drbg_ref_us, drbg_opt_us);
  PrintSpeedup("HMAC-SHA256 (192B message)", hmac_ref_us, hmac_opt_us);
  if (report != nullptr) {
    ReportPair(*report, "prf", prf_ref_us, prf_opt_us);
    ReportPair(*report, "drbg_generate", drbg_ref_us, drbg_opt_us);
    ReportPair(*report, "hmac", hmac_ref_us, hmac_opt_us);
  }
}

// --- SHA-256 and AES-128-CBC (the hardware-kernel primitives) -------------

void BenchShaAes(bench::JsonReport* report, int iters) {
  crypto::Drbg drbg(Bytes{'k', 'e', 'r', 'n', 'e', 'l'});
  // The first 8 digest bytes of every iteration, folded, so the check
  // covers each timed call and not only the last.
  const auto fold = [](std::uint64_t acc, const crypto::Sha256Digest& d) {
    for (int i = 0; i < 8; ++i) acc = acc * 131 + d[i];
    return acc;
  };
  double sha_us[2][2] = {};  // [message][reference, optimized]
  const std::size_t sizes[2] = {64, 1024};
  for (int m = 0; m < 2; ++m) {
    Bytes msg = drbg.Generate(sizes[m]);
    std::uint64_t acc[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      crypto::SetReferenceCrypto(mode == 0);
      sha_us[m][mode] = UsPerOp(iters, [&](int i) {
        msg[0] = static_cast<std::uint8_t>(i);
        acc[mode] = fold(acc[mode], crypto::Sha256Hash(msg));
      });
    }
    Check(acc[0] == acc[1], m == 0 ? "SHA-256 (64B) reference vs optimized"
                                   : "SHA-256 (1KiB) reference vs optimized");
  }

  // An RFC 5077 ticket body: the 59-byte serialized session state, 64 bytes
  // once padded, decrypted under a STEK's pre-expanded cipher.
  const crypto::Aes128 cipher(crypto::ToAesKey(drbg.Generate(16)));
  const crypto::AesBlock iv = crypto::ToAesBlock(drbg.Generate(16));
  const Bytes state = drbg.Generate(59);
  Bytes ct[2];
  std::optional<Bytes> pt[2];
  double aes_us[2] = {};
  for (int mode = 0; mode < 2; ++mode) {
    crypto::SetReferenceCrypto(mode == 0);
    ct[mode] = crypto::Aes128CbcEncrypt(cipher, iv, state);
    aes_us[mode] = UsPerOp(iters, [&](int) {
      pt[mode] = crypto::Aes128CbcDecrypt(cipher, iv, ct[mode]);
    });
  }
  Check(ct[0] == ct[1], "AES-128-CBC encrypt reference vs optimized");
  Check(pt[0] == pt[1] && pt[1] == state,
        "AES-128-CBC ticket decrypt reference vs optimized");

  PrintSpeedup("SHA-256 (64B message)", sha_us[0][0], sha_us[0][1]);
  PrintSpeedup("SHA-256 (1KiB message)", sha_us[1][0], sha_us[1][1]);
  PrintSpeedup("AES-128-CBC ticket decrypt (64B)", aes_us[0], aes_us[1]);
  if (report != nullptr) {
    ReportPair(*report, "sha256_64b", sha_us[0][0], sha_us[0][1]);
    ReportPair(*report, "sha256_1kib", sha_us[1][0], sha_us[1][1]);
    ReportPair(*report, "aes_cbc_ticket_decrypt", aes_us[0], aes_us[1]);
  }
}

// --- end-to-end probe loop -------------------------------------------------

struct ProbeLoopResult {
  double us_per_probe = 0;            // over all probes (handshake + resume)
  double handshake_us_per_probe = 0;  // full handshakes only
  double resume_us_per_probe = 0;     // resumption attempts only
  std::uint64_t probes = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t resumes = 0;
  std::uint64_t digest = 0;
};

// Probes every domain of a freshly built world for `days` days, with full
// results and a resumption attempt per successful day-0 session — the
// daily-scan shape, compressed. A fresh world per mode keeps server-side
// state (session caches, STEK schedules) identical across modes.
ProbeLoopResult RunProbeLoop(bool reference, std::size_t population,
                             int days) {
  crypto::SetReferenceCrypto(reference);
  simnet::Internet net(simnet::PaperPopulationSpec(population), 991);
  scanner::Prober prober(net, 992);
  scanner::ProbeOptions options;
  options.want_full_result = true;

  ProbeLoopResult r;
  std::vector<scanner::StoredSession> sessions;
  double handshake_us = 0, resume_us = 0;
  const auto section_us = [](auto fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  for (int day = 0; day < days; ++day) {
    const SimTime now = static_cast<SimTime>(day) * 86400 + 3600;
    handshake_us += section_us([&] {
      for (simnet::DomainId id = 0; id < net.DomainCount(); ++id) {
        const scanner::ProbeResult result = prober.Probe(id, now, options);
        r.digest = FoldObservation(r.digest, result.observation);
        ++r.handshakes;
        if (day == 0 && result.session.valid) {
          sessions.push_back(result.session);
        }
      }
    });
    // Resumption sweep: replay every stored day-0 session.
    resume_us += section_us([&] {
      for (const scanner::StoredSession& session : sessions) {
        const bool accepted =
            prober.TryResume(session, session.domain, now + 7200);
        r.digest = r.digest * 3 + (accepted ? 2 : 1);
        ++r.resumes;
      }
    });
  }
  r.probes = r.handshakes + r.resumes;
  r.handshake_us_per_probe = handshake_us / static_cast<double>(r.handshakes);
  r.resume_us_per_probe =
      r.resumes == 0 ? 0 : resume_us / static_cast<double>(r.resumes);
  r.us_per_probe = (handshake_us + resume_us) / static_cast<double>(r.probes);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  g_selftest = argc > 1 && std::strcmp(argv[1], "--selftest") == 0;
  const int iters = g_selftest ? 40 : 400;
  const std::size_t population = g_selftest ? 150 : 450;
  const int days = g_selftest ? 2 : 3;

  std::printf("== crypto hot paths: reference vs optimized ==\n");
  // Every pair sets the mode itself, so name the kernels the optimized
  // side runs whatever TLSHARM_REFERENCE_CRYPTO says.
  crypto::SetReferenceCrypto(false);
  std::printf("optimized crypto kernels: %s\n",
              crypto::ActiveCryptoKernels().c_str());

  bench::JsonReport report("crypto");
  report.AddString("kernels", crypto::ActiveCryptoKernels());

  const ModexpResult m61 = BenchModexpGroup(crypto::FfdhSim61Params(), iters);
  const ModexpResult m256 =
      BenchModexpGroup(crypto::FfdhSim256Params(), iters);
  PrintSpeedup("modexp fixed-base sim61", m61.fixed_ref_us, m61.fixed_opt_us);
  PrintSpeedup("modexp fixed-base sim256", m256.fixed_ref_us,
               m256.fixed_opt_us);
  PrintSpeedup("modexp variable-base sim61", m61.window_ref_us,
               m61.window_opt_us);
  PrintSpeedup("modexp variable-base sim256", m256.window_ref_us,
               m256.window_opt_us);
  ReportPair(report, "modexp_fixed_sim61", m61.fixed_ref_us, m61.fixed_opt_us);
  ReportPair(report, "modexp_fixed_sim256", m256.fixed_ref_us,
             m256.fixed_opt_us);
  ReportPair(report, "modexp_window_sim61", m61.window_ref_us,
             m61.window_opt_us);
  ReportPair(report, "modexp_window_sim256", m256.window_ref_us,
             m256.window_opt_us);

  const SchnorrResult s256 = BenchSchnorr(crypto::SchnorrSim256(), iters);
  PrintSpeedup("schnorr sign sim256", s256.sign_ref_us, s256.sign_opt_us);
  PrintSpeedup("schnorr verify sim256", s256.verify_ref_us,
               s256.verify_opt_us);
  ReportPair(report, "schnorr_sign_sim256", s256.sign_ref_us,
             s256.sign_opt_us);
  ReportPair(report, "schnorr_verify_sim256", s256.verify_ref_us,
             s256.verify_opt_us);

  BenchPrfDrbg(g_selftest ? nullptr : &report, iters * 4);
  BenchShaAes(g_selftest ? nullptr : &report, iters * 4);

  // Full probe loop: the end-to-end number the 1.5x target applies to.
  const ProbeLoopResult probe_ref = RunProbeLoop(true, population, days);
  const ProbeLoopResult probe_opt = RunProbeLoop(false, population, days);
  Check(probe_ref.digest == probe_opt.digest,
        "probe observations reference vs optimized");
  Check(probe_ref.probes == probe_opt.probes,
        "probe counts reference vs optimized");
  PrintSpeedup("end-to-end probe", probe_ref.us_per_probe,
               probe_opt.us_per_probe);
  PrintSpeedup("end-to-end full handshake", probe_ref.handshake_us_per_probe,
               probe_opt.handshake_us_per_probe);
  PrintSpeedup("end-to-end resumption", probe_ref.resume_us_per_probe,
               probe_opt.resume_us_per_probe);
  std::printf("  (%llu probes = %llu handshakes + %llu resumptions over %d "
              "days, population %zu, identical observations: %s)\n",
              static_cast<unsigned long long>(probe_ref.probes),
              static_cast<unsigned long long>(probe_ref.handshakes),
              static_cast<unsigned long long>(probe_ref.resumes), days,
              population, probe_ref.digest == probe_opt.digest ? "yes" : "NO");
  ReportPair(report, "probe", probe_ref.us_per_probe, probe_opt.us_per_probe);
  ReportPair(report, "handshake", probe_ref.handshake_us_per_probe,
             probe_opt.handshake_us_per_probe);
  ReportPair(report, "resume", probe_ref.resume_us_per_probe,
             probe_opt.resume_us_per_probe);
  report.Add("probe_count", probe_ref.probes);
  report.Add("handshake_count", probe_ref.handshakes);
  report.Add("resume_count", probe_ref.resumes);
  report.AddString("outputs_identical", g_all_ok ? "yes" : "no");

  crypto::SetReferenceCrypto(false);

  if (g_selftest) {
    std::printf("selftest: %s\n", g_all_ok ? "PASS" : "FAIL");
    return g_all_ok ? 0 : 1;
  }
  const std::string path = report.Write();
  std::printf("\nwrote %s\n", path.c_str());
  return g_all_ok ? 0 : 1;
}
