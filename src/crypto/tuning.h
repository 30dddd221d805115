// Runtime selection between the optimized crypto hot paths and the naive
// reference implementations they replaced.
//
// Every optimization in this library (windowed Montgomery exponentiation,
// fixed-base generator tables, HMAC midstate caching, memoized AES key
// schedules, and the hardware kernels below) is required to be
// output-identical to the reference path: the flag exists so the
// differential-test harness and scripts/check.sh can run the same binary
// both ways and diff the bytes, and so bench_crypto can time old-vs-new in
// one process.
//
// Hardware kernels (x86 only, compiled under TLSHARM_CRYPTO_X86_KERNELS):
//   - SHA-256 block compression on SHA-NI (sha256rnds2/msg1/msg2), used by
//     every Sha256 context and so by HMAC, the DRBG, the PRF, transcripts,
//     Schnorr and terminator derivation;
//   - AES-128 block encrypt/decrypt on AES-NI (decryption runs aesimc over
//     the same 44-word schedule), used by the CBC ticket and record paths.
// Each runs only when the CPU reports the extension, probed once per
// process with __builtin_cpu_supports, and reference mode is off. The
// portable code is both the reference path and the only path on other CPUs
// and architectures. There is no knob: the hardware decides.
//
// Selection order: SetReferenceCrypto() overrides everything; otherwise the
// TLSHARM_REFERENCE_CRYPTO environment variable (any non-empty value other
// than "0") enables the reference paths; default is optimized.
#pragma once

#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define TLSHARM_CRYPTO_X86_KERNELS 1
#else
#define TLSHARM_CRYPTO_X86_KERNELS 0
#endif

namespace tlsharm::crypto {

// True when the naive reference implementations should be used.
bool ReferenceCryptoEnabled();

// Programmatic override (benches/tests toggling in-process). Thread
// caveat: flip only while no other thread is running crypto — the flag is
// a plain relaxed atomic and the two paths share no state, so a mid-flight
// flip is benign for correctness but makes timings meaningless.
void SetReferenceCrypto(bool reference);

// True when the SHA-NI / AES-NI kernel runs: the CPU has the extension and
// reference mode is off.
bool ShaNiKernelEnabled();
bool AesNiKernelEnabled();

// Names the kernels that run now, e.g. "sha256=sha-ni aes=aes-ni"; each
// reads "portable" under reference mode or on a CPU without the extension.
// Read-only: it reports the choice, it does not make it.
std::string ActiveCryptoKernels();

}  // namespace tlsharm::crypto
