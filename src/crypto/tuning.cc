#include "crypto/tuning.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace tlsharm::crypto {
namespace {

bool EnvDefault() {
  const char* env = std::getenv("TLSHARM_REFERENCE_CRYPTO");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::atomic<bool>& Flag() {
  static std::atomic<bool> flag{EnvDefault()};
  return flag;
}

// The CPU's extensions, probed once. The SHA-NI kernel also needs SSSE3
// (byte shuffles) and SSE4.1 (blends); the AES-NI kernel needs SSSE3 to
// byte-swap the key schedule.
struct CpuKernels {
  bool sha_ni = false;
  bool aes_ni = false;
};

const CpuKernels& Cpu() {
  static const CpuKernels cpu = [] {
    CpuKernels k;
#if TLSHARM_CRYPTO_X86_KERNELS
    __builtin_cpu_init();
    const bool ssse3 = __builtin_cpu_supports("ssse3");
    k.sha_ni = ssse3 && __builtin_cpu_supports("sse4.1") &&
               __builtin_cpu_supports("sha");
    k.aes_ni = ssse3 && __builtin_cpu_supports("aes");
#endif
    return k;
  }();
  return cpu;
}

}  // namespace

bool ReferenceCryptoEnabled() {
  return Flag().load(std::memory_order_relaxed);
}

void SetReferenceCrypto(bool reference) {
  Flag().store(reference, std::memory_order_relaxed);
}

bool ShaNiKernelEnabled() {
  return Cpu().sha_ni && !ReferenceCryptoEnabled();
}

bool AesNiKernelEnabled() {
  return Cpu().aes_ni && !ReferenceCryptoEnabled();
}

std::string ActiveCryptoKernels() {
  return std::string("sha256=") +
         (ShaNiKernelEnabled() ? "sha-ni" : "portable") +
         " aes=" + (AesNiKernelEnabled() ? "aes-ni" : "portable");
}

}  // namespace tlsharm::crypto
