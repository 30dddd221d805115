#include "sysinfo.h"

#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>

namespace tlsbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double mb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::atof(line + 6) / 1024.0;  // the kernel reports kB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

bool ResetPeakRss() {
  // Hand freed heap pages back first, so the next peak starts from the live
  // set rather than from whatever the allocator kept of earlier phases.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

HostInfo ProbeHost() {
  HostInfo host;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t start = line.find_first_not_of(" \t:", 10);
      if (start != std::string::npos) host.cpu_model = line.substr(start);
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) {
    host.kernel = std::string(u.sysname) + " " + u.release;
  }
  return host;
}

}  // namespace tlsbench
