// Process and host probes for the benchmark: clocks, peak-RSS sampling
// with phase resets, and the host fingerprint recorded with every run.
#pragma once

#include <string>

namespace tlsbench {

// Monotonic wall clock, seconds.
double WallSeconds();

// CPU time of the whole process (every thread), seconds.
double ProcessCpuSeconds();

// VmHWM of this process in MiB; 0 when /proc is unavailable.
double PeakRssMb();

// Releases free heap memory to the kernel, then resets VmHWM to the
// current RSS (writes "5" to /proc/self/clear_refs) so the next
// PeakRssMb() reports the peak of the phase that follows. False when the
// kernel refuses; callers then keep the process-wide peak.
bool ResetPeakRss();

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string kernel;
};

HostInfo ProbeHost();

}  // namespace tlsbench
