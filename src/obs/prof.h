// The wall-clock performance plane: RAII scoped spans over a monotonic
// clock, aggregated into log-bucketed wall-time histograms and exportable
// as a Chrome trace-event JSON.
//
// This is the second of the repo's two observability planes, and it is the
// deliberate opposite of the first (metrics.h / trace.h). The deterministic
// plane makes execution-shape quantities *unrepresentable* so that metrics,
// probe traces, stores and warehouse segments are byte-identical at any
// thread count; this plane measures nothing BUT execution shape — where
// wall-clock time goes, per thread, per span, per fsync — so the
// million-domain scaling work has an attributable baseline. The two planes
// must never mix:
//
//   * Profiling is OFF by default and enabled only by the TLSHARM_PROF
//     environment knob (or SetProfilingEnabled in benches/tests).
//   * No wall-clock value recorded here may ever feed a metric, a probe
//     trace, the store, the warehouse, or the run journal. The plane has no
//     API for reading a single span back on the hot path — data only leaves
//     through ProfSnapshotNow()/ProfWriteChromeTrace(), which tools call
//     after the deterministic artifacts are sealed.
//   * TelemetryDeterminismTest.ProfilingNeverChangesArtifacts proves the
//     isolation (metrics, trace and store bytes identical with profiling
//     on vs off at 1 and 8 threads, also under TSan), and scripts/check.sh
//     diffs a whole campaign directory recorded both ways.
//
// Concurrency model: every recording write goes to a thread-local buffer
// (one writer, no locks on the span path). Buffers are registered with a
// process-wide list under a mutex on each thread's first span; snapshot and
// trace export walk that list. Reading a worker's buffer is safe once the
// worker has been joined (the join provides the happens-before edge) —
// exactly when the scan engine's merge thread runs, and the only time tools
// snapshot. ProfReset() may only be called while no other instrumented
// thread is running.
//
// Disabled-path cost: ProfScope's constructor is one relaxed atomic load
// and a branch (~1 ns); bench_prof measures it and scripts/check.sh keeps
// the projected whole-scan overhead under budget (warn > 1%, fail > 5%).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tlsharm::obs {

// Span flags.
inline constexpr unsigned kProfNoTrace = 1u;  // aggregate only; no Chrome
                                              // trace event (micro spans too
                                              // hot to record individually)

// A call-site handle: interns `name` into the process-wide site registry
// once, at static initialization. Instrumented .cc files declare these at
// namespace scope so the hot path pays no function-local-static guard.
struct ProfSite {
  explicit ProfSite(const char* name, unsigned flags = 0);
  std::uint32_t id;
  unsigned flags;
};

namespace prof_internal {
extern std::atomic<bool> g_enabled;
// Explicit-timestamp recording layer: ProfScope feeds it the monotonic
// clock; tests feed it fixed values so self-time, buckets and the Chrome
// trace bytes are exactly predictable.
void BeginSpanAt(const ProfSite& site, std::uint64_t now_ns);
void EndSpanAt(std::uint64_t now_ns);
}  // namespace prof_internal

// True when the performance plane is recording. Hot-path cost of the
// disabled check: one relaxed atomic load.
inline bool ProfilingEnabled() {
  return prof_internal::g_enabled.load(std::memory_order_relaxed);
}

// Programmatic switch (benches/tests). Flip only while no instrumented
// thread is running; the TLSHARM_PROF env knob seeds the initial value.
void SetProfilingEnabled(bool enabled);

// Whether completed spans are additionally buffered as Chrome trace events
// (seeded by TLSHARM_PROF_TRACE being non-empty; spans flagged kProfNoTrace
// are never buffered). Histogram aggregation is unaffected.
bool ProfTraceEnabled();
void SetProfTraceEnabled(bool enabled);

// The TLSHARM_PROF_TRACE knob: where a tool should write the Chrome trace
// ("" = off). Load the file in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
std::string ProfTracePathFromEnv();

// Monotonic nanoseconds (steady clock).
std::uint64_t ProfNowNs();

// RAII span: records one interval against `site` on the current thread.
class ProfScope {
 public:
  explicit ProfScope(const ProfSite& site) {
    if (ProfilingEnabled()) {
      prof_internal::BeginSpanAt(site, ProfNowNs());
      armed_ = true;
    }
  }
  ~ProfScope() {
    if (armed_) prof_internal::EndSpanAt(ProfNowNs());
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  bool armed_ = false;
};

// Assigns the calling thread to a logical track for the Chrome trace and
// the per-track utilization tables. The scan engine maps track 0 to the
// merge thread and track k+1 to worker shard k, so per-shard tracks are
// stable across days even though the workers are fresh std::threads each
// day. No-op while profiling is disabled.
void ProfSetThreadTrack(int track, const char* name);

// Accumulates one day of shard utilization: `busy_ns` the worker spent
// probing, `stall_ns` it spent waiting at the merge barrier for slower
// shards. Called by the engine's merge thread after each join.
void ProfRecordShardStall(int track, std::uint64_t busy_ns,
                          std::uint64_t stall_ns);

// --- snapshot / export ----------------------------------------------------

// Wall-time histogram buckets: bucket i counts durations in
// [2^i, 2^(i+1)) ns (bucket 0 is [0, 2)), saturating at the last bucket.
inline constexpr int kProfBuckets = 40;

struct ProfSpanStats {
  std::string name;
  unsigned flags = 0;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus enclosed child spans
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kProfBuckets> buckets{};
};

struct ProfTrackStats {
  int track = 0;
  std::string name;
  std::uint64_t days = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t stall_ns = 0;
};

struct ProfSnapshot {
  std::vector<ProfSpanStats> spans;    // sorted by name
  std::vector<ProfTrackStats> tracks;  // sorted by track id
  std::uint64_t dropped_events = 0;
  // Partition proof for hotspot attribution: the sum of every span's
  // self_ns equals root_total_ns exactly (each thread's depth-0 spans
  // partition into self + child time). root_self_ns is the slice no named
  // child span claims — the unattributed remainder.
  std::uint64_t root_total_ns = 0;
  std::uint64_t root_self_ns = 0;
};

// Merges every thread buffer into one snapshot. Call only when no other
// instrumented thread is running (after the engine joined its workers).
ProfSnapshot ProfSnapshotNow();

// Clears all aggregates, trace events and shard accounting, keeping site
// and track registrations. Same single-threaded calling contract.
void ProfReset();

// Buffered Chrome trace events across all threads (post-join contract).
std::size_t ProfTraceEventCount();

// Renders the buffered events as Chrome trace-event JSON ("traceEvents"
// array of "ph":"X" complete events plus "ph":"M" thread-name metadata;
// ts/dur in microseconds with nanosecond precision, relative to the
// earliest buffered event). Field order is fixed and golden-tested.
std::string ProfChromeTraceJson();

// Writes ProfChromeTraceJson() to `path`. False + `error` on I/O failure.
bool ProfWriteChromeTrace(const std::string& path, std::string* error);

}  // namespace tlsharm::obs
