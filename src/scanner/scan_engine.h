// The sharded daily-scan engine — the parallel driver behind the paper's
// nine-week scanning campaign.
//
// Each day's target list (canonical = permuted order, see schedule.h) is
// scanned in batches. A batch RUNS grouped by terminator: its canonical
// indices are sorted by the terminator Internet::EndpointFor picks (ties by
// index), and worker threads claim whole terminator groups from a shared
// cursor, so a fleet over its budget builds a terminator once per batch
// rather than on every touch. Every worker owns a Prober seeded
// identically to the serial scanner's: probe outcomes are pure functions
// of (seed, domain, time, options), so neither WHICH worker runs a probe
// nor WHEN changes what it observes. Workers stage each probe's outputs in
// the slot of its canonical index; after the join, the merge thread emits
// the slots in index order before anything reaches the store, the capture
// recorder, the trace or the aggregates. The output contract:
//
//   For a fixed (world, days, seed, robustness), the DailyScanResult and
//   every byte written to the store are identical for ANY thread count.
//   threads == 1 runs inline on the calling thread and reproduces the
//   serial scanner exactly; RunDailyScans is now a thin wrapper over it.
//
// What makes the contract hold (see DESIGN.md "Parallel sharded scanning"):
//   * client randomness is derived per attempt, not drawn from a shared
//     sequential stream (prober.h);
//   * server-side randomness is derived per connection from the
//     ClientHello, and STEK/KEX state is selected by virtual time, not by
//     arrival order (server/);
//   * the merge step reads the index-keyed slots in permutation-index
//     order, so staging hides both the run order and any real-time
//     interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scanner/aggregates.h"
#include "scanner/experiments.h"
#include "scanner/schedule.h"
#include "scanner/store.h"

namespace tlsharm::scanner {

// When the daily pass starts: 06:00 virtual on each study day (the same
// epoch RunDailyScans has used since the serial scanner).
inline SimTime ScanDayStart(int day) { return day * kDay + 6 * kHour; }

// The state a resumed campaign restores into the engine so a run that
// skips already-committed days finishes with the identical DailyScanResult
// and metrics a crash-free run would have produced. Skipping is sound
// because probe outcomes are pure functions of (seed, domain, time,
// options) and server state is derived from virtual time, never from probe
// arrival order — re-probing a committed day could not change any later
// day's observations.
struct ScanResumeState {
  ScanAggregates aggregates;   // folded state of days [0, start_day)
  std::vector<DayLoss> loss;   // those days' loss ledger, in day order
  // Cumulative scan-metrics snapshot (RenderSnapshot JSON) through the
  // last committed day; "" when the campaign ran without metering.
  std::string metrics_json;
};

// Day-granular commit callbacks for the campaign layer (journal + durable
// state writes). Both run on the merge thread, in canonical order, so any
// crash barriers they pass are deterministic at every thread count.
// Returning false aborts the study after the current day boundary — how a
// campaign driver surfaces an I/O failure out of the engine loop.
class CampaignHooks {
 public:
  virtual ~CampaignHooks() = default;
  // Before the day's first probe (and before any of its store output).
  virtual bool OnDayStarted(int day) = 0;
  // After the day's observations are fully appended, EndDay'd on the store,
  // and folded into `aggregates`; `loss` holds days [0, day] and
  // `metrics_json` the cumulative scan-metrics snapshot through this day.
  virtual bool OnDayCommitted(int day, const ScanAggregates& aggregates,
                              const std::vector<DayLoss>& loss,
                              const std::string& metrics_json) = 0;
};

// One per-day progress sample for long-campaign heartbeats
// (fleet_survey --progress). Delivered on the merge thread after the day's
// commit hooks ran; consumers may only write to stderr-style side channels
// — nothing here may feed a deterministic artifact.
struct ScanProgress {
  int day = 0;                     // day just committed (0-based)
  int days = 0;                    // total study days
  std::uint64_t targets = 0;       // domains scanned this day
  std::uint64_t day_probes = 0;    // probes executed this day (incl requeue)
  std::uint64_t total_probes = 0;  // cumulative probes this run
};

struct ScanEngineOptions {
  // Worker shards per day. 1 = inline serial (no threads spawned).
  int threads = 1;
  // Main-pass batch size: the day's target list is processed in contiguous
  // batches of this many targets, each grouped by terminator, sharded,
  // probed, emitted and folded before the next begins. Staging memory is
  // therefore O(batch_size), not O(targets) — what lets a million-domain
  // day run in bounded RAM. Grouping works within a batch, so a smaller
  // batch means more terminator rebuilds on a fleet over its budget. The
  // canonical output stream is unaffected: batches are consumed in
  // permutation order and each is emitted in index order, which
  // concatenates to exactly the unbatched stream, so every artifact is
  // byte-identical for ANY batch size (and any thread count).
  std::size_t batch_size = 65536;
  ScanRobustness robustness;
  // Optional exclusion rules; nullptr scans everything listed.
  const Blacklist* blacklist = nullptr;
  // Optional observation store (the columnar warehouse, the text writer,
  // or a MultiStoreWriter over several). Receives every main-pass and
  // requeue observation in canonical order (main/DHE interleaved per
  // target, then the requeue pass in pending order), plus per-day EndDay
  // and end-of-study Finish hooks — this is how the warehouse closes one
  // columnar segment per completed virtual day.
  StoreWriter* store = nullptr;
  // Optional adversary recorder (attack::CaptureSink — e.g. the columnar
  // capture tape, warehouse/capture.h). When set, every probe connection is
  // tapped through attack::PassiveCapture and its CaptureRecord summary is
  // delivered in the SAME canonical order as the observation stream (main
  // pass in permutation order — main then DHE per target — then the
  // requeue pass), with EndDay/Finish mirroring the StoreWriter contract.
  // Capture bytes are therefore identical at any thread count. Recording
  // never changes an observation: the tap only mirrors wire flights.
  attack::CaptureSink* capture = nullptr;
  // Optional telemetry; both default off and neither changes a single byte
  // of the scan's observations. `metrics` receives the merged per-shard
  // probe counters, engine-level scan/requeue/loss counters, and an
  // end-of-study fleet sweep (CollectFleetMetrics). `trace` receives one
  // event per connection attempt in canonical (day, seq, attempt) order.
  // Both outputs are byte-identical for any `threads` value.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  // Campaign resume: scan only days [start_day, days), restoring the
  // committed prefix from `resume` (required whenever start_day > 0). The
  // engine then behaves — result, store stream, metrics — as if it had
  // scanned every day itself.
  int start_day = 0;
  const ScanResumeState* resume = nullptr;
  // Optional per-day commit callbacks (see CampaignHooks). Setting hooks
  // enables internal metering even when `metrics` is null, so committed
  // snapshots are always available to the campaign layer.
  CampaignHooks* hooks = nullptr;
  // Optional per-day progress heartbeat (see ScanProgress). Informational
  // only; the engine's output contract is unchanged whether or not this is
  // set.
  std::function<void(const ScanProgress&)> progress;
};

// Worker count from the TLSHARM_THREADS environment knob (1..64,
// default 1).
int ScanThreadsFromEnv();

// Runs the paper's daily scans (main ECDHE+static probe plus DHE-only
// probe per listed HTTPS domain per day, with retries and an end-of-pass
// requeue) sharded across options.threads workers. See the determinism
// contract above.
DailyScanResult RunShardedDailyScans(simnet::Internet& net, int days,
                                     std::uint64_t seed,
                                     const ScanEngineOptions& options = {});

}  // namespace tlsharm::scanner
