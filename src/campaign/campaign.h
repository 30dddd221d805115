// Crash-safe scan campaigns: the orchestration layer that ties the sharded
// scan engine, the columnar warehouse, and the run journal
// (scanner/runlog.h) into a restartable multi-day study.
//
// A campaign directory looks like:
//
//   RUNLOG             write-ahead journal: config digest + per-day
//                      started/committed records with artifact digests
//   warehouse/         columnar observation store (the only one; its text
//                      export is `tlsharm import to-text`) + per-day fold
//                      checkpoints
//   capture/           adversary capture tape (record_captures only)
//   state-<day>.bin    campaign state at the last committed day: the scan
//                      aggregates, the loss ledger, and the cumulative
//                      metrics snapshot ("TLRS" | version | body | CRC-32)
//   metrics.json       cumulative scan-metrics snapshot, one line
//
// Commit protocol per scanned day (all on the engine's merge thread):
//   1. journal day-started            (before any probe)
//   2. scan the day; the warehouse's EndDay makes its segment durable
//   3. fold checkpoint, state-<day>.bin, metrics.json written durably
//   4. journal day-committed with every artifact's size/CRC
//   5. previous day's state file deleted
// A fail-stop crash between any two steps loses at most the in-flight
// day. RunCampaign with resume=true reloads the journal, verifies the
// config digest, restores the last committed state, reconciles the
// warehouse (dropping the partial day, sweeping temp files and stale
// checkpoints), and rescans only the remaining days — finishing with
// results and on-disk artifacts byte-identical to an uninterrupted run at
// any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "scanner/scan_engine.h"
#include "warehouse/warehouse.h"

namespace tlsharm::campaign {

struct CampaignSpec {
  std::string dir;        // campaign directory (created if missing)
  int days = 7;           // study length in virtual days
  std::uint64_t seed = 1; // scan seed (prober derivations)
  // Worker threads for the scan engine. Free to differ between the
  // original run and a resume — it never reaches the config digest.
  int threads = 1;
  scanner::ScanRobustness robustness;
  const scanner::Blacklist* blacklist = nullptr;
  // Identity of the simulated world the caller built `net` from
  // (population spec, world seed, fault scale ...), folded into the config
  // digest so a journal can never resume against a different Internet.
  std::uint64_t world_digest = 0;
  // false: start fresh, resetting any previous campaign in `dir`.
  // true: resume from the journal if one exists (fresh start otherwise).
  bool resume = false;
  // Optional adversary recorder: when true, every probe connection is
  // tapped (attack::PassiveCapture) and each committed day adds one
  // columnar capture segment under dir/capture (warehouse/capture.h).
  // Recording never changes an observation, but it is part of the config
  // digest when on, so a resume can neither start a tape mid-study nor
  // drop a recorded one; an unrecorded campaign's digest is unchanged. The
  // tape reconciles itself on resume via its own manifest (the journal
  // carries no tape digest): segments past the journal's last committed
  // day are dropped before appends continue.
  bool record_captures = false;
  // Optional live registry: receives the campaign's scan metrics plus the
  // end-of-study fleet sweep (obs/fleet.h). The durable metrics.json
  // deliberately excludes the fleet sweep — live-object totals are not
  // attributable to committed days, so including them would break the
  // resumed-equals-uninterrupted guarantee.
  obs::MetricsRegistry* metrics = nullptr;
  // Optional per-day progress heartbeat, forwarded verbatim to the scan
  // engine (scanner::ScanProgress semantics: merge thread, informational
  // only, no effect on any durable artifact).
  std::function<void(const scanner::ScanProgress&)> progress;
};

// What recovery had to repair. Kept OUT of the campaign's durable metrics
// (a resumed run would otherwise differ from the crash-free golden run);
// surface it via AddRecoveryMetrics into a separate registry.
struct RecoveryStats {
  bool resumed = false;               // a journal was loaded
  int days_replayed = 0;              // committed days restored, not rescanned
  std::uint64_t tmp_files_removed = 0;
  std::uint64_t stale_segments_removed = 0;
  std::uint64_t stale_checkpoints_removed = 0;
  std::uint64_t stale_states_removed = 0;
};

struct CampaignResult {
  scanner::DailyScanResult scan;
  // The durable cumulative snapshot at the last committed day (the bytes
  // of metrics.json, without trailing newline); "" for a zero-day study.
  std::string metrics_json;
  RecoveryStats recovery;
  int first_scanned_day = 0;   // 0 fresh; k+1 when days 0..k were restored
  std::uint64_t barriers_passed = 0;  // durability barriers this run passed
};

// The campaign's identity: days, seed, robustness knobs, world digest —
// everything that shapes observations, and nothing (threads, telemetry)
// that does not — plus whether the capture tape records, when it does.
std::uint64_t CampaignConfigDigest(const CampaignSpec& spec);

// Runs (or resumes) the campaign. False + `error` on I/O failure, journal
// mismatch, or unrecoverable on-disk state; the journal then still
// describes the last consistent prefix, so a fixed-up rerun can resume.
bool RunCampaign(simnet::Internet& net, const CampaignSpec& spec,
                 CampaignResult* out, std::string* error);

// Renders recovery counters as campaign.recovery.* metrics.
void AddRecoveryMetrics(const RecoveryStats& stats,
                        obs::MetricsRegistry& registry);

// Campaign-directory file names (shared with tests and tooling).
inline constexpr char kRunLogName[] = "RUNLOG";
inline constexpr char kWarehouseDirName[] = "warehouse";
inline constexpr char kCaptureTapeDirName[] = "capture";
inline constexpr char kMetricsName[] = "metrics.json";
std::string StateFileName(int day);

}  // namespace tlsharm::campaign
