// The daily-scan aggregate state, shared by three consumers that must agree
// byte for byte:
//
//   * the scan engine (scan_engine.cc) folds each observation the moment
//     the canonical merge reaches it;
//   * the warehouse's incremental fold (warehouse/fold.h) replays stored
//     observations through the SAME code, which is what makes "fold the
//     warehouse" reproduce "run the scan" exactly instead of by analogy;
//   * the campaign resume path (runlog.h, campaign/campaign.h) checkpoints
//     this state at every committed day and restores it on restart, so a
//     resumed study finishes with the identical DailyScanResult.
//
// Why one Fold() serves both engine passes: the engine's two probe passes
// are distinguishable from the stored suite alone. The main pass offers
// kEcdheAndStatic and can never negotiate the DHE suite; the DHE pass
// negotiates exactly kDheWithAes128CbcSha256 when it succeeds. Failed
// probes (handshake_ok == false) aggregate to nothing in either pass. So
// dispatching each observation on its suite replays the engine's main/DHE
// aggregation exactly, in the same canonical order.
#pragma once

#include <string>
#include <vector>

#include "analysis/spans.h"
#include "scanner/experiments.h"

namespace tlsharm::scanner {

class ScanAggregates {
 public:
  // Folds one observation of `day`. Days must be non-decreasing across
  // calls; callers fold whole days and then CompleteDay().
  void Fold(int day, const HandshakeObservation& obs);

  // Marks `day` fully folded; NextDay() becomes day + 1.
  void CompleteDay(int day);

  // First day this state still needs (0 for a fresh fold).
  int NextDay() const { return next_day_; }

  // Materializes the engine-equivalent result (loss left empty — the
  // per-day loss ledger is not derivable from observations; the engine and
  // the campaign checkpoint carry it separately). Core-domain accounting
  // needs the simulated Internet's domain roster, same as the live engine.
  DailyScanResult Finish(const simnet::Internet& net) const;

  // Checkpoint codec: EncodeState is deterministic (domains in index
  // order); DecodeState restores an equivalent state or returns false on
  // malformed input.
  void EncodeState(Bytes& out) const;
  bool DecodeState(ByteView in, std::size_t& off);

  // Direct access to the folded span trackers, for reports that need the
  // distributions without the core-domain accounting (`tlsharm query spans`).
  const analysis::SpanTracker& StekSpans() const { return stek_spans_; }
  const analysis::SpanTracker& EcdheSpans() const { return ecdhe_spans_; }
  const analysis::SpanTracker& DheSpans() const { return dhe_spans_; }

 private:
  int next_day_ = 0;
  analysis::SpanTracker stek_spans_{8};
  analysis::SpanTracker ecdhe_spans_{8};
  analysis::SpanTracker dhe_spans_{8};
  // Grow-on-demand, indexed by DomainIndex (same flags the engine keeps).
  std::vector<std::uint8_t> ever_ticket_;
  std::vector<std::uint8_t> ever_ecdhe_;
  std::vector<std::uint8_t> ever_dhe_;
  std::vector<std::uint8_t> ever_trusted_;

  void Mark(std::vector<std::uint8_t>& flags, DomainIndex domain);
};

// Checkpoint files ("TLWC" | version | state | CRC-32 trailer), written
// with the durable temp+rename discipline (util/durable.h). The warehouse
// stores them as <dir>/ckpt-<day>.bin next to the day's segment; the
// campaign layer writes the identical bytes at each day commit, so a
// recorded warehouse always carries up-to-date incremental-fold state.
inline constexpr char kScanCheckpointMagic[4] = {'T', 'L', 'W', 'C'};
inline constexpr std::uint8_t kScanCheckpointVersion = 1;

std::string CheckpointFileName(int day);
bool WriteCheckpoint(const std::string& dir, int day,
                     const ScanAggregates& aggregates, std::string* error);
// The same file around bytes that ScanAggregates::EncodeState already
// produced, for a caller that stores the encoded state elsewhere too.
bool WriteCheckpoint(const std::string& dir, int day, ByteView encoded_state,
                     std::string* error);
// False when the file is missing or malformed (aggregates unspecified
// then); the caller falls back to an older checkpoint or a cold fold.
bool ReadCheckpoint(const std::string& dir, int day,
                    ScanAggregates* aggregates, std::string* error);

}  // namespace tlsharm::scanner
