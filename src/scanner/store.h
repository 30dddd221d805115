// Observation store: serializes daily scan observations to a line-based
// record format and reloads them, mirroring the paper's publication of its
// raw scan data on scans.io (§3). Campaigns record into the columnar
// warehouse; this text format is its export and interchange view
// (`tlsharm import to-text` / `to-warehouse`, warehouse/import.h).
//
// Format (one observation per line, '|'-separated ASCII):
//   day|domain|flags|suite|kex_group|kex_value|session_id|stek_id|hint|failure
// flags bits: 1 connected, 2 handshake_ok, 4 trusted, 8 session_id_set,
//             16 ticket_issued.
// `failure` is the numeric ProbeFailure class. The reader also accepts the
// original nine-field lines and derives the class from the flags.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "scanner/observation.h"

namespace tlsharm::scanner {

struct StoredObservation {
  int day = 0;
  HandshakeObservation observation;
};

// The store's five observation flag bits, shared by the text format and the
// warehouse's columnar format so the two encodings can never drift.
inline constexpr int kObservationFlagBits = 5;
inline constexpr int kObservationFlagsMax = (1 << kObservationFlagBits) - 1;
int PackObservationFlags(const HandshakeObservation& observation);
void UnpackObservationFlags(int flags, HandshakeObservation& observation);

// Streaming observation sink: the scan engines push each observation the
// moment the day's canonical merge reaches it, and signal day boundaries,
// so a backend can flush incrementally (the text writer streams lines, the
// warehouse closes one columnar segment per day) instead of any caller
// accumulating the whole study in memory first.
//
// Contract (what the engines guarantee, and what backends may rely on):
//   * Append days are non-decreasing; within a day, observations arrive in
//     canonical order (main pass in permutation order, then the requeue
//     pass) — identical for any thread count.
//   * EndDay(day) is called exactly once per scanned day, after the day's
//     last Append.
//   * Finish() is called once, after the last EndDay.
class StoreWriter {
 public:
  virtual ~StoreWriter() = default;

  virtual void Append(int day, const HandshakeObservation& observation) = 0;
  // A scan day completed; all its observations have been appended.
  virtual void EndDay(int day) { (void)day; }
  // The study completed; flush any buffered state.
  virtual void Finish() {}
};

// Fans one observation stream out to several StoreWriters — how a tool
// records the text codec and the warehouse from a single scan to
// cross-check the two encodings.
class MultiStoreWriter : public StoreWriter {
 public:
  void Add(StoreWriter* writer) {
    if (writer != nullptr) writers_.push_back(writer);
  }

  void Append(int day, const HandshakeObservation& observation) override {
    for (StoreWriter* w : writers_) w->Append(day, observation);
  }
  void EndDay(int day) override {
    for (StoreWriter* w : writers_) w->EndDay(day);
  }
  void Finish() override {
    for (StoreWriter* w : writers_) w->Finish();
  }

 private:
  std::vector<StoreWriter*> writers_;
};

// The line-based text backend. Streams one '|'-separated line per
// observation straight to `out` — nothing is buffered beyond the ostream.
class ObservationWriter : public StoreWriter {
 public:
  explicit ObservationWriter(std::ostream& out) : out_(out) {}

  void Write(int day, const HandshakeObservation& observation);
  void Append(int day, const HandshakeObservation& observation) override {
    Write(day, observation);
  }
  std::size_t Written() const { return written_; }

 private:
  std::ostream& out_;
  std::size_t written_ = 0;
};

class ObservationReader {
 public:
  explicit ObservationReader(std::istream& in) : in_(in) {}

  // Reads the next observation; nullopt at end of stream. Malformed lines
  // are skipped (counted in Corrupt()).
  std::optional<StoredObservation> Next();
  std::size_t Corrupt() const { return corrupt_; }

 private:
  std::istream& in_;
  std::size_t corrupt_ = 0;
};

// Convenience round-trip helpers used by tests and tooling.
std::string SerializeObservations(
    const std::vector<StoredObservation>& observations);
std::vector<StoredObservation> ParseObservations(const std::string& data);
// As above, but also reports the number of malformed lines that were
// skipped, so loaders can surface corruption instead of silently dropping
// records (they land in the `store.corrupt` metric / `tlsharm stats` report).
std::vector<StoredObservation> ParseObservations(const std::string& data,
                                                 std::size_t* corrupt);

}  // namespace tlsharm::scanner
