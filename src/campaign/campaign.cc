#include "campaign/campaign.h"

#include "obs/prof.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scanner/runlog.h"
#include "util/crc32.h"
#include "util/durable.h"
#include "warehouse/capture.h"

namespace tlsharm::campaign {
namespace {
// Performance-plane sites for the per-day commit barrier (obs/prof.h).
// "campaign.commit.day" wraps the whole OnDayCommitted critical section so
// bench_recovery can cross-check the prof plane against its own
// commit_ms_per_day measurement.
const tlsharm::obs::ProfSite kProfCommitDay("campaign.commit.day");
const tlsharm::obs::ProfSite kProfCheckpoint("campaign.checkpoint");
const tlsharm::obs::ProfSite kProfStateWrite("campaign.state.write");
const tlsharm::obs::ProfSite kProfJournalAppend("campaign.journal.append");
}  // namespace
namespace {

namespace fs = std::filesystem;

constexpr char kStateMagic[4] = {'T', 'L', 'R', 'S'};
constexpr std::uint8_t kStateVersion = 1;

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

ByteView AsBytes(const std::string& s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

bool ReadFileBytes(const std::string& path, Bytes* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream content;
  content << in.rdbuf();
  const std::string data = content.str();
  out->assign(data.begin(), data.end());
  return true;
}

// --- campaign state file ("TLRS" | version | body | CRC-32) ---------------

Bytes EncodeState(int day, const scanner::ScanAggregates& aggregates,
                  const std::vector<scanner::DayLoss>& loss,
                  const std::string& metrics_json) {
  Bytes out;
  out.insert(out.end(), kStateMagic, kStateMagic + 4);
  out.push_back(kStateVersion);
  AppendVarint(out, static_cast<std::uint64_t>(day));
  aggregates.EncodeState(out);
  AppendVarint(out, loss.size());
  for (const scanner::DayLoss& d : loss) {
    AppendVarint(out, d.scheduled);
    AppendVarint(out, d.recovered);
    AppendVarint(out, d.lost);
    for (const std::size_t n : d.lost_by_class) AppendVarint(out, n);
  }
  AppendVarint(out, metrics_json.size());
  Append(out, AsBytes(metrics_json));
  const std::uint32_t crc = Crc32(out);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  return out;
}

bool DecodeState(ByteView bytes, int expected_day,
                 scanner::ScanResumeState* out, std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (bytes.size() < 9) return fail("state file truncated");
  if (!std::equal(kStateMagic, kStateMagic + 4, bytes.begin())) {
    return fail("bad state magic");
  }
  const std::size_t body = bytes.size() - 4;
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) stored = (stored << 8) | bytes[body + i];
  if (Crc32(ByteView(bytes.data(), body)) != stored) {
    return fail("state checksum mismatch");
  }
  if (bytes[4] != kStateVersion) return fail("unsupported state version");
  const ByteView view(bytes.data(), body);
  std::size_t off = 5;
  std::uint64_t day = 0;
  if (!ReadVarint(view, off, day) ||
      day != static_cast<std::uint64_t>(expected_day)) {
    return fail("state day disagrees with the journal");
  }
  scanner::ScanResumeState state;
  if (!state.aggregates.DecodeState(view, off)) {
    return fail("malformed aggregate state");
  }
  if (state.aggregates.NextDay() != expected_day + 1) {
    return fail("aggregate state does not cover the committed days");
  }
  std::uint64_t loss_count = 0;
  if (!ReadVarint(view, off, loss_count) ||
      loss_count != static_cast<std::uint64_t>(expected_day) + 1) {
    return fail("loss ledger does not cover the committed days");
  }
  state.loss.resize(static_cast<std::size_t>(loss_count));
  for (scanner::DayLoss& d : state.loss) {
    std::uint64_t scheduled = 0, recovered = 0, lost = 0;
    if (!ReadVarint(view, off, scheduled) ||
        !ReadVarint(view, off, recovered) || !ReadVarint(view, off, lost)) {
      return fail("malformed loss ledger");
    }
    d.scheduled = static_cast<std::size_t>(scheduled);
    d.recovered = static_cast<std::size_t>(recovered);
    d.lost = static_cast<std::size_t>(lost);
    for (std::size_t& n : d.lost_by_class) {
      std::uint64_t v = 0;
      if (!ReadVarint(view, off, v)) return fail("malformed loss ledger");
      n = static_cast<std::size_t>(v);
    }
  }
  std::uint64_t json_len = 0;
  if (!ReadVarint(view, off, json_len) || view.size() - off != json_len) {
    return fail("malformed metrics snapshot");
  }
  state.metrics_json.assign(reinterpret_cast<const char*>(view.data() + off),
                            static_cast<std::size_t>(json_len));
  *out = std::move(state);
  return true;
}

// --- per-day commit hooks -------------------------------------------------

class CommitDriver : public scanner::CampaignHooks {
 public:
  CommitDriver(std::string dir, std::string warehouse_dir,
               scanner::RunLog* journal, warehouse::WarehouseWriter* warehouse,
               warehouse::CaptureTapeWriter* tape)
      : dir_(std::move(dir)),
        warehouse_dir_(std::move(warehouse_dir)),
        journal_(journal),
        warehouse_(warehouse),
        tape_(tape) {}

  bool OnDayStarted(int day) override {
    return journal_->DayStarted(day, &error_);
  }

  bool OnDayCommitted(int day, const scanner::ScanAggregates& aggregates,
                      const std::vector<scanner::DayLoss>& loss,
                      const std::string& metrics_json) override {
    obs::ProfScope commit_span(kProfCommitDay);
    // The engine already ran the warehouse's EndDay, so the day's
    // observations are durable; a latched writer error means they are
    // not, and committing would journal a lie.
    if (!warehouse_->ok()) {
      error_ = warehouse_->error();
      return false;
    }
    // The capture tape commits its day segment at the same engine boundary
    // as the warehouse; a latched tape error likewise vetoes the commit.
    if (tape_ != nullptr && !tape_->ok()) {
      error_ = tape_->error();
      return false;
    }
    {
      obs::ProfScope span(kProfCheckpoint);
      if (!scanner::WriteCheckpoint(warehouse_dir_, day, aggregates,
                                    &error_)) {
        return false;
      }
    }
    const Bytes state = EncodeState(day, aggregates, loss, metrics_json);
    {
      obs::ProfScope span(kProfStateWrite);
      if (!DurableWriteFile(dir_ + "/" + StateFileName(day), state,
                            &error_)) {
        return false;
      }
      const std::string metrics_line = metrics_json + "\n";
      if (!DurableWriteFile(dir_ + "/" + kMetricsName, AsBytes(metrics_line),
                            &error_)) {
        return false;
      }
    }

    scanner::DayDigests digests;
    digests.warehouse_rows = warehouse_->RowsWritten();
    digests.warehouse_segments = warehouse_->SegmentsWritten();
    digests.manifest_crc = warehouse_->ManifestCrc();
    digests.state_bytes = state.size();
    digests.state_crc = Crc32(state);
    {
      obs::ProfScope span(kProfJournalAppend);
      if (!journal_->DayCommitted(day, digests, &error_)) return false;
    }

    // Only now is the predecessor state dead. Removal is not itself a
    // durability barrier: if it does not survive a crash, the resume sweep
    // deletes the stale file again.
    if (day > 0) {
      std::error_code ec;
      fs::remove(dir_ + "/" + StateFileName(day - 1), ec);
    }
    last_metrics_json_ = metrics_json;
    return true;
  }

  const std::string& Error() const { return error_; }
  const std::string& LastMetricsJson() const { return last_metrics_json_; }

 private:
  std::string dir_;
  std::string warehouse_dir_;
  scanner::RunLog* journal_;
  warehouse::WarehouseWriter* warehouse_;
  warehouse::CaptureTapeWriter* tape_;
  std::string error_;
  std::string last_metrics_json_;
};

// Removes campaign-root debris: orphaned `*.tmp` from interrupted commits
// and state files for any day but `keep_day`. A fresh start (-1) keeps no
// state file and also drops the previous study's metrics.json.
void SweepCampaignRoot(const std::string& dir, int keep_day,
                       RecoveryStats* stats) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
      ++stats->tmp_files_removed;
      continue;
    }
    if (name.rfind("state-", 0) == 0 && name.size() > 10 &&
        name.compare(name.size() - 4, 4, ".bin") == 0) {
      if (keep_day >= 0 && name == StateFileName(keep_day)) continue;
      fs::remove(entry.path(), ec);
      ++stats->stale_states_removed;
    }
  }
  if (keep_day < 0) {
    fs::remove(dir + "/" + kMetricsName, ec);
    // A fresh study resets the directory, including the text store that
    // version-1 campaigns kept beside the warehouse.
    fs::remove(dir + "/store.txt", ec);
  }
}

}  // namespace

std::string StateFileName(int day) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "state-%05d.bin", day);
  return buf;
}

std::uint64_t CampaignConfigDigest(const CampaignSpec& spec) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  hash = Fnv1a(hash, 0x544c52ull);  // "TLR" tag
  hash = Fnv1a(hash, static_cast<std::uint64_t>(spec.days));
  hash = Fnv1a(hash, spec.seed);
  hash = Fnv1a(hash, static_cast<std::uint64_t>(
                         spec.robustness.retry.max_attempts));
  hash = Fnv1a(hash, static_cast<std::uint64_t>(
                         spec.robustness.retry.base_backoff));
  hash = Fnv1a(hash, static_cast<std::uint64_t>(
                         spec.robustness.retry.max_backoff));
  hash = Fnv1a(hash, static_cast<std::uint64_t>(
                         spec.robustness.retry.attempt_timeout));
  hash = Fnv1a(hash, static_cast<std::uint64_t>(spec.robustness.retry.budget));
  hash = Fnv1a(hash, spec.robustness.requeue_failures ? 1 : 0);
  hash = Fnv1a(hash, static_cast<std::uint64_t>(
                         spec.robustness.requeue_delay));
  hash = Fnv1a(hash, spec.world_digest);
  // Recording joins the identity only when on: an unrecorded campaign
  // keeps its digest, and a resume can neither start nor drop a tape.
  if (spec.record_captures) hash = Fnv1a(hash, 0x544150ull);  // "TAP" tag
  return hash;
}

void AddRecoveryMetrics(const RecoveryStats& stats,
                        obs::MetricsRegistry& registry) {
  registry.GetCounter("campaign.recovery.resumed")
      .Add(stats.resumed ? 1 : 0);
  registry.GetCounter("campaign.recovery.days_replayed")
      .Add(static_cast<std::uint64_t>(stats.days_replayed));
  registry.GetCounter("campaign.recovery.tmp_files_removed")
      .Add(stats.tmp_files_removed);
  registry.GetCounter("campaign.recovery.stale_segments_removed")
      .Add(stats.stale_segments_removed);
  registry.GetCounter("campaign.recovery.stale_checkpoints_removed")
      .Add(stats.stale_checkpoints_removed);
  registry.GetCounter("campaign.recovery.stale_states_removed")
      .Add(stats.stale_states_removed);
}

bool RunCampaign(simnet::Internet& net, const CampaignSpec& spec,
                 CampaignResult* out, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (spec.days <= 0) return fail("campaign needs at least one day");

  std::error_code ec;
  fs::create_directories(spec.dir, ec);
  if (ec) {
    return fail("cannot create " + spec.dir + ": " + ec.message());
  }
  const std::string runlog_path = spec.dir + "/" + kRunLogName;
  const std::string warehouse_dir = spec.dir + "/" + kWarehouseDirName;
  const std::string capture_dir = spec.dir + "/" + kCaptureTapeDirName;
  const std::uint64_t digest = CampaignConfigDigest(spec);

  // Barriers this call passes, not the process-wide total: a process may
  // run several campaigns.
  const std::uint64_t barriers_at_start = CrashPointsPassed();
  scanner::RunLog journal;
  std::unique_ptr<warehouse::WarehouseWriter> wh;
  std::unique_ptr<warehouse::CaptureTapeWriter> tape;
  scanner::ScanResumeState resume_state;
  RecoveryStats recovery;
  int start_day = 0;

  // The capture tape reconciles itself through its own MANIFEST; the
  // journal carries no tape digest. The config digest already refused a
  // resume that flips recording, so a resumed recorded campaign requires
  // its tape.
  const auto open_tape = [&](int last_committed) -> bool {
    if (!spec.record_captures) {
      // A stale tape from an earlier recorded run of this directory would
      // otherwise masquerade as this study's archive.
      std::error_code tape_ec;
      fs::remove_all(capture_dir, tape_ec);
      return true;
    }
    warehouse::RecoverySweep sweep;
    if (last_committed >= 0) {
      tape = warehouse::CaptureTapeWriter::Resume(capture_dir, last_committed,
                                                  &sweep, error);
    } else {
      tape = warehouse::CaptureTapeWriter::Create(capture_dir, error, &sweep);
    }
    recovery.tmp_files_removed += sweep.tmp_files_removed;
    recovery.stale_segments_removed += sweep.stale_segments_removed;
    return tape != nullptr;
  };

  scanner::RunLogContents contents;
  bool have_journal = false;
  if (spec.resume && fs::exists(runlog_path, ec)) {
    std::string journal_error;
    if (!scanner::RunLog::Load(runlog_path, &contents, &journal_error)) {
      // A journal that exists but cannot be decoded means the campaign's
      // history is gone; silently restarting would overwrite data the
      // operator may want to inspect.
      return fail(journal_error);
    }
    have_journal = true;
  }

  if (have_journal) {
    recovery.resumed = true;
    if (contents.config_digest != digest) {
      return fail(runlog_path +
                  ": journal belongs to a different campaign configuration");
    }
    if (contents.days != spec.days) {
      return fail(runlog_path + ": journal records a " +
                  std::to_string(contents.days) + "-day study, spec says " +
                  std::to_string(spec.days));
    }
    const int last = contents.LastCommitted();
    if (last >= 0) {
      const scanner::DayDigests& committed = contents.committed.back().digests;
      // State first: it proves the committed prefix is reconstructible
      // before anything on disk gets deleted.
      Bytes state_bytes;
      const std::string state_path = spec.dir + "/" + StateFileName(last);
      if (!ReadFileBytes(state_path, &state_bytes, error)) return false;
      if (state_bytes.size() != committed.state_bytes ||
          Crc32(state_bytes) != committed.state_crc) {
        return fail(state_path + ": does not match the journal's digest");
      }
      std::string state_error;
      if (!DecodeState(state_bytes, last, &resume_state, &state_error)) {
        return fail(state_path + ": " + state_error);
      }
      warehouse::RecoverySweep sweep;
      wh = warehouse::WarehouseWriter::Resume(warehouse_dir, last, &sweep,
                                              error);
      if (wh == nullptr) return false;
      recovery.tmp_files_removed += sweep.tmp_files_removed;
      recovery.stale_segments_removed += sweep.stale_segments_removed;
      recovery.stale_checkpoints_removed += sweep.stale_checkpoints_removed;
      if (wh->RowsWritten() != committed.warehouse_rows ||
          wh->SegmentsWritten() != committed.warehouse_segments ||
          wh->ManifestCrc() != committed.manifest_crc) {
        return fail(warehouse_dir +
                    ": reconciled warehouse does not match the journal");
      }
      if (!open_tape(last)) return false;
      SweepCampaignRoot(spec.dir, last, &recovery);
      if (!journal.Reopen(runlog_path, contents, error)) return false;
      start_day = last + 1;
      recovery.days_replayed = last + 1;
    } else {
      // Journal exists but no day ever committed: every artifact is
      // uncommitted debris — start the study over under the same journal.
      SweepCampaignRoot(spec.dir, -1, &recovery);
      if (!journal.Reopen(runlog_path, contents, error)) return false;
      warehouse::RecoverySweep sweep;
      wh = warehouse::WarehouseWriter::Create(warehouse_dir, error, &sweep);
      if (wh == nullptr) return false;
      recovery.tmp_files_removed += sweep.tmp_files_removed;
      if (!open_tape(-1)) return false;
    }
  } else {
    SweepCampaignRoot(spec.dir, -1, &recovery);
    if (!journal.Start(runlog_path, digest, spec.days, error)) return false;
    warehouse::RecoverySweep sweep;
    wh = warehouse::WarehouseWriter::Create(warehouse_dir, error, &sweep);
    if (wh == nullptr) return false;
    recovery.tmp_files_removed += sweep.tmp_files_removed;
    if (!open_tape(-1)) return false;
  }

  CommitDriver driver(spec.dir, warehouse_dir, &journal, wh.get(),
                      tape.get());

  scanner::ScanEngineOptions engine;
  engine.threads = spec.threads;
  engine.robustness = spec.robustness;
  engine.blacklist = spec.blacklist;
  engine.store = wh.get();
  engine.capture = tape.get();
  engine.metrics = spec.metrics;
  engine.start_day = start_day;
  engine.resume = start_day > 0 ? &resume_state : nullptr;
  engine.hooks = &driver;
  engine.progress = spec.progress;

  CampaignResult result;
  result.scan = scanner::RunShardedDailyScans(net, spec.days, spec.seed,
                                              engine);
  if (!driver.Error().empty()) return fail(driver.Error());
  if (!wh->ok()) return fail(wh->error());
  if (tape != nullptr && !tape->ok()) return fail(tape->error());

  result.metrics_json = start_day >= spec.days
                            ? resume_state.metrics_json
                            : driver.LastMetricsJson();
  result.recovery = recovery;
  result.first_scanned_day = start_day;
  result.barriers_passed = CrashPointsPassed() - barriers_at_start;
  *out = std::move(result);
  return true;
}

}  // namespace tlsharm::campaign
