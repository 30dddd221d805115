#include "scanner/scan_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/fleet.h"
#include "obs/prof.h"

namespace tlsharm::scanner {
namespace {

// Performance-plane span sites (wall-clock only; see obs/prof.h for the
// isolation contract). Namespace-scope so the disabled hot path pays one
// relaxed load and no static-init guard.
const obs::ProfSite kProfDay("scan.day");
const obs::ProfSite kProfTargets("scan.targets");
const obs::ProfSite kProfGroup("scan.group");
const obs::ProfSite kProfShard("scan.shard");
const obs::ProfSite kProfProbeMain("scan.probe.main");
const obs::ProfSite kProfProbeDhe("scan.probe.dhe");
const obs::ProfSite kProfProbeRequeue("scan.probe.requeue");
const obs::ProfSite kProfJoinMain("scan.join.main");
const obs::ProfSite kProfJoinRequeue("scan.join.requeue");
const obs::ProfSite kProfMerge("scan.merge");
const obs::ProfSite kProfStoreAppend("scan.store.append");
const obs::ProfSite kProfCaptureFlush("scan.capture.flush");
const obs::ProfSite kProfCaptureEndDay("scan.capture.endday");
const obs::ProfSite kProfCaptureFinish("scan.capture.finish");
const obs::ProfSite kProfTraceFlush("scan.trace.flush");
const obs::ProfSite kProfStoreEndDay("scan.store.endday");
const obs::ProfSite kProfStoreFinish("scan.store.finish");
const obs::ProfSite kProfFleetCollect("scan.fleet.collect");

// A transport-failed probe awaiting the end-of-pass requeue.
struct PendingProbe {
  simnet::DomainId id = 0;
  bool dhe = false;
  ProbeFailure failure = ProbeFailure::kNone;
};

// The run order of one pass: its canonical indices sorted by the
// terminator each probe connects to, ties broken by index, and cut into
// groups, one per terminator. Workers claim whole groups from a shared
// cursor in ascending terminator id, the direction the fleet's eviction
// cursor walks, so each terminator's probes run back to back on one shard
// and a fleet over its budget builds a terminator once per pass rather
// than on every touch. Claiming, rather than cutting the order into fixed
// shard ranges, keeps the shards balanced: terminator ids cluster by
// operator, and so does probe cost.
class RunOrder {
 public:
  template <typename EndpointOf>
  void Build(std::size_t count, EndpointOf&& endpoint_of) {
    // (terminator << 32 | index): a pass holds at most two probes per
    // domain, so its indices fit the low 32 bits.
    entries_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      entries_[i] = (std::uint64_t{endpoint_of(i)} << 32) | i;
    }
    std::sort(entries_.begin(), entries_.end());
    group_lo_.clear();
    for (std::size_t r = 0; r < count; ++r) {
      if (r == 0 || (entries_[r] >> 32) != (entries_[r - 1] >> 32)) {
        group_lo_.push_back(r);
      }
    }
    group_lo_.push_back(count);
    next_.store(0, std::memory_order_relaxed);
  }

  std::size_t Groups() const { return group_lo_.size() - 1; }

  // Claims groups until none is left, calling visit(index) for each
  // canonical index of each claimed group, in run order. Concurrent
  // workers may call it together; each group goes to exactly one.
  template <typename Visit>
  void ClaimGroups(Visit&& visit) {
    for (std::size_t g = next_.fetch_add(1, std::memory_order_relaxed);
         g < Groups(); g = next_.fetch_add(1, std::memory_order_relaxed)) {
      for (std::size_t r = group_lo_[g]; r < group_lo_[g + 1]; ++r) {
        visit(std::size_t{static_cast<std::uint32_t>(entries_[r])});
      }
    }
  }

 private:
  std::vector<std::uint64_t> entries_;
  // Group g is entries_[group_lo_[g], group_lo_[g + 1]).
  std::vector<std::size_t> group_lo_;
  std::atomic<std::size_t> next_{0};
};

// Where a probe sits in the day's trace stream, besides its seq.
struct TraceKey {
  std::string_view kind;  // "main" | "dhe"
  simnet::DomainId domain = 0;
  SimTime scheduled = 0;
};

// One pass's probe outputs in slots keyed by canonical index: a worker
// fills slot j wherever probe j fell in its run order, and the merge reads
// the slots in index order, so nothing emitted depends on which shard ran
// a probe or when. Attempt logs and capture records are kept only while a
// trace or capture sink is attached.
class PassStaging {
 public:
  explicit PassStaging(bool keep_extras) : keep_extras_(keep_extras) {}

  void Reset(std::size_t count) {
    observations_.resize(count);
    if (keep_extras_) extras_.resize(count);
  }

  // Distinct workers may fill distinct slots concurrently.
  void Put(std::size_t j, ProbeResult& probe) {
    observations_[j] = probe.observation;
    if (keep_extras_) {
      extras_[j].attempt_log = std::move(probe.attempt_log);
      extras_[j].captures = std::move(probe.captures);
    }
  }

  const HandshakeObservation& Observation(std::size_t j) const {
    return observations_[j];
  }

  // Hands slots [0, count) to the attached sinks in index order:
  // observations to the store, capture records to the recorder, and one
  // trace event per attempt, where slot j is probe `first_seq + j` of the
  // day and key(j) names it. Returns the capture records delivered.
  template <typename Key>
  std::uint64_t Emit(const ScanEngineOptions& options, int day,
                     std::string_view pass, std::uint64_t first_seq,
                     std::size_t count, Key&& key) {
    if (options.store != nullptr) {
      obs::ProfScope span(kProfStoreAppend);
      for (std::size_t j = 0; j < count; ++j) {
        options.store->Append(day, observations_[j]);
      }
    }
    std::uint64_t delivered = 0;
    if (options.capture != nullptr) {
      obs::ProfScope span(kProfCaptureFlush);
      for (std::size_t j = 0; j < count; ++j) {
        // Moved out of the slot, so delivered records are freed at once.
        const std::vector<attack::CaptureRecord> captures =
            std::move(extras_[j].captures);
        for (const attack::CaptureRecord& rec : captures) {
          options.capture->Append(day, rec);
        }
        delivered += captures.size();
      }
    }
    if (options.trace != nullptr) {
      obs::ProfScope span(kProfTraceFlush);
      for (std::size_t j = 0; j < count; ++j) {
        const TraceKey probe = key(j);
        const std::vector<ProbeAttempt>& log = extras_[j].attempt_log;
        for (std::size_t a = 0; a < log.size(); ++a) {
          obs::ProbeTraceEvent event;
          event.day = day;
          event.seq = first_seq + j;
          event.pass = pass;
          event.kind = probe.kind;
          event.domain = probe.domain;
          event.scheduled = probe.scheduled;
          event.attempt = static_cast<int>(a) + 1;
          event.start = log[a].start;
          event.duration = log[a].duration;
          event.backoff = log[a].backoff;
          event.failure = ToString(log[a].failure);
          event.final_attempt = (a + 1 == log.size());
          options.trace->Emit(event);
        }
      }
    }
    return delivered;
  }

 private:
  // What the capture and trace sinks receive beyond the observation.
  struct Extras {
    std::vector<ProbeAttempt> attempt_log;
    std::vector<attack::CaptureRecord> captures;
  };
  const bool keep_extras_;
  std::vector<HandshakeObservation> observations_;
  std::vector<Extras> extras_;
};

// Runs body(0) .. body(shards - 1), one worker thread per shard. The
// one-shard case runs inline on the calling thread — the serial path
// allocates no threads at all.
template <typename Body>
void RunSharded(int shards, Body&& body) {
  if (shards <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    workers.emplace_back([&body, k] { body(k); });
  }
  for (std::thread& worker : workers) worker.join();
}

}  // namespace

int ScanThreadsFromEnv() {
  if (const char* env = std::getenv("TLSHARM_THREADS")) {
    const int threads = std::atoi(env);
    if (threads >= 1 && threads <= 64) return threads;
  }
  return 1;
}

DailyScanResult RunShardedDailyScans(simnet::Internet& net, int days,
                                     std::uint64_t seed,
                                     const ScanEngineOptions& options) {
  const int max_shards = std::max(1, options.threads);
  const std::size_t batch = std::max<std::size_t>(options.batch_size, 1);
  const bool tracing = options.trace != nullptr;
  const bool hooked = options.hooks != nullptr;
  // Hooks need cumulative snapshots even when the caller passed no
  // registry, so metering is internal whenever either consumer exists.
  const bool metering = options.metrics != nullptr || hooked;

  const bool storing = options.store != nullptr;
  const bool capturing = options.capture != nullptr;

  // Per-shard metric registries (single-writer, no locks); merged with the
  // engine-level registry into options.metrics in shard order after the
  // last day. Counters add, so the merged totals do not depend on how
  // targets were sharded.
  std::vector<obs::MetricsRegistry> shard_metrics(
      metering ? static_cast<std::size_t>(max_shards) : 0);
  obs::MetricsRegistry engine_metrics;

  // One prober per worker, every one seeded IDENTICALLY: outcomes are pure
  // in (seed, domain, time, options), so it does not matter which worker
  // runs a probe. Only scratch state — trust-cache memoization, retry
  // bookkeeping — is thread-local. Probers persist across days so the
  // memoization keeps paying.
  std::vector<Prober> probers;
  probers.reserve(static_cast<std::size_t>(max_shards));
  for (int k = 0; k < max_shards; ++k) {
    probers.emplace_back(net, seed);
    probers.back().SetRetryPolicy(options.robustness.retry);
    if (metering) {
      probers.back().SetMetrics(&shard_metrics[static_cast<std::size_t>(k)]);
    }
    probers.back().SetAttemptLogging(tracing);
    probers.back().SetCaptureRecording(capturing);
  }

  const Blacklist no_rules;
  const std::vector<std::uint8_t> mask =
      BuildExclusionMask(net, options.blacklist ? *options.blacklist
                                                : no_rules);
  const std::vector<std::uint8_t>* mask_ptr = mask.empty() ? nullptr : &mask;

  // The aggregate state IS the shared fold (scanner/aggregates.h): the
  // engine folds each observation the moment the canonical merge reaches
  // it — suite dispatch inside Fold() reproduces the old main/DHE
  // aggregation exactly (see the aggregates.h header proof). A resumed
  // campaign restores the committed prefix instead of rescanning it.
  ScanAggregates agg;
  std::vector<DayLoss> loss;
  obs::MetricsSnapshot resumed_metrics;
  bool have_resumed_metrics = false;
  const int start_day = std::max(0, options.start_day);
  if (options.resume != nullptr) {
    agg = options.resume->aggregates;
    loss = options.resume->loss;
    if (metering && !options.resume->metrics_json.empty()) {
      have_resumed_metrics =
          obs::ParseSnapshot(options.resume->metrics_json, resumed_metrics);
    }
  }

  // Cumulative scan-metrics snapshot through the current day: resumed base
  // + engine counters + every shard registry. Merging is commutative, so
  // the rendered bytes are identical at any thread count.
  const auto cumulative_metrics_json = [&]() {
    obs::MetricsRegistry scratch;
    if (have_resumed_metrics) scratch.MergeFrom(resumed_metrics);
    scratch.MergeFrom(engine_metrics);
    for (const obs::MetricsRegistry& shard : shard_metrics) {
      scratch.MergeFrom(shard);
    }
    return scratch.SnapshotJson();
  };

  ProbeOptions main_options;
  main_options.ciphers = CipherSelection::kEcdheAndStatic;
  ProbeOptions dhe_options;
  dhe_options.ciphers = CipherSelection::kDheOnly;
  dhe_options.kex_only = true;  // only the DHE value matters here

  if (obs::ProfilingEnabled()) obs::ProfSetThreadTrack(0, "main");

  bool aborted = false;
  std::uint64_t total_probes = 0;
  for (int day = start_day; day < days && !aborted; ++day) {
    obs::ProfScope day_span(kProfDay);
    if (hooked && !options.hooks->OnDayStarted(day)) {
      aborted = true;
      break;
    }
    const SimTime when = ScanDayStart(day);
    const std::vector<simnet::DomainId> targets = [&] {
      obs::ProfScope span(kProfTargets);
      return CollectScanTargets(net, day, seed, mask_ptr,
                                /*https_only=*/true);
    }();
    const std::size_t n = targets.size();

    // --- main pass: batched — group, shard, probe, emit, fold per batch --
    // Staging (observation slots, plus attempt logs and captures while a
    // sink wants them) is sized by the batch, never the day: a
    // million-target day peaks at O(batch_size) scan-engine memory.
    // Workers probe a batch grouped by terminator but stage each probe in
    // the slot of its canonical index, and the merge emits the slots in
    // index order. Batches walk the target list in canonical order, so the
    // concatenated stream — and therefore every downstream byte — is the
    // unbatched engine's at any batch size and thread count.
    //
    // The run order and the staging serve the day's batches and its
    // requeue pass, and are freed with the day: kept across days, they
    // measurably grew the process's heap.
    RunOrder order;
    PassStaging staging(/*keep_extras=*/tracing || capturing);
    DayLoss day_loss;
    std::vector<PendingProbe> pending;
    std::uint64_t day_captures = 0;
    for (std::size_t lo = 0; lo < n; lo += batch) {
      const std::size_t bn = std::min(n, lo + batch) - lo;
      {
        obs::ProfScope span(kProfGroup);
        order.Build(bn, [&](std::size_t b) {
          return net.EndpointFor(targets[lo + b], when);
        });
      }
      const int shards = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(max_shards), order.Groups()));
      // Slot 2b holds target b's main probe and slot 2b + 1 its DHE probe:
      // the order the observation stream and the trace seqs follow.
      staging.Reset(2 * bn);
      // Shard utilization accounting (performance plane only): each worker
      // times its own loop; the merge thread turns the difference against
      // the barrier wall time into per-shard merge-stall.
      std::vector<std::uint64_t> shard_busy_ns(
          static_cast<std::size_t>(shards), 0);
      const std::uint64_t main_join_start =
          obs::ProfilingEnabled() ? obs::ProfNowNs() : 0;
      {
        obs::ProfScope join_span(kProfJoinMain);
        RunSharded(shards, [&](int k) {
          const bool prof = obs::ProfilingEnabled();
          std::uint64_t busy_start = 0;
          if (prof) {
            if (shards > 1) {
              char tname[24];
              std::snprintf(tname, sizeof(tname), "shard-%d", k);
              obs::ProfSetThreadTrack(k + 1, tname);
            }
            busy_start = obs::ProfNowNs();
          }
          {
            obs::ProfScope shard_span(kProfShard);
            Prober& prober = probers[static_cast<std::size_t>(k)];
            order.ClaimGroups([&](std::size_t b) {
              const simnet::DomainId id = targets[lo + b];
              ProbeResult main_probe = [&] {
                obs::ProfScope span(kProfProbeMain);
                return prober.Probe(id, when, main_options);
              }();
              staging.Put(2 * b, main_probe);
              ProbeResult dhe_probe = [&] {
                obs::ProfScope span(kProfProbeDhe);
                return prober.Probe(id, when + kHour, dhe_options);
              }();
              staging.Put(2 * b + 1, dhe_probe);
            });
          }
          if (prof) {
            shard_busy_ns[static_cast<std::size_t>(k)] =
                obs::ProfNowNs() - busy_start;
          }
        });
      }
      if (obs::ProfilingEnabled()) {
        const std::uint64_t join_wall = obs::ProfNowNs() - main_join_start;
        for (int k = 0; k < shards; ++k) {
          const std::uint64_t busy =
              shard_busy_ns[static_cast<std::size_t>(k)];
          obs::ProfRecordShardStall(shards > 1 ? k + 1 : 0, busy,
                                    join_wall > busy ? join_wall - busy : 0);
        }
      }
      // Trace seqs are the probe's canonical index within the DAY, so they
      // do not depend on how the day was batched.
      day_captures += staging.Emit(
          options, day, "main", 2 * lo, 2 * bn, [&](std::size_t j) {
            const bool dhe = (j & 1) != 0;
            return TraceKey{dhe ? "dhe" : "main", targets[lo + j / 2],
                            dhe ? when + kHour : when};
          });

      // --- canonical merge: aggregate + collect the requeue list ---------
      // Runs per batch on the merge thread, in day order, so the fold and
      // the requeue list are the same as the unbatched engine's. The
      // requeue tail is the one day-scale buffer left: it is bounded by
      // the day's transport failures, not its population.
      {
        obs::ProfScope merge_span(kProfMerge);
        day_loss.scheduled += 2 * bn;
        for (std::size_t j = 0; j < 2 * bn; ++j) {
          const HandshakeObservation& observation = staging.Observation(j);
          agg.Fold(day, observation);
          if (IsTransportFailure(observation.failure)) {
            pending.push_back(
                {targets[lo + j / 2], (j & 1) != 0, observation.failure});
          }
        }
      }
    }

    // --- requeue pass: one more scan for the transport-failed tail -------
    // Grouped by terminator and staged by pending index like a main-pass
    // batch; its trace seqs continue after the day's 2n main-pass probes.
    const std::size_t pending_count = pending.size();
    const bool requeueing =
        options.robustness.requeue_failures && pending_count > 0;
    if (requeueing) {
      const SimTime again = when + options.robustness.requeue_delay;
      const auto at = [again](const PendingProbe& p) {
        return p.dhe ? again + kHour : again;
      };
      {
        obs::ProfScope span(kProfGroup);
        order.Build(pending_count, [&](std::size_t i) {
          return net.EndpointFor(pending[i].id, at(pending[i]));
        });
      }
      staging.Reset(pending_count);
      const int requeue_shards = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(max_shards), order.Groups()));
      {
        obs::ProfScope join_span(kProfJoinRequeue);
        RunSharded(requeue_shards, [&](int k) {
          if (obs::ProfilingEnabled() && requeue_shards > 1) {
            char tname[24];
            std::snprintf(tname, sizeof(tname), "shard-%d", k);
            obs::ProfSetThreadTrack(k + 1, tname);
          }
          obs::ProfScope shard_span(kProfShard);
          Prober& prober = probers[static_cast<std::size_t>(k)];
          order.ClaimGroups([&](std::size_t i) {
            const PendingProbe& p = pending[i];
            ProbeResult probe = [&] {
              obs::ProfScope span(kProfProbeRequeue);
              return prober.Probe(p.id, at(p),
                                  p.dhe ? dhe_options : main_options);
            }();
            staging.Put(i, probe);
          });
        });
      }
      day_captures += staging.Emit(
          options, day, "requeue", 2 * n, pending_count, [&](std::size_t i) {
            const PendingProbe& p = pending[i];
            return TraceKey{p.dhe ? "dhe" : "main", p.id, at(p)};
          });
    }
    // The day's last observation has been appended: let streaming backends
    // flush (the warehouse closes the day's columnar segment here).
    if (storing) {
      obs::ProfScope span(kProfStoreEndDay);
      options.store->EndDay(day);
    }
    // Same boundary for the capture tape: its day segment commits here, on
    // the merge thread, before the campaign's commit hooks observe the day.
    if (capturing) {
      obs::ProfScope span(kProfCaptureEndDay);
      options.capture->EndDay(day);
    }
    for (std::size_t i = 0; i < pending_count; ++i) {
      ProbeFailure failure = pending[i].failure;
      if (requeueing) {
        agg.Fold(day, staging.Observation(i));
        failure = staging.Observation(i).failure;
      }
      if (IsTransportFailure(failure)) {
        ++day_loss.lost;
        ++day_loss.lost_by_class[static_cast<std::size_t>(failure)];
      } else {
        ++day_loss.recovered;
      }
    }
    loss.push_back(day_loss);

    // Engine-level counters, bumped on the merge thread only (canonical
    // order; no shard involvement, so trivially thread-count independent).
    if (metering) {
      obs::MetricsRegistry& reg = engine_metrics;
      reg.GetCounter("scan.days").Add(1);
      reg.GetCounter("scan.targets").Add(n);
      reg.GetCounter("scan.probes.scheduled").Add(day_loss.scheduled);
      reg.GetCounter("scan.requeue.pending").Add(pending_count);
      reg.GetHistogram("scan.requeue.depth", {0, 10, 100, 1000, 10000})
          .Observe(static_cast<std::int64_t>(pending_count));
      reg.GetCounter("scan.lost").Add(day_loss.lost);
      reg.GetCounter("scan.recovered").Add(day_loss.recovered);
      if (capturing) {
        reg.GetCounter("scan.capture.records").Add(day_captures);
      }
      for (int c = 0; c < kProbeFailureClasses; ++c) {
        const std::size_t lost =
            day_loss.lost_by_class[static_cast<std::size_t>(c)];
        if (lost == 0) continue;
        std::string name = "scan.lost.";
        name += ToString(static_cast<ProbeFailure>(c));
        reg.GetCounter(name).Add(lost);
      }
    }

    agg.CompleteDay(day);
    if (hooked &&
        !options.hooks->OnDayCommitted(day, agg, loss,
                                       cumulative_metrics_json())) {
      aborted = true;
    }

    if (options.progress) {
      const std::uint64_t day_probes =
          static_cast<std::uint64_t>(day_loss.scheduled) +
          (options.robustness.requeue_failures
               ? static_cast<std::uint64_t>(pending_count)
               : 0);
      total_probes += day_probes;
      ScanProgress p;
      p.day = day;
      p.days = days;
      p.targets = n;
      p.day_probes = day_probes;
      p.total_probes = total_probes;
      options.progress(p);
    }
  }

  if (storing) {
    obs::ProfScope span(kProfStoreFinish);
    options.store->Finish();
  }
  if (capturing) {
    obs::ProfScope span(kProfCaptureFinish);
    options.capture->Finish();
  }

  DailyScanResult result = agg.Finish(net);
  result.loss = std::move(loss);

  if (options.metrics != nullptr) {
    // Canonical order — resumed base, engine counters, then each shard;
    // merging is commutative anyway (counters and histogram buckets add),
    // so the totals cannot depend on sharding or on where a resume split
    // the study.
    if (have_resumed_metrics) options.metrics->MergeFrom(resumed_metrics);
    options.metrics->MergeFrom(engine_metrics);
    for (const obs::MetricsRegistry& shard : shard_metrics) {
      options.metrics->MergeFrom(shard);
    }
    obs::ProfScope span(kProfFleetCollect);
    obs::CollectFleetMetrics(net, ScanDayStart(days), *options.metrics);
  }
  return result;
}

}  // namespace tlsharm::scanner
