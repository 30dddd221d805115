#include "scanner/scan_engine.h"

#include <algorithm>
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

// The pair of observations the main pass produces per target.
struct Record {
  HandshakeObservation main;
  HandshakeObservation dhe;
};

// A transport-failed probe awaiting the end-of-pass requeue.
struct PendingProbe {
  simnet::DomainId id = 0;
  bool dhe = false;
  ProbeFailure failure = ProbeFailure::kNone;
};

// Contiguous shard bounds: shard k of `shards` over n items is
// [ShardLo(n, shards, k), ShardLo(n, shards, k + 1)).
std::size_t ShardLo(std::size_t n, int shards, int k) {
  return n * static_cast<std::size_t>(k) / static_cast<std::size_t>(shards);
}

// Stages one trace event per connection attempt of `probe` into the
// shard's buffer. `seq` is the probe's canonical index within the day —
// never the shard — so the flushed stream is thread-count independent.
void StageTrace(obs::ShardedTraceBuffer& buffer, std::size_t shard, int day,
                std::uint64_t seq, std::string_view pass,
                std::string_view kind, simnet::DomainId id, SimTime scheduled,
                const ProbeResult& probe) {
  const std::size_t attempts = probe.attempt_log.size();
  for (std::size_t a = 0; a < attempts; ++a) {
    const ProbeAttempt& att = probe.attempt_log[a];
    obs::ProbeTraceEvent event;
    event.day = day;
    event.seq = seq;
    event.pass = pass;
    event.kind = kind;
    event.domain = id;
    event.scheduled = scheduled;
    event.attempt = static_cast<int>(a) + 1;
    event.start = att.start;
    event.duration = att.duration;
    event.backoff = att.backoff;
    event.failure = ToString(att.failure);
    event.final_attempt = (a + 1 == attempts);
    buffer.Append(shard, event);
  }
}

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
  // The adversary recorder follows the same staging discipline as the
  // store: per-shard buffers, flushed in shard order on the merge thread.
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

    // --- main pass: batched — shard, probe, flush, fold per batch --------
    // Staging state (probe records, observation/capture/trace buffers) is
    // sized by the batch, never the day: a million-target day peaks at
    // O(batch_size) scan-engine memory. Batches walk the target list in
    // canonical order and each flush drains complete batches in shard
    // order, so the concatenated stream — and therefore every downstream
    // byte — is identical to the unbatched engine's.
    DayLoss day_loss;
    std::vector<PendingProbe> pending;
    std::vector<Record> records(
        std::min(batch, std::max<std::size_t>(n, 1)));
    ShardedObservationBuffer staged(static_cast<std::size_t>(max_shards));
    ShardedCaptureBuffer capture_staged(static_cast<std::size_t>(max_shards));
    obs::ShardedTraceBuffer trace_staged(static_cast<std::size_t>(max_shards));
    std::uint64_t day_captures = 0;
    for (std::size_t lo = 0; lo < n; lo += batch) {
      const std::size_t batch_hi = std::min(n, lo + batch);
      const std::size_t bn = batch_hi - lo;
      const int shards = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(max_shards), bn));
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
            const std::size_t hi = ShardLo(bn, shards, k + 1);
            for (std::size_t b = ShardLo(bn, shards, k); b < hi; ++b) {
              // `i` is the target's canonical index within the DAY — trace
              // seqs must not depend on how the day was batched.
              const std::size_t i = lo + b;
              const simnet::DomainId id = targets[i];
              Record& record = records[b];
              ProbeResult main_probe = [&] {
                obs::ProfScope span(kProfProbeMain);
                return prober.Probe(id, when, main_options);
              }();
              record.main = main_probe.observation;
              ProbeResult dhe_probe = [&] {
                obs::ProfScope span(kProfProbeDhe);
                return prober.Probe(id, when + kHour, dhe_options);
              }();
              record.dhe = dhe_probe.observation;
              if (tracing) {
                StageTrace(trace_staged, static_cast<std::size_t>(k), day,
                           2 * i, "main", "main", id, when, main_probe);
                StageTrace(trace_staged, static_cast<std::size_t>(k), day,
                           2 * i + 1, "main", "dhe", id, when + kHour,
                           dhe_probe);
              }
              if (storing) {
                staged.Append(static_cast<std::size_t>(k), day, record.main);
                staged.Append(static_cast<std::size_t>(k), day, record.dhe);
              }
              if (capturing) {
                // Canonical capture order matches the observation stream:
                // the main probe's attempts, then the DHE probe's.
                for (attack::CaptureRecord& rec : main_probe.captures) {
                  capture_staged.Append(static_cast<std::size_t>(k), day,
                                        std::move(rec));
                }
                for (attack::CaptureRecord& rec : dhe_probe.captures) {
                  capture_staged.Append(static_cast<std::size_t>(k), day,
                                        std::move(rec));
                }
              }
            }
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
      if (storing) {
        obs::ProfScope span(kProfStoreAppend);
        staged.Flush(*options.store);
      }
      if (capturing) {
        obs::ProfScope span(kProfCaptureFlush);
        day_captures += capture_staged.Flush(*options.capture);
      }
      if (tracing) {
        obs::ProfScope span(kProfTraceFlush);
        trace_staged.Flush(*options.trace);
      }

      // --- canonical merge: aggregate + collect the requeue list ---------
      // Runs per batch on the merge thread, in day order, so the fold and
      // the requeue list are the same as the unbatched engine's. The
      // requeue tail is the one day-scale buffer left: it is bounded by
      // the day's transport failures, not its population.
      {
        obs::ProfScope merge_span(kProfMerge);
        for (std::size_t b = 0; b < bn; ++b) {
          const std::size_t i = lo + b;
          day_loss.scheduled += 2;
          agg.Fold(day, records[b].main);
          if (IsTransportFailure(records[b].main.failure)) {
            pending.push_back({targets[i], false, records[b].main.failure});
          }
          agg.Fold(day, records[b].dhe);
          if (IsTransportFailure(records[b].dhe.failure)) {
            pending.push_back({targets[i], true, records[b].dhe.failure});
          }
        }
      }
    }

    // --- requeue pass: one more scan for the transport-failed tail -------
    const std::size_t pending_count = pending.size();
    std::vector<HandshakeObservation> requeued(pending_count);
    if (options.robustness.requeue_failures && pending_count > 0) {
      const SimTime again = when + options.robustness.requeue_delay;
      const int requeue_shards = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(max_shards), pending_count));
      ShardedObservationBuffer requeue_staged(
          static_cast<std::size_t>(requeue_shards));
      ShardedCaptureBuffer requeue_captures(
          static_cast<std::size_t>(requeue_shards));
      obs::ShardedTraceBuffer requeue_trace(
          static_cast<std::size_t>(requeue_shards));
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
          const std::size_t hi =
              ShardLo(pending_count, requeue_shards, k + 1);
          for (std::size_t i = ShardLo(pending_count, requeue_shards, k);
               i < hi; ++i) {
            const PendingProbe& p = pending[i];
            const SimTime at = p.dhe ? again + kHour : again;
            ProbeResult probe = [&] {
              obs::ProfScope span(kProfProbeRequeue);
              return prober.Probe(p.id, at,
                                  p.dhe ? dhe_options : main_options);
            }();
            requeued[i] = probe.observation;
            if (tracing) {
              // Requeue seqs continue after the day's 2n main-pass probes.
              StageTrace(requeue_trace, static_cast<std::size_t>(k), day,
                         2 * n + i, "requeue", p.dhe ? "dhe" : "main", p.id,
                         at, probe);
            }
            if (storing) {
              requeue_staged.Append(static_cast<std::size_t>(k), day,
                                    requeued[i]);
            }
            if (capturing) {
              for (attack::CaptureRecord& rec : probe.captures) {
                requeue_captures.Append(static_cast<std::size_t>(k), day,
                                        std::move(rec));
              }
            }
          }
        });
      }
      if (storing) {
        obs::ProfScope span(kProfStoreAppend);
        requeue_staged.Flush(*options.store);
      }
      if (capturing) {
        obs::ProfScope span(kProfCaptureFlush);
        day_captures += requeue_captures.Flush(*options.capture);
      }
      if (tracing) {
        obs::ProfScope span(kProfTraceFlush);
        requeue_trace.Flush(*options.trace);
      }
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
      if (options.robustness.requeue_failures) {
        agg.Fold(day, requeued[i]);
        failure = requeued[i].failure;
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
