#!/usr/bin/env bash
# Full check: build + test the plain configuration, again with
# TLSHARM_SANITIZE=ON (ASan + UBSan) to catch memory and UB bugs the plain
# run can't — in particular in the fault-injection / corrupted-flight paths —
# and once more with TLSHARM_SANITIZE=thread (TSan) running the concurrency
# battery: the crypto known-answer vectors plus the sharded scan engine's
# determinism and fleet-budget equivalence tests, which hammer the shared
# terminators and the fleet's build/evict locks from eight workers.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1" dir="$2"
  shift 2
  local filter=""
  if [[ "${1:-}" == "--filter" ]]; then
    filter="$2"
    shift 2
  fi
  echo "== ${name}: configure =="
  cmake -B "${dir}" -S "${repo}" "$@"
  echo "== ${name}: build =="
  cmake --build "${dir}" -j "${jobs}"
  echo "== ${name}: test =="
  if [[ -n "${filter}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" -R "${filter}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
  fi
}

run_config "plain" "${repo}/build"

# Observability gate: a short instrumented scan through scanstats. Fails on
# any telemetry-schema or determinism drift — the metrics snapshot, probe
# trace and observation store must be byte-identical at 1/2/8 threads, and
# the snapshot must round-trip through its own parser byte-for-byte.
echo "== observability: scanstats --selftest =="
"${repo}/build/examples/scanstats" --selftest

# Warehouse gate: the columnar store must be byte-identical at 1/2/8
# threads, round-trip the text store exactly, and reproduce the engine's
# aggregates through the incremental fold (tlsharm-import); the query layer
# must count/group deterministically (obsq); and a figure bench recorded
# into a warehouse and replayed from it must print the same numbers as the
# live scan (the world-build timing line is the only nondeterminism).
echo "== warehouse: tlsharm-import --selftest =="
"${repo}/build/examples/tlsharm-import" --selftest
echo "== warehouse: obsq --selftest =="
"${repo}/build/examples/obsq" --selftest

echo "== warehouse: figure-bench record/replay parity =="
whdir="$(mktemp -d)"
trap 'rm -rf "${whdir}"' EXIT
bench="${repo}/build/bench/bench_fig3_fig4_fig5_longevity"
TLSHARM_POPULATION=20000 TLSHARM_DAYS=6 "${bench}" \
  > "${whdir}/live.txt"
TLSHARM_POPULATION=20000 TLSHARM_DAYS=6 "${bench}" \
  --warehouse "${whdir}/wh" > "${whdir}/record.txt" 2>/dev/null
TLSHARM_POPULATION=20000 TLSHARM_DAYS=6 "${bench}" \
  --warehouse "${whdir}/wh" > "${whdir}/replay.txt" 2>/dev/null
diff <(grep -v "built in" "${whdir}/live.txt") \
     <(grep -v "built in" "${whdir}/record.txt")
diff <(grep -v "built in" "${whdir}/live.txt") \
     <(grep -v "built in" "${whdir}/replay.txt")
echo "record and replay match the live scan"

# Performance-plane gate (obs/prof.h). Three properties:
#   1. Isolation — profiling must never leak into the deterministic plane:
#      scanstats --selftest already cross-checks metrics/trace/store bytes
#      prof-on vs prof-off at 1 and 8 threads; running the whole selftest
#      under TLSHARM_PROF=1 additionally proves the env-seeded path, and a
#      campaign run with profiling + the progress heartbeat must produce a
#      byte-identical campaign directory.
#   2. The tooling works — tlsharm-prof profiles a campaign, writes a
#      Chrome trace, and reloads that trace file.
#   3. Overhead budget — bench_prof's projected whole-scan cost of the
#      disabled-path span checks: warn past 1%, fail past 5%.
echo "== performance plane: scanstats --selftest under TLSHARM_PROF=1 =="
TLSHARM_PROF=1 "${repo}/build/examples/scanstats" --selftest
echo "== performance plane: campaign artifacts identical prof on/off =="
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 "${repo}/build/examples/fleet_survey" \
  --campaign "${whdir}/camp-plain" > /dev/null
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 TLSHARM_PROF=1 \
  "${repo}/build/examples/fleet_survey" \
  --campaign "${whdir}/camp-prof" --progress > /dev/null 2>"${whdir}/heartbeat.txt"
diff -r "${whdir}/camp-plain" "${whdir}/camp-prof"
grep -q "progress: day" "${whdir}/heartbeat.txt"
echo "campaign directories are byte-identical; progress heartbeat seen"
echo "== performance plane: tlsharm-prof smoke (campaign + trace reload) =="
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 TLSHARM_PROF_TRACE="${whdir}/trace.json" \
  "${repo}/build/examples/tlsharm-prof" --campaign "${whdir}/camp-smoke" \
  > "${whdir}/prof-report.txt"
grep -q "attributed to named spans" "${whdir}/prof-report.txt"
"${repo}/build/examples/tlsharm-prof" "${whdir}/trace.json" > /dev/null
echo "== performance plane: disabled-path overhead budget =="
(cd "${whdir}" && TLSHARM_POPULATION=4000 TLSHARM_DAYS=2 TLSHARM_BENCH_REPS=1 \
  "${repo}/build/bench/bench_prof")
prof_overhead="$(sed -n 's/.*"disabled_overhead_pct": \([0-9.]*\).*/\1/p' \
  "${whdir}/BENCH_prof.json")"
if awk -v o="${prof_overhead}" 'BEGIN { exit !(o > 5.0) }'; then
  echo "FAIL: disabled-path profiling overhead ${prof_overhead}% exceeds" \
       "the 5% hard ceiling"
  exit 1
elif awk -v o="${prof_overhead}" 'BEGIN { exit !(o > 1.0) }'; then
  echo "WARN: disabled-path profiling overhead ${prof_overhead}% is past" \
       "the 1% budget (re-run on a quiet machine before trusting it)"
else
  echo "disabled-path profiling overhead ${prof_overhead}% is within the 1% budget"
fi

# Perf-correctness gate: the optimized crypto paths (windowed modexp,
# midstate HMAC/PRF, cross-probe memoization) must be observably identical
# to the naive reference implementations. Run the instrumented study both
# ways and diff every deterministic line of telemetry, then let
# bench_crypto's built-in differential harness cross-check each path pair
# (including a probe-loop observation digest).
echo "== perf-correctness: reference vs optimized crypto =="
TLSHARM_REFERENCE_CRYPTO=1 "${repo}/build/examples/scanstats" \
  > "${whdir}/stats-ref.txt"
"${repo}/build/examples/scanstats" > "${whdir}/stats-opt.txt"
diff <(grep -v "built in" "${whdir}/stats-ref.txt") \
     <(grep -v "built in" "${whdir}/stats-opt.txt")
echo "reference and optimized crypto produce identical scan telemetry"
echo "== perf-correctness: bench_crypto --selftest =="
"${repo}/build/bench/bench_crypto" --selftest

# Crash-recovery gate. The injection ladder (CrashRecoveryTest: kill the
# campaign runner at every durability-barrier class, resume, diff the
# campaign directory byte-for-byte against a crash-free golden run) already
# runs inside the plain ctest pass above; re-run it by name so a filtered
# invocation can never silently skip it, then check the journal's overhead
# budget: the per-day commit cost (journal rewrites, fsyncs, checkpoint +
# state encodes) must stay within 2% of the plain recording pipeline's
# probe throughput at survey scale — warn past 2% (timing noise on shared
# machines), fail past 10% (something structural regressed).
echo "== crash recovery: injection ladder (plain) =="
ctest --test-dir "${repo}/build" --output-on-failure -R 'CrashRecovery'
echo "== crash recovery: journal overhead budget =="
(cd "${whdir}" && TLSHARM_POPULATION=12000 TLSHARM_DAYS=4 \
  "${repo}/build/bench/bench_recovery")
overhead="$(sed -n 's/.*"journal_overhead_pct": \([0-9.]*\).*/\1/p' \
  "${whdir}/BENCH_recovery.json")"
if awk -v o="${overhead}" 'BEGIN { exit !(o > 10.0) }'; then
  echo "FAIL: journal overhead ${overhead}% exceeds the 10% hard ceiling"
  exit 1
elif awk -v o="${overhead}" 'BEGIN { exit !(o > 2.0) }'; then
  echo "WARN: journal overhead ${overhead}% is past the 2% budget" \
       "(re-run on a quiet machine before trusting this number)"
else
  echo "journal overhead ${overhead}% is within the 2% budget"
fi

# Adversary-plane gate. tlsharm-harm --selftest proves the record-now-
# decrypt-later pipeline end to end: capture archive byte-identical at
# 1/2/8 threads, harm curves identical live vs tape-replayed, the survivor
# taxonomy partitioning every curve point, the archive-derived sweep equal
# to a ground-truth snapshot replay at end of study, and the curve spans
# consistent with the analysis/vuln window estimates. bench_harm then
# checks the recorder's cost: warn past the 5% budget (timing noise on
# shared machines), fail past 15% (something structural regressed).
echo "== adversary plane: tlsharm-harm --selftest =="
"${repo}/build/examples/tlsharm-harm" --selftest
echo "== adversary plane: capture-overhead budget =="
(cd "${whdir}" && TLSHARM_POPULATION=4000 TLSHARM_DAYS=3 TLSHARM_BENCH_REPS=1 \
  "${repo}/build/bench/bench_harm")
cap_overhead="$(sed -n 's/.*"capture_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' \
  "${whdir}/BENCH_harm.json")"
if awk -v o="${cap_overhead}" 'BEGIN { exit !(o > 15.0) }'; then
  echo "FAIL: capture recording overhead ${cap_overhead}% exceeds the 15%" \
       "hard ceiling"
  exit 1
elif awk -v o="${cap_overhead}" 'BEGIN { exit !(o > 5.0) }'; then
  echo "WARN: capture recording overhead ${cap_overhead}% is past the 5%" \
       "budget (re-run on a quiet machine before trusting this number)"
else
  echo "capture recording overhead ${cap_overhead}% is within the 5% budget"
fi

# Memory-budget gate (million-domain readiness at CI scale). A 64k-domain,
# 2-day scan through `bench_scan_engine --memcheck`, gated on
# the process VmHWM it reports. The budget math (DESIGN.md §Scaling): the
# blueprint columns are ~tens of bytes per domain, the derived working set
# is capped by the fleet budget (default 384 MiB, and a 64k fleet doesn't
# come near it), and the scan path buffers O(batch), not O(day) — so peak
# RSS at this scale sits around 150 MB. Warn past 256 MB (allocator or
# layout drift worth a look), fail past 512 MB (something is accumulating
# per-domain or per-day state again — the exact regression this gate
# exists to catch).
echo "== memory budget: bench_scan_engine --memcheck (64k domains) =="
memline="$("${repo}/build/bench/bench_scan_engine" --memcheck)"
echo "${memline}"
peak_mb="$(sed -n 's/.*peak_rss_mb=\([0-9.]*\).*/\1/p' <<<"${memline}")"
if awk -v m="${peak_mb}" 'BEGIN { exit !(m > 512.0) }'; then
  echo "FAIL: peak RSS ${peak_mb} MB exceeds the 512 MB hard ceiling for a" \
       "64k-domain scan"
  exit 1
elif awk -v m="${peak_mb}" 'BEGIN { exit !(m > 256.0) }'; then
  echo "WARN: peak RSS ${peak_mb} MB is past the 256 MB budget for a" \
       "64k-domain scan (investigate before trusting this run)"
else
  echo "peak RSS ${peak_mb} MB is within the 256 MB budget"
fi

run_config "sanitized" "${repo}/build-asan" -DTLSHARM_SANITIZE=ON
echo "== crash recovery: injection ladder (ASan + UBSan) =="
ctest --test-dir "${repo}/build-asan" --output-on-failure -R 'CrashRecovery'
# The fleet-budget equivalence battery by name, so a filtered invocation
# can never silently skip the contract: build-on-demand + eviction +
# rebuild must produce byte-identical artifacts, with ASan watching the
# evict/rebuild lifetimes (a stale reference into an evicted terminator is
# exactly the bug class this pairing catches).
echo "== memory-bounded fleet: equivalence battery (ASan + UBSan) =="
ctest --test-dir "${repo}/build-asan" --output-on-failure -R 'FleetEquivalence'
echo "== sanitized: bench_crypto --selftest (ASan + UBSan) =="
"${repo}/build-asan/bench/bench_crypto" --selftest
echo "== sanitized: tlsharm-harm --selftest (ASan + UBSan) =="
"${repo}/build-asan/examples/tlsharm-harm" --selftest
run_config "tsan" "${repo}/build-tsan" \
  --filter 'CryptoVectors|Differential|ParallelDeterminism|FleetEquivalence|Sharded|Telemetry|Prof' \
  -DTLSHARM_SANITIZE=thread
echo "== tsan: bench_crypto --selftest =="
"${repo}/build-tsan/bench/bench_crypto" --selftest
# The profiling span path (thread-local buffers, registry mutex, the
# relaxed enable flag) under TSan, driven by a real sharded scan.
echo "== tsan: scanstats --selftest under TLSHARM_PROF=1 =="
TLSHARM_PROF=1 "${repo}/build-tsan/examples/scanstats" --selftest

echo "All checks passed (plain + observability + warehouse + performance-plane + perf-correctness + crash-recovery + adversary-plane + sanitized + tsan)."
