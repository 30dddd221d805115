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

# The plain ctest pass carries the observability, warehouse and adversary
# contracts: telemetry bytes identical at 1/2/8 threads with the snapshot
# and trace schema round-tripping (TelemetryDeterminismTest), warehouse
# bytes, text export and fold (ShardedWarehouseTest, ImportTest,
# ScanFoldTest), the query layer (QueryTest), and the harm sweep against
# ground truth (HarmEngineTest).
run_config "plain" "${repo}/build"
tlsharm="${repo}/build/examples/tlsharm"

# Warehouse gate: a figure bench recorded into a warehouse and replayed
# from it must print the same numbers as the live scan (the world-build
# timing line is the only nondeterminism).
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
#      TelemetryDeterminismTest.ProfilingNeverChangesArtifacts cross-checks
#      metrics/trace/store bytes prof-on vs prof-off at 1 and 8 threads
#      (here and under TSan below), and a campaign run under TLSHARM_PROF=1
#      (the env-seeded path) with the progress heartbeat must produce a
#      byte-identical campaign directory.
#   2. The tooling works — `tlsharm prof` profiles a campaign, writes a
#      Chrome trace, and reloads that trace file.
#   3. Overhead budget — bench_prof's projected whole-scan cost of the
#      disabled-path span checks: warn past 1%, fail past 5%.
echo "== performance plane: campaign artifacts identical prof on/off =="
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 "${repo}/build/examples/fleet_survey" \
  --campaign "${whdir}/camp-plain" > /dev/null
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 TLSHARM_PROF=1 \
  "${repo}/build/examples/fleet_survey" \
  --campaign "${whdir}/camp-prof" --progress > /dev/null 2>"${whdir}/heartbeat.txt"
diff -r "${whdir}/camp-plain" "${whdir}/camp-prof"
grep -q "progress: day" "${whdir}/heartbeat.txt"
echo "campaign directories are byte-identical; progress heartbeat seen"
echo "== performance plane: tlsharm prof smoke (campaign + trace reload) =="
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 TLSHARM_PROF_TRACE="${whdir}/trace.json" \
  "${tlsharm}" prof --campaign "${whdir}/camp-smoke" \
  > "${whdir}/prof-report.txt"
grep -q "attributed to named spans" "${whdir}/prof-report.txt"
"${tlsharm}" prof "${whdir}/trace.json" > /dev/null
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

# Export-view gate: a campaign stores its observations in the warehouse
# only, and text is an export of it. Verify that warehouse, export it,
# re-import the text, and require the rebuilt MANIFEST and every
# observation segment to match the campaign's byte for byte.
echo "== warehouse: campaign text export re-imports byte-identically =="
"${tlsharm}" import verify "${whdir}/camp-plain/warehouse"
"${tlsharm}" import to-text "${whdir}/camp-plain/warehouse" "${whdir}/camp.txt"
"${tlsharm}" import to-warehouse "${whdir}/camp.txt" "${whdir}/camp-reimport"
cmp "${whdir}/camp-plain/warehouse/MANIFEST" "${whdir}/camp-reimport/MANIFEST"
for seg in "${whdir}/camp-plain/warehouse"/obs-*.seg; do
  cmp "${seg}" "${whdir}/camp-reimport/$(basename "${seg}")"
done
echo "campaign warehouse -> text -> warehouse is the identity"

# Perf-correctness gate: the optimized crypto paths (windowed modexp,
# midstate HMAC/PRF, cross-probe memoization, the SHA-NI / AES-NI kernels)
# must be observably identical to the naive reference implementations. Run
# the instrumented study both ways and diff every deterministic line of
# telemetry, then let bench_crypto's built-in differential harness
# cross-check each path pair (including a probe-loop observation digest).
# The adversary-plane step below repeats the comparison on a recorded
# campaign and its harm analysis.
echo "== perf-correctness: reference vs optimized crypto =="
TLSHARM_REFERENCE_CRYPTO=1 "${tlsharm}" stats > "${whdir}/stats-ref.txt"
"${tlsharm}" stats > "${whdir}/stats-opt.txt"
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

# Adversary-plane gate. HarmEngineTest (plain ctest above) proves the
# record-now-decrypt-later sweep: curves identical at 1/2/8 scan threads
# and through the tape codec, the survivor taxonomy partitioning every
# curve point, the STEK and DH sweeps equal to a ground-truth snapshot
# replay at end of study, and the curve spans consistent with the scan's
# secret-span estimates. This step drives the front end over a recorded
# campaign: `harm curve` and `harm explain` on the recording world, a
# refusal on any other world, strict numeric arguments, and the query
# modes on the same campaign's warehouse. bench_harm then checks the
# recorder's cost: warn past the 5% budget (timing noise on shared
# machines), fail past 15% (something structural regressed).
echo "== adversary plane: tlsharm harm + query on a recorded campaign =="
TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 "${repo}/build/examples/fleet_survey" \
  --campaign "${whdir}/camp-rec" --record > /dev/null
TLSHARM_POPULATION=1200 "${tlsharm}" harm curve "${whdir}/camp-rec" 424242 \
  > "${whdir}/curve.jsonl" 2>/dev/null
test -s "${whdir}/curve.jsonl"
TLSHARM_POPULATION=1200 "${tlsharm}" harm explain netflix.com 1 \
  "${whdir}/camp-rec" 424242 > "${whdir}/explain.txt"
grep -q "^capture t=" "${whdir}/explain.txt"
if TLSHARM_POPULATION=100 "${tlsharm}" harm curve "${whdir}/camp-rec" 424242 \
     > /dev/null 2>&1; then
  echo "FAIL: harm curve accepted a tape recorded on another world"
  exit 1
fi
status=0
TLSHARM_POPULATION=1200 "${tlsharm}" harm explain netflix.com one \
  "${whdir}/camp-rec" 424242 > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 2 ]]; then
  echo "FAIL: a non-numeric day exited ${status}, not 2 (usage)"
  exit 1
fi
# An argument `tlsharm stats` does not know, or a dangling --warehouse,
# prints the usage (exit 2) before any study runs or directory is written;
# so does a TLSHARM_DAYS that is not a whole number in 1..63 (2..63 for the
# benches).
status=0
"${tlsharm}" stats --warehuose "${whdir}/stats-typo" > /dev/null 2>&1 \
  || status=$?
if [[ "${status}" -ne 2 || -e "${whdir}/stats-typo" ]]; then
  echo "FAIL: a misspelled stats option exited ${status}, not 2 (usage)," \
       "or wrote its directory"
  exit 1
fi
status=0
"${tlsharm}" stats --warehouse > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 2 ]]; then
  echo "FAIL: a dangling stats --warehouse exited ${status}, not 2 (usage)"
  exit 1
fi
fig1="${repo}/build/bench/bench_fig1_session_id_lifetime"
for tool in "${repo}/build/examples/fleet_survey" "${tlsharm} prof --scan" \
            "${fig1}"; do
  status=0
  TLSHARM_DAYS=3x ${tool} > /dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "FAIL: TLSHARM_DAYS=3x ${tool} exited ${status}, not 2"
    exit 1
  fi
done
# The benches need at least two days; one is refused, not run as 63.
status=0
TLSHARM_DAYS=1 "${fig1}" > /dev/null 2>&1 || status=$?
if [[ "${status}" -ne 2 ]]; then
  echo "FAIL: TLSHARM_DAYS=1 ${fig1} exited ${status}, not 2"
  exit 1
fi
rec_wh="${whdir}/camp-rec/warehouse"
"${tlsharm}" query summary "${rec_wh}" > "${whdir}/summary.txt"
"${tlsharm}" query group-by day "${rec_wh}" > /dev/null
"${tlsharm}" query spans "${rec_wh}" > /dev/null
observations="$(sed -n 's/^  observations: //p' "${whdir}/summary.txt")"
counted="$("${tlsharm}" query count "${rec_wh}")"
if [[ -z "${observations}" || "${counted}" != "${observations}" ]]; then
  echo "FAIL: query count ${counted} != summary's ${observations} observations"
  exit 1
fi
echo "harm curve/explain, world refusal, usage exits and queries behave"
# Perf-correctness on the adversary path: the same recorded campaign,
# harm curve and explain, run on the portable reference crypto, must match
# the optimized run byte for byte: the journal, every warehouse and
# capture segment, both MANIFESTs, curve.jsonl and the explain text. This
# checks the SHA-NI hashing behind every recorded byte and the AES-NI
# ticket decryption in the adversary's snapshot replay against the
# portable code, which the stats diff above never reaches.
echo "== perf-correctness: reference vs optimized crypto on the adversary path =="
TLSHARM_REFERENCE_CRYPTO=1 TLSHARM_POPULATION=1200 TLSHARM_DAYS=2 \
  "${repo}/build/examples/fleet_survey" \
  --campaign "${whdir}/camp-rec-ref" --record > /dev/null
TLSHARM_REFERENCE_CRYPTO=1 TLSHARM_POPULATION=1200 "${tlsharm}" harm curve \
  "${whdir}/camp-rec-ref" 424242 > "${whdir}/curve-ref.jsonl" 2>/dev/null
TLSHARM_REFERENCE_CRYPTO=1 TLSHARM_POPULATION=1200 "${tlsharm}" harm explain \
  netflix.com 1 "${whdir}/camp-rec-ref" 424242 > "${whdir}/explain-ref.txt"
diff -r "${whdir}/camp-rec" "${whdir}/camp-rec-ref"
cmp "${whdir}/curve.jsonl" "${whdir}/curve-ref.jsonl"
cmp "${whdir}/explain.txt" "${whdir}/explain-ref.txt"
echo "reference and optimized crypto record, fold and explain identically"
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
# The Telemetry cases include ProfilingNeverChangesArtifacts: the profiling
# span path (thread-local buffers, registry mutex, the relaxed enable flag)
# under TSan, driven by a real sharded scan at 8 threads.
run_config "tsan" "${repo}/build-tsan" \
  --filter 'CryptoVectors|Differential|ParallelDeterminism|FleetEquivalence|Sharded|Telemetry|Prof' \
  -DTLSHARM_SANITIZE=thread
echo "== tsan: bench_crypto --selftest =="
"${repo}/build-tsan/bench/bench_crypto" --selftest

echo "All checks passed (plain + observability + warehouse + performance-plane + perf-correctness + crash-recovery + adversary-plane + sanitized + tsan)."
