// Offline side of the wall-clock performance plane: quantile estimation
// over prof.h's log-bucketed histograms, the aggregated text report behind
// `tlsharm prof` / `tlsharm stats --prof`, the hotspot JSON committed into
// BENCH_prof.json, and a loader that folds a Chrome trace file back into a
// ProfSnapshot so the summarizer works on trace files from past runs.
//
// Everything here runs after the fact, on already-sealed data — nothing in
// this header is callable from a scan hot path.
#pragma once

#include <string>
#include <string_view>

#include "obs/prof.h"

namespace tlsharm::obs {

// Quantile estimate (q in [0,1]) from the span's log2 histogram, linearly
// interpolated inside the selected bucket [2^i, 2^(i+1)). Exact min/max are
// substituted at the extremes, so p0 == min_ns and p100 == max_ns.
double ProfQuantileNs(const ProfSpanStats& s, double q);

// The aggregated text report: hotspot table (count, total, self, self%,
// p50/p95/p99), shard-utilization table, and the attribution footer
// (share of root wall time claimed by named child spans).
std::string RenderProfReport(const ProfSnapshot& snap);

// Hotspot table as a JSON array (top `max_rows` spans by self time) for
// embedding in BENCH_prof.json via bench::JsonReport::AddRaw. Integer
// nanosecond fields only, so the document stays parseable by obs::ParseJson.
std::string RenderHotspotJson(const ProfSnapshot& snap, int max_rows);

// Share of total root wall time attributed to named non-root spans,
// in percent: 100 * (1 - root_self / root_total). 100 when no roots.
double ProfAttributedPct(const ProfSnapshot& snap);

// Parses a Chrome trace-event JSON document (the ProfChromeTraceJson
// schema: "ph":"X" complete events with pid/tid/ts/dur, plus "ph":"M"
// metadata) and folds the events back into per-span aggregates,
// reconstructing self-time by re-nesting each tid's intervals. Returns
// false with a message in `error` on malformed input. Used by
// `tlsharm prof <trace.json>`.
bool LoadChromeTrace(std::string_view json, ProfSnapshot* out,
                     std::string* error);

}  // namespace tlsharm::obs
