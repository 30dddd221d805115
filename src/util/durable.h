// Durable file commits and deterministic crash injection — the shared
// foundation of the crash-safe campaign layer (scanner/runlog.h,
// campaign/campaign.h).
//
// Every persistent artifact the campaign relies on (warehouse segments and
// MANIFEST, fold checkpoints, campaign state, the run journal) is committed
// with the same discipline: write the full contents to `<path>.tmp`, fsync
// the temp file, rename it over `path`, then fsync the containing
// directory. A fail-stop crash at any instant therefore leaves `path`
// holding either the previous complete contents or the new complete
// contents — never a torn mixture — plus at worst one orphaned `*.tmp`
// file, which recovery sweeps.
//
// Crash injection: TLSHARM_CRASH_AFTER=<n> makes the process _exit(137) at
// the n-th durability barrier it passes (1-based) — no stream flushing, no
// destructors, like a kill -9 at that instant. The barriers are the three
// steps of every DurableWriteFile: after the temp fsync, after the rename,
// and after the directory fsync. All of them execute on the scan engine's
// merge thread, so for a fixed workload the n-th barrier is the same
// program state at any thread count — the property the crash-recovery
// ladder test relies on.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace tlsharm {

// Barriers passed so far in this process. The counter always runs, crash
// injection or not; the difference of two readings counts the barriers
// one run passed, which is how harnesses size their kill ladder.
std::uint64_t CrashPointsPassed();

// Atomically replaces `path` with `bytes` using the temp+fsync+rename+
// dir-fsync discipline above. False + `error` on I/O failure; `path` then
// still holds its previous contents.
bool DurableWriteFile(const std::string& path, ByteView bytes,
                      std::string* error);

// fsyncs the directory containing `path` so a completed rename survives a
// power cut. False + `error` when the directory cannot be opened/synced.
bool FsyncParentDir(const std::string& path, std::string* error);

}  // namespace tlsharm
