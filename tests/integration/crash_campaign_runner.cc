// Subprocess body for the crash-recovery ladder (crash_recovery_test.cc):
// runs one deterministic scan campaign in a directory, optionally resuming,
// and prints a parseable summary. The test forks this binary with
// TLSHARM_CRASH_AFTER=<n> to kill it at the n-th durability barrier, then
// reruns it with --resume and compares the campaign directory byte for
// byte against a crash-free golden run.
//
// Usage: crash_campaign_runner <dir> <days> <population> <seed> <threads>
//                              <resume 0|1> <record 0|1>
// (record 1 also records the capture tape under <dir>/capture.)
// Exit codes: 0 success, 2 usage/campaign error (message on stderr);
// crash injection terminates with _exit(137) before any output.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/campaign.h"
#include "simnet/internet.h"

using namespace tlsharm;

int main(int argc, char** argv) {
  if (argc != 8) {
    std::fprintf(stderr,
                 "usage: %s <dir> <days> <population> <seed> <threads> "
                 "<resume 0|1> <record 0|1>\n",
                 argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  const int days = std::atoi(argv[2]);
  const int population = std::atoi(argv[3]);
  const std::uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  const int threads = std::atoi(argv[5]);
  const bool resume = std::atoi(argv[6]) != 0;
  const bool record = std::atoi(argv[7]) != 0;
  if (days <= 0 || population <= 0 || threads <= 0) {
    std::fprintf(stderr, "bad arguments\n");
    return 2;
  }

  // A faulty world exercises retries, the requeue pass, and the loss
  // ledger — the state the resume path must restore exactly.
  constexpr std::uint64_t kWorldSeed = 424242;
  simnet::Internet net(simnet::PaperPopulationSpec(population), kWorldSeed);
  net.SetFaultSpec(simnet::DefaultFaultSpec(1.0));

  campaign::CampaignSpec spec;
  spec.dir = dir;
  spec.days = days;
  spec.seed = seed;
  spec.threads = threads;
  spec.resume = resume;
  spec.record_captures = record;
  spec.robustness.retry.max_attempts = 3;
  spec.world_digest = kWorldSeed ^ (static_cast<std::uint64_t>(population)
                                    << 20);

  campaign::CampaignResult result;
  std::string error;
  if (!campaign::RunCampaign(net, spec, &result, &error)) {
    std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
    return 2;
  }
  std::size_t lost = 0;
  for (const auto& day : result.scan.loss) lost += day.lost;
  std::printf("barriers=%" PRIu64 " first_day=%d replayed=%d tmp=%" PRIu64
              " stale_seg=%" PRIu64 " stale_ckpt=%" PRIu64
              " stale_state=%" PRIu64 " core=%zu lost=%zu\n",
              result.barriers_passed, result.first_scanned_day,
              result.recovery.days_replayed,
              result.recovery.tmp_files_removed,
              result.recovery.stale_segments_removed,
              result.recovery.stale_checkpoints_removed,
              result.recovery.stale_states_removed,
              result.scan.core_domains.size(), lost);
  return 0;
}
