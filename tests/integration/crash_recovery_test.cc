// The crash-injection ladder: kill a scan campaign at every class of
// durability barrier, resume it, and require the campaign directory to be
// BYTE-IDENTICAL to a crash-free golden run — at several thread counts,
// and through a double crash. This is the end-to-end proof of the
// journal's claim: a fail-stop crash at any instant loses at most the
// in-flight day, and a resume reconstructs exactly the run that would
// have been.
//
// The ladder drives crash_campaign_runner (same build directory) via
// TLSHARM_CRASH_AFTER=<n>, which _exit(137)s the process at the n-th
// durability barrier (util/durable.h). All barriers run on the engine's
// merge thread, so barrier n is the same program state at any thread
// count. Every barrier is one step of a DurableWriteFile (fsync, rename,
// dir fsync), three per committed file. Layout per study day (engine +
// campaign commit order):
//
//   +1..3   journal day-started
//   +4..6   warehouse segment write
//   +7..9   warehouse MANIFEST update
//   +10..12 fold checkpoint write
//   +13..15 campaign state write
//   +16..18 metrics.json write
//   +19..21 journal day-committed
//
// preceded by 3 barriers for the initial journal write and followed by 3
// for the final manifest rewrite in Finish(). A recorded campaign (capture
// tape on) commits the tape's day between the warehouse MANIFEST and the
// fold checkpoint, so a recorded day passes 27 barriers:
//
//   +10..12 tape segment write
//   +13..15 tape MANIFEST update
//   +16..27 fold checkpoint, state, metrics.json, journal day-committed
//
// and the tape's final MANIFEST rewrite adds 3 more per study.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "gtest/gtest.h"
#include "simnet/internet.h"

namespace {

namespace fs = std::filesystem;

constexpr int kDays = 3;
constexpr int kPopulation = 300;
constexpr std::uint64_t kSeed = 7;

struct RunOutcome {
  int exit_code = -1;
  std::string output;
};

std::string RunnerPath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n] = '\0';
  return fs::path(buf).parent_path() / "crash_campaign_runner";
}

// Runs the campaign runner; `crash_after` > 0 arms the injection knob.
RunOutcome RunCampaign(const std::string& dir, int threads, bool resume,
                       long crash_after, bool record = false) {
  std::string cmd;
  if (crash_after > 0) {
    cmd += "TLSHARM_CRASH_AFTER=" + std::to_string(crash_after) + " ";
  }
  cmd += RunnerPath() + " " + dir + " " + std::to_string(kDays) + " " +
         std::to_string(kPopulation) + " " + std::to_string(kSeed) + " " +
         std::to_string(threads) + " " + (resume ? "1" : "0") + " " +
         (record ? "1" : "0") + " 2>&1";
  RunOutcome outcome;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char chunk[512];
  while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) {
    outcome.output += chunk;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    outcome.exit_code = 128 + WTERMSIG(status);
  }
  return outcome;
}

std::uint64_t ParseField(const std::string& output, const std::string& key) {
  const std::size_t at = output.find(key + "=");
  EXPECT_NE(at, std::string::npos) << key << " missing in: " << output;
  if (at == std::string::npos) return 0;
  return std::strtoull(output.c_str() + at + key.size() + 1, nullptr, 10);
}

// Every regular file under `dir`, relative path -> exact bytes.
std::map<std::string, std::string> SnapshotTree(const std::string& dir) {
  std::map<std::string, std::string> tree;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    tree[fs::relative(entry.path(), dir).string()] = bytes.str();
  }
  return tree;
}

void ExpectTreesEqual(const std::map<std::string, std::string>& golden,
                      const std::map<std::string, std::string>& resumed,
                      const std::string& label) {
  for (const auto& [name, bytes] : golden) {
    const auto it = resumed.find(name);
    ASSERT_NE(it, resumed.end()) << label << ": missing file " << name;
    EXPECT_EQ(it->second, bytes) << label << ": " << name << " differs";
  }
  for (const auto& [name, bytes] : resumed) {
    EXPECT_TRUE(golden.count(name)) << label << ": extra file " << name;
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("tlsharm-crash-" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);

    const std::string golden_dir = Dir("golden");
    const RunOutcome golden = RunCampaign(golden_dir, 1, false, 0);
    ASSERT_EQ(golden.exit_code, 0) << golden.output;
    golden_barriers_ = ParseField(golden.output, "barriers");
    ASSERT_GT(golden_barriers_, 20u);
    golden_tree_ = SnapshotTree(golden_dir);
    ASSERT_TRUE(golden_tree_.count("RUNLOG"));
    ASSERT_TRUE(golden_tree_.count("warehouse/MANIFEST"));
  }

  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) { return root_ / name; }

  // Crash at barrier `n` (any thread count), resume, compare to golden
  // (to `recorded_golden` for a campaign that records the capture tape).
  void CrashResumeCompare(
      const std::string& name, long n, int crash_threads, int resume_threads,
      const std::map<std::string, std::string>* recorded_golden = nullptr,
      std::string* resume_output = nullptr) {
    const bool record = recorded_golden != nullptr;
    const std::string dir = Dir(name);
    const RunOutcome crashed =
        RunCampaign(dir, crash_threads, false, n, record);
    ASSERT_EQ(crashed.exit_code, 137)
        << name << " at barrier " << n << ": " << crashed.output;
    const RunOutcome resumed =
        RunCampaign(dir, resume_threads, true, 0, record);
    ASSERT_EQ(resumed.exit_code, 0)
        << name << " resume after barrier " << n << ": " << resumed.output;
    ExpectTreesEqual(record ? *recorded_golden : golden_tree_,
                     SnapshotTree(dir), name + "@" + std::to_string(n));
    if (resume_output != nullptr) *resume_output = resumed.output;
  }

  fs::path root_;
  std::uint64_t golden_barriers_ = 0;
  std::map<std::string, std::string> golden_tree_;
};

TEST_F(CrashRecoveryTest, LadderCoversEveryCommitClassByteIdentically) {
  // One kill inside each barrier class of a mid-study day (see the layout
  // table above), plus the first barrier (initial journal write), a
  // mid-study point, and the very last barrier (final manifest rewrite).
  const std::uint64_t per_day = (golden_barriers_ - 6) / kDays;
  ASSERT_EQ(per_day, 21u) << "barrier layout changed; update the table";
  ASSERT_EQ(golden_barriers_, 6 + per_day * kDays)
      << "barrier layout changed; update the ladder offsets";
  const std::uint64_t day1 = 3 + per_day;  // base of study day 1
  std::set<long> ladder = {1, static_cast<long>(golden_barriers_ / 2),
                           static_cast<long>(golden_barriers_)};
  for (const std::uint64_t offset : {1u, 4u, 7u, 10u, 13u, 16u, 19u}) {
    ASSERT_LT(offset, per_day);
    ladder.insert(static_cast<long>(day1 + offset));
  }
  ASSERT_GE(ladder.size(), 8u);
  int i = 0;
  for (const long n : ladder) {
    CrashResumeCompare("ladder" + std::to_string(i++), n, 1, 1);
  }
}

TEST_F(CrashRecoveryTest, RecordedLadderResumesTheTapeByteIdentically) {
  // Kill a recorded campaign inside the middle day's tape segment write,
  // inside its tape MANIFEST update, and at the very last barrier (the
  // tape's final MANIFEST rewrite); each resume reopens the tape and must
  // rebuild the whole tree, capture/ included.
  const std::string golden_dir = Dir("recorded-golden");
  const RunOutcome golden = RunCampaign(golden_dir, 1, false, 0, true);
  ASSERT_EQ(golden.exit_code, 0) << golden.output;
  const std::uint64_t barriers = ParseField(golden.output, "barriers");
  const std::uint64_t per_day = (barriers - 9) / kDays;
  ASSERT_EQ(per_day, 27u) << "barrier layout changed; update the table";
  ASSERT_EQ(barriers, 9 + per_day * kDays)
      << "barrier layout changed; update the ladder offsets";
  const auto recorded_tree = SnapshotTree(golden_dir);
  ASSERT_TRUE(recorded_tree.count("capture/MANIFEST"));
  ASSERT_TRUE(recorded_tree.count("capture/capture-00002.seg"));

  const long day1 = static_cast<long>(3 + per_day);  // base of study day 1
  std::string output;
  CrashResumeCompare("recorded-segment", day1 + 10, 1, 1, &recorded_tree);
  // Both day-1 segments are durable but the journal never committed day 1:
  // the warehouse and the tape each drop theirs on resume.
  CrashResumeCompare("recorded-manifest", day1 + 13, 1, 1, &recorded_tree,
                     &output);
  EXPECT_EQ(ParseField(output, "stale_seg"), 2u) << output;
  CrashResumeCompare("recorded-last", static_cast<long>(barriers), 1, 1,
                     &recorded_tree);
}

TEST_F(CrashRecoveryTest, ResumeIsByteIdenticalAcrossThreadCounts) {
  // Crash an 8-thread run, resume with 2 threads: still byte-identical to
  // the single-threaded golden run.
  const long mid = static_cast<long>(golden_barriers_ / 2);
  CrashResumeCompare("threads", mid, 8, 2);
}

TEST_F(CrashRecoveryTest, SurvivesADoubleCrash) {
  const std::string dir = Dir("double");
  const long first = static_cast<long>(golden_barriers_ / 2);
  const RunOutcome crashed = RunCampaign(dir, 2, false, first);
  ASSERT_EQ(crashed.exit_code, 137) << crashed.output;
  // The second crash hits during recovery/rescan of the in-flight day.
  const RunOutcome crashed_again = RunCampaign(dir, 2, true, 5);
  ASSERT_EQ(crashed_again.exit_code, 137) << crashed_again.output;
  const RunOutcome resumed = RunCampaign(dir, 2, true, 0);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  ExpectTreesEqual(golden_tree_, SnapshotTree(dir), "double-crash");
}

TEST_F(CrashRecoveryTest, ResumingACompletedCampaignChangesNothing) {
  const std::string dir = Dir("complete");
  const RunOutcome full = RunCampaign(dir, 2, false, 0);
  ASSERT_EQ(full.exit_code, 0) << full.output;
  const RunOutcome again = RunCampaign(dir, 2, true, 0);
  ASSERT_EQ(again.exit_code, 0) << again.output;
  EXPECT_EQ(ParseField(again.output, "replayed"),
            static_cast<std::uint64_t>(kDays));
  ExpectTreesEqual(golden_tree_, SnapshotTree(dir), "re-resume");
}

TEST_F(CrashRecoveryTest, ResumeRepairsCrashDebrisAndReportsIt) {
  // Kill inside the day-1 warehouse MANIFEST update: the day's segment is
  // durable but the day never committed, so resume must drop it.
  const std::uint64_t per_day = (golden_barriers_ - 6) / kDays;
  const long n = static_cast<long>(3 + per_day + 8);
  const std::string dir = Dir("debris");
  const RunOutcome crashed = RunCampaign(dir, 1, false, n);
  ASSERT_EQ(crashed.exit_code, 137) << crashed.output;
  const RunOutcome resumed = RunCampaign(dir, 1, true, 0);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(ParseField(resumed.output, "replayed"), 1u);   // day 0 restored
  EXPECT_GT(ParseField(resumed.output, "stale_seg"), 0u);  // day 1 segment
  ExpectTreesEqual(golden_tree_, SnapshotTree(dir), "debris");
}

// In-process checks that need no crash injection: what a fresh start
// sweeps, what a run reports about itself, and what a resume refuses.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("tlsharm-campaign-" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const { return root_ / name; }

  // A campaign (one day unless `days` says otherwise) on a freshly built
  // world.
  static bool Run(const std::string& dir, bool resume,
                  tlsharm::campaign::CampaignResult* result,
                  std::string* error, bool record = false,
                  std::uint64_t seed = kSeed, int days = 1) {
    tlsharm::simnet::Internet net(
        tlsharm::simnet::PaperPopulationSpec(kPopulation), seed);
    tlsharm::campaign::CampaignSpec spec;
    spec.dir = dir;
    spec.days = days;
    spec.seed = seed;
    spec.resume = resume;
    spec.record_captures = record;
    return tlsharm::campaign::RunCampaign(net, spec, result, error);
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary) << bytes;
  }

  fs::path root_;
};

TEST_F(CampaignTest, FreshStartRemovesEveryStaleStateFile) {
  using tlsharm::campaign::StateFileName;
  const std::string dir = Dir("stale");
  fs::create_directories(dir);
  WriteFile(dir + "/" + StateFileName(0), "stale day 0");
  WriteFile(dir + "/" + StateFileName(4), "stale day 4");

  tlsharm::campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(Run(dir, false, &result, &error)) << error;
  EXPECT_EQ(result.recovery.stale_states_removed, 2u);
  EXPECT_FALSE(fs::exists(dir + "/" + StateFileName(4)));
  // The day-0 state file now on disk is this study's own commit.
  const auto tree = SnapshotTree(dir);
  ASSERT_TRUE(tree.count(StateFileName(0)));
  EXPECT_NE(tree.at(StateFileName(0)), "stale day 0");
}

TEST_F(CampaignTest, BarrierCountCoversOnlyItsOwnRun) {
  tlsharm::campaign::CampaignResult first, second;
  std::string error;
  ASSERT_TRUE(Run(Dir("first"), false, &first, &error)) << error;
  ASSERT_TRUE(Run(Dir("second"), false, &second, &error)) << error;
  EXPECT_GT(first.barriers_passed, 0u);
  EXPECT_EQ(second.barriers_passed, first.barriers_passed);
}

TEST_F(CampaignTest, RefusesAVersionOneJournalAndChangesNothing) {
  using tlsharm::campaign::kRunLogName;
  const std::string dir = Dir("v1");
  tlsharm::campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(Run(dir, false, &result, &error)) << error;

  // A version-1 journal's day records carry text-store digests this
  // decoder does not read; resume must refuse it rather than misparse it.
  auto tree = SnapshotTree(dir);
  ASSERT_TRUE(tree.count(kRunLogName));
  std::string runlog = tree.at(kRunLogName);
  ASSERT_GT(runlog.size(), 4u);
  runlog[4] = 1;
  WriteFile(dir + "/" + kRunLogName, runlog);
  tree = SnapshotTree(dir);

  error.clear();
  EXPECT_FALSE(Run(dir, true, &result, &error));
  EXPECT_NE(error.find("unsupported runlog version"), std::string::npos)
      << error;
  EXPECT_EQ(SnapshotTree(dir), tree);
}

// Recording is part of a campaign's identity when on: resuming with the
// tape flipped either way is a different configuration, refused before any
// file changes (starting a tape mid-study would hold only the resumed days;
// dropping one would delete its committed days).
TEST_F(CampaignTest, RefusesToStartRecordingOnResume) {
  const std::string dir = Dir("start-recording");
  tlsharm::campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(Run(dir, false, &result, &error)) << error;
  const auto tree = SnapshotTree(dir);

  EXPECT_FALSE(Run(dir, true, &result, &error, /*record=*/true));
  EXPECT_NE(error.find("different campaign configuration"), std::string::npos)
      << error;
  EXPECT_EQ(SnapshotTree(dir), tree);
}

TEST_F(CampaignTest, RefusesToDropRecordingOnResume) {
  const std::string dir = Dir("drop-recording");
  tlsharm::campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(Run(dir, false, &result, &error, /*record=*/true)) << error;
  const auto tree = SnapshotTree(dir);
  ASSERT_TRUE(tree.count("capture/capture-00000.seg"));

  EXPECT_FALSE(Run(dir, true, &result, &error));
  EXPECT_NE(error.find("different campaign configuration"), std::string::npos)
      << error;
  EXPECT_EQ(SnapshotTree(dir), tree);
}

// The journal pins the capture tape: a resumed recorded campaign whose
// tape was swapped for another campaign's is refused, though that tape is
// self-consistent, and nothing on disk changes. The foreign tape is a day
// longer than the journal's committed prefix, so a check made only after
// the resume sweep would already have deleted its extra day.
TEST_F(CampaignTest, RefusesASwappedCaptureTapeAndChangesNothing) {
  const std::string dir = Dir("swapped-tape");
  const std::string other = Dir("other-campaign");
  tlsharm::campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(Run(dir, false, &result, &error, /*record=*/true)) << error;
  ASSERT_TRUE(Run(other, false, &result, &error, /*record=*/true, kSeed + 1,
                  /*days=*/2))
      << error;
  ASSERT_TRUE(fs::exists(other + "/capture/capture-00001.seg"));
  fs::remove_all(dir + "/capture");
  fs::copy(other + "/capture", dir + "/capture");
  const auto tree = SnapshotTree(dir);

  error.clear();
  EXPECT_FALSE(Run(dir, true, &result, &error, /*record=*/true));
  EXPECT_NE(error.find("capture tape does not match the journal"),
            std::string::npos)
      << error;
  EXPECT_EQ(SnapshotTree(dir), tree);
}

}  // namespace
