// Tests for the crash-schedule explorer (src/check/): repro-string
// round-trips, determinism of schedule replay, and the exhaustive sweeps
// that are this subsystem's reason to exist — every op-indexed crash point,
// double- and triple-crash schedules, crash-during-truncation windows, and
// subset (reordered) writeback, all checked against the oracle.
#include <gtest/gtest.h>

#include <cstring>

#include "src/check/crash_explorer.h"
#include "src/check/crash_schedule.h"
#include "src/check/oracle.h"

namespace rvm {
namespace {

CheckerWorkload SmallWorkload() {
  CheckerWorkload workload;
  workload.total_txns = 10;
  return workload;
}

TEST(CrashScheduleTest, ToStringRoundTrips) {
  std::vector<CrashSchedule> cases;
  cases.push_back({{57, 0}, {}});
  cases.push_back({{kCrashAtEnd, 0}, {}});
  cases.push_back({{57, 9}, {}});
  cases.push_back({{0, 0}, {{12, 0}}});
  cases.push_back({{57, 9}, {{12, 0}, {3, 2}}});
  for (const CrashSchedule& schedule : cases) {
    std::string text = schedule.ToString();
    auto parsed = CrashSchedule::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, schedule) << text;
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(CrashScheduleTest, KnownStringsParse) {
  auto parsed = CrashSchedule::Parse("v1:fwd=57+s9:rec=12:rec=3+s2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->forward.op, 57u);
  EXPECT_EQ(parsed->forward.subset_seed, 9u);
  ASSERT_EQ(parsed->recovery.size(), 2u);
  EXPECT_EQ(parsed->recovery[0].op, 12u);
  EXPECT_EQ(parsed->recovery[0].subset_seed, 0u);
  EXPECT_EQ(parsed->recovery[1].op, 3u);
  EXPECT_EQ(parsed->recovery[1].subset_seed, 2u);
  EXPECT_EQ(CrashSchedule::Parse("v1:fwd=end")->forward.op, kCrashAtEnd);
}

TEST(CrashScheduleTest, MalformedStringsAreRejected) {
  for (const char* text :
       {"", "v1", "v2:fwd=3", "fwd=3", "v1:rec=3", "v1:fwd=x", "v1:fwd=3:bad=1",
        "v1:fwd=3:rec=end", "v1:fwd=3+s0", "v1:fwd=3+sx", "v1:fwd=3:rec="}) {
    EXPECT_FALSE(CrashSchedule::Parse(text).ok()) << text;
  }
}

TEST(CrashExplorerTest, BaselineIsDeterministic) {
  CrashExplorer a(SmallWorkload());
  CrashExplorer b(SmallWorkload());
  auto ops_a = a.BaselineOps();
  auto ops_b = b.BaselineOps();
  ASSERT_TRUE(ops_a.ok() && ops_b.ok());
  EXPECT_EQ(*ops_a, *ops_b);
  EXPECT_GT(*ops_a, 0u);
}

TEST(CrashExplorerTest, ReplayIsDeterministic) {
  // The repro-string contract: the same schedule re-runs bit-identically,
  // including subset writeback and nested recovery crashes.
  CrashExplorer explorer(CheckerWorkload{});
  for (const char* text :
       {"v1:fwd=10", "v1:fwd=30:rec=2", "v1:fwd=30+s7:rec=2+s3",
        "v1:fwd=end"}) {
    auto schedule = CrashSchedule::Parse(text);
    ASSERT_TRUE(schedule.ok());
    ScheduleOutcome first = explorer.RunSchedule(*schedule);
    ScheduleOutcome second = explorer.RunSchedule(*schedule);
    EXPECT_EQ(first.pass, second.pass) << text;
    EXPECT_EQ(first.fail_stop, second.fail_stop) << text;
    EXPECT_EQ(first.recovered_prefix, second.recovered_prefix) << text;
    EXPECT_EQ(first.truncation_window, second.truncation_window) << text;
    EXPECT_EQ(first.underflow_rec, second.underflow_rec) << text;
    EXPECT_EQ(first.detail, second.detail) << text;
  }
}

class ExplorerSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExplorerSweepTest, DepthTwoSweepPassesOracle) {
  // The acceptance sweep: full enumeration at depth 2 on the reference
  // workload — every forward op boundary, every recovery crash op under
  // each, plus fwd=end. Must pass the oracle everywhere, comfortably exceed
  // 1,000 distinct schedules, and include crash-during-truncation points
  // (a crash between a truncation's segment writes and its status-block
  // advance), for both truncation policies.
  CheckerWorkload workload;
  workload.use_incremental_truncation = GetParam();
  CrashExplorer explorer(workload);
  ExploreLimits limits;
  limits.max_depth = 2;
  uint64_t truncation_window_passes = 0;
  auto stats = explorer.ExploreAll(limits, [&](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
    if (outcome.truncation_window && outcome.pass) {
      ++truncation_window_passes;
    }
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_GE(stats->schedules_run, 1000u);
  EXPECT_EQ(stats->max_depth_reached, 2u);
  EXPECT_GT(stats->truncation_window_schedules, 0u)
      << "sweep never crashed inside a truncation";
  EXPECT_EQ(truncation_window_passes, stats->truncation_window_schedules);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExplorerSweepTest, ::testing::Bool(),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param ? "Incremental"
                                                               : "Epoch");
                         });

TEST(CrashExplorerTest, ShardedDepthTwoSweepPassesOracle) {
  // The sharded acceptance sweep (DESIGN.md §12): four regions striped
  // across four log shards, so most transactions cross shards and commit
  // through the internal 2PC. Depth-2 schedules interleave crash points
  // across the shards' logs — including a crash between the prepare forces
  // and the decision force (the two_pc_window flag), and a crash between a
  // coordinator truncation's sibling-evidence sync and its status write.
  // Strided to keep the runtime proportionate; the full-resolution sweep is
  // available through `rvmutl explore --shards=4`.
  CheckerWorkload workload;
  workload.log_shards = 4;
  workload.regions = 4;
  CrashExplorer explorer(workload);
  ExploreLimits limits;
  limits.max_depth = 2;
  limits.forward_stride = 3;
  limits.recovery_stride = 3;
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_EQ(stats->max_depth_reached, 2u);
  EXPECT_GT(stats->two_pc_window_schedules, 0u)
      << "sweep never crashed inside the cross-shard 2PC window";
  EXPECT_GT(stats->truncation_window_schedules, 0u)
      << "sweep never crashed inside a sharded truncation";
}

TEST(CrashExplorerTest, QuarantineAndRepairWindowSweepPassesOracle) {
  // The fault-domain acceptance sweep (DESIGN.md §13): the workload arms a
  // sticky write fault against shard 1 just before transaction 5, drives
  // the shard into quarantine, heals the device, repairs the shard online,
  // and retries the failed transaction — so depth-2 crash schedules land
  // inside the quarantine window (part of the durable state written in
  // degraded mode) and inside the online repair itself (the shard's log
  // mid-rebuild). Recovery from every such point must still satisfy
  // atomicity and permanence.
  CheckerWorkload workload;
  workload.log_shards = 4;
  workload.regions = 4;
  workload.fault_shard = 1;
  workload.fault_at_txn = 5;
  CrashExplorer explorer(workload);
  ExploreLimits limits;
  limits.max_depth = 2;
  limits.forward_stride = 3;
  limits.recovery_stride = 3;
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_GE(stats->schedules_run, 1000u);
  EXPECT_GT(stats->quarantine_window_schedules, 0u)
      << "sweep never crashed after the shard quarantine";
  EXPECT_GT(stats->repair_window_schedules, 0u)
      << "sweep never crashed inside the online repair";
}

TEST(CrashExplorerTest, FaultedWorkloadReplayIsDeterministic) {
  // Repro-string contract for the fault-domain sweep: the same schedule on
  // the same faulted workload re-runs bit-identically, including the
  // quarantine/repair window classification.
  CheckerWorkload workload;
  workload.log_shards = 4;
  workload.regions = 4;
  workload.fault_shard = 1;
  workload.fault_at_txn = 5;
  CrashExplorer explorer(workload);
  for (const char* text : {"v1:fwd=40", "v1:fwd=120:rec=5", "v1:fwd=end"}) {
    auto schedule = CrashSchedule::Parse(text);
    ASSERT_TRUE(schedule.ok()) << text;
    ScheduleOutcome first = explorer.RunSchedule(*schedule);
    ScheduleOutcome second = explorer.RunSchedule(*schedule);
    EXPECT_EQ(first.pass, second.pass) << text;
    EXPECT_EQ(first.recovered_prefix, second.recovered_prefix) << text;
    EXPECT_EQ(first.quarantine_window, second.quarantine_window) << text;
    EXPECT_EQ(first.repair_window, second.repair_window) << text;
    EXPECT_EQ(first.detail, second.detail) << text;
  }
}

TEST(CrashExplorerTest, ShardedPrepareToDecisionCrashRecoversAtomically) {
  // Pin one representative schedule from the 2PC window rather than relying
  // only on the strided sweep: crash the forward run mid-protocol, crash
  // the first recovery early (while decision evidence is being patched),
  // and require the oracle to accept the final image.
  CheckerWorkload workload;
  workload.log_shards = 4;
  workload.regions = 4;
  CrashExplorer explorer(workload);
  for (const char* text : {"v1:fwd=19:rec=3", "v1:fwd=183:rec=3",
                           "v1:fwd=184:rec=70"}) {
    auto schedule = CrashSchedule::Parse(text);
    ASSERT_TRUE(schedule.ok()) << text;
    ScheduleOutcome outcome = explorer.RunSchedule(*schedule);
    EXPECT_TRUE(outcome.pass) << text << ": " << outcome.detail;
  }
}

TEST(CrashExplorerTest, TripleCrashSchedulesPass) {
  // Depth 3: crash forward, crash the first recovery, crash the second
  // recovery, then recover and validate. Strided to keep the cube small.
  CrashExplorer explorer(SmallWorkload());
  ExploreLimits limits;
  limits.max_depth = 3;
  limits.forward_stride = 2;
  limits.recovery_stride = 2;
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_EQ(stats->max_depth_reached, 3u) << "no triple-crash schedule ran";
}

TEST(CrashExplorerTest, SubsetWritebackSchedulesPassOrFailStop) {
  // Reordered writeback at the crash instant: unsynced writes persist as a
  // seeded random subset, creating holes. Recovery must either produce an
  // oracle-consistent state or refuse outright (fail-stop) — a hole under a
  // valid successor is indistinguishable from media corruption, and some of
  // these schedules must actually exercise that refusal path.
  CheckerWorkload workload;
  CrashExplorer explorer(workload);
  ExploreLimits limits;
  limits.max_depth = 2;
  limits.forward_stride = 2;
  limits.recovery_stride = 2;
  limits.forward_subset_seeds = {3, 7};
  limits.recovery_subset_seeds = {5};
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
    if (outcome.fail_stop) {
      // Fail-stop is only ever a pass under subset writeback.
      bool subset = outcome.schedule.forward.subset_seed != 0;
      for (const CrashPoint& rec : outcome.schedule.recovery) {
        subset = subset || rec.subset_seed != 0;
      }
      EXPECT_TRUE(subset) << outcome.schedule.ToString();
    }
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_GT(stats->fail_stops, 0u)
      << "no subset schedule hit the fail-stop ambiguity; seeds too tame";
}

TEST(CrashExplorerTest, CrashAfterALongForwardScanRecovers) {
  // Recovery reads the whole live log forward, validating and imaging it,
  // before it persists anything; its first persist op (rec=0) is the crash
  // right after that read. Here the live log is long: a late truncation
  // trigger keeps up to ~94% of the area live, so the live range often
  // wraps past the end of the area, and a region of 32 pages outlasts one
  // incremental truncation's 16 page writes, so the status block often
  // names a head with live records before its tail (checked as committed)
  // as well as after it (discovered). Every fifth forward crash point is
  // followed by a crash at every recovery op, and by subset-writeback holes
  // anywhere in that long range.
  CheckerWorkload workload;
  workload.total_txns = 120;
  workload.truncation_threshold = 0.9;
  workload.region_len = 32 * 4096;
  CrashExplorer explorer(workload);
  ExploreLimits limits;
  limits.max_depth = 2;
  limits.forward_stride = 5;
  limits.forward_subset_seeds = {11};
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_EQ(stats->max_depth_reached, 2u);
  EXPECT_GT(stats->truncation_window_schedules, 0u);
}

TEST(CrashExplorerTest, ScheduleBudgetStopsEnumeration) {
  CrashExplorer explorer(SmallWorkload());
  ExploreLimits limits;
  limits.max_depth = 2;
  limits.max_schedules = 25;
  auto stats = explorer.ExploreAll(limits, nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->schedules_run, 25u);
  EXPECT_TRUE(stats->budget_exhausted);
}

TEST(CrashExplorerTest, UnderflowBoundsRecoverySweeps) {
  // A recovery crash op past what recovery actually persists must underflow
  // (recovery completes, validation still runs) rather than hang or fail.
  CrashExplorer explorer(SmallWorkload());
  auto schedule = CrashSchedule::Parse("v1:fwd=5:rec=100000");
  ASSERT_TRUE(schedule.ok());
  ScheduleOutcome outcome = explorer.RunSchedule(*schedule);
  EXPECT_TRUE(outcome.pass) << outcome.detail;
  EXPECT_EQ(outcome.underflow_rec, 0);
}

}  // namespace
}  // namespace rvm
