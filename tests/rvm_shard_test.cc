// Sharded multi-log tests (DESIGN.md §12): option validation, shard-count
// detection and mismatch handling, striping, cross-shard transactions
// through the internal 2PC, recovery across shards, and the force-count
// guarantees (a single-shard transaction costs exactly one fsync at every
// shard count: commits never write the status block).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/os/crash_sim.h"
#include "src/os/mem_env.h"
#include "src/rvm/log_device.h"
#include "src/rvm/options.h"
#include "src/rvm/rvm.h"
#include "src/util/random.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kLogSize = kLogDataStart + 256 * 1024;
constexpr uint32_t kShards = 4;

// --- Option validation (ValidateOptions / ValidateRuntimeOptions) ---------

RvmOptions BaseOptions() {
  RvmOptions options;
  options.log_path = "/log";
  return options;
}

TEST(ValidateOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateOptions(BaseOptions()).ok());
}

TEST(ValidateOptionsTest, EmptyLogPath) {
  RvmOptions options = BaseOptions();
  options.log_path.clear();
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, PageSizeMustBePowerOfTwo) {
  RvmOptions options = BaseOptions();
  options.page_size = 0;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.page_size = 3000;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, LogShardsBounds) {
  RvmOptions options = BaseOptions();
  options.log_shards = 0;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.log_shards = kMaxLogShards + 1;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.log_shards = kMaxLogShards;
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(ValidateOptionsTest, SamplingIntervalNeedsCapacity) {
  RvmOptions options = BaseOptions();
  options.sample_interval_us = 1000;
  options.sample_capacity = 0;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.sample_capacity = 16;
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(ValidateOptionsTest, GroupCommitKnobs) {
  RvmOptions options = BaseOptions();
  options.runtime.group_commit_max_batch = 0;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.runtime.group_commit_max_batch = (1ull << 20) + 1;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.runtime.group_commit_max_batch = 16;
  // A dwell above one minute is a unit error (negative cast or seconds
  // where microseconds were meant).
  options.runtime.group_commit_max_wait_us = 61ull * 1000 * 1000;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, TruncationFractions) {
  RvmOptions options = BaseOptions();
  options.runtime.truncation_threshold = 0.0;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.runtime.truncation_threshold = 1.5;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.runtime.truncation_threshold = 0.5;
  options.runtime.truncation_target = 0.9;  // target above threshold
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
  options.runtime.truncation_target = 0.25;
  options.runtime.incremental_max_steps = 0;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, RetryLimitBound) {
  RvmOptions options = BaseOptions();
  options.runtime.log_full_retry_limit = 1001;
  EXPECT_EQ(ValidateOptions(options).code(), ErrorCode::kInvalidArgument);
}

TEST(ValidateOptionsTest, InitializeRejectsInvalidOptions) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  RvmOptions options = BaseOptions();
  options.env = &env;
  options.runtime.group_commit_max_batch = 0;
  EXPECT_EQ(RvmInstance::Initialize(options).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- Shard detection and creation ----------------------------------------

TEST(ShardDetectTest, PlainLogDetectsAsOneShard) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  auto detected = RvmInstance::DetectLogShards(&env, "/log");
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(*detected, 1u);
}

TEST(ShardDetectTest, ShardedLogDetectsManifestCount) {
  MemEnv env;
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env, "/log", kLogSize, false, kShards).ok());
  auto detected = RvmInstance::DetectLogShards(&env, "/log");
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(*detected, kShards);
}

TEST(ShardDetectTest, ShardCountMismatchFailsInitialize) {
  MemEnv env;
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env, "/log", kLogSize, false, kShards).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = 1;  // on-disk manifest says 4
  EXPECT_EQ(RvmInstance::Initialize(options).status().code(),
            ErrorCode::kInvalidArgument);

  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/plain", kLogSize).ok());
  options.log_path = "/plain";
  options.log_shards = kShards;  // plain log, no manifest
  EXPECT_EQ(RvmInstance::Initialize(options).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(ShardDetectTest, CreateRejectsAbsurdShardCount) {
  MemEnv env;
  EXPECT_EQ(RvmInstance::CreateLog(&env, "/log", kLogSize, false,
                                   kMaxLogShards + 1)
                .code(),
            ErrorCode::kInvalidArgument);
}

// --- Sharded instance behaviour -------------------------------------------

class RvmShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        RvmInstance::CreateLog(&env_, "/log", kLogSize, false, kShards).ok());
    Reopen();
  }

  void Reopen() {
    rvm_.reset();
    RvmOptions options;
    options.env = &env_;
    options.log_path = "/log";
    options.log_shards = kShards;
    auto opened = RvmInstance::Initialize(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    rvm_ = std::move(*opened);
  }

  // Maps `count` single-page regions on distinct segments; with kShards
  // shards and ascending segment ids they land on distinct shards.
  std::vector<uint8_t*> MapRegions(uint64_t count) {
    std::vector<uint8_t*> bases;
    for (uint64_t i = 0; i < count; ++i) {
      RegionDescriptor region;
      region.segment_path = "/seg" + std::to_string(i);
      region.length = kPage;
      Status status = rvm_->Map(region);
      EXPECT_TRUE(status.ok()) << status.ToString();
      bases.push_back(static_cast<uint8_t*>(region.address));
    }
    return bases;
  }

  void CommitByte(uint8_t* base, uint8_t value,
                  CommitMode mode = CommitMode::kFlush) {
    auto tid = rvm_->BeginTransaction(RestoreMode::kRestore);
    ASSERT_TRUE(tid.ok());
    ASSERT_TRUE(rvm_->SetRange(*tid, base, 1).ok());
    *base = value;
    Status committed = rvm_->EndTransaction(*tid, mode);
    ASSERT_TRUE(committed.ok()) << committed.ToString();
  }

  MemEnv env_;
  std::unique_ptr<RvmInstance> rvm_;
};

TEST_F(RvmShardTest, StripedCommitsPersistAcrossRestart) {
  std::vector<uint8_t*> bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    CommitByte(bases[i], static_cast<uint8_t>(0x40 + i));
  }
  Reopen();
  bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(bases[i][0], 0x40 + i) << "region " << i;
  }
}

TEST_F(RvmShardTest, CrossShardTransactionIsAtomicAndDurable) {
  std::vector<uint8_t*> bases = MapRegions(kShards);
  auto tid = rvm_->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(tid.ok());
  for (uint32_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE(rvm_->SetRange(*tid, bases[i], 1).ok());
    bases[i][0] = static_cast<uint8_t>(0x60 + i);
  }
  ASSERT_TRUE(rvm_->EndTransaction(*tid, CommitMode::kFlush).ok());
  // The commit ran through the internal 2PC: a prepare record per shard
  // plus decision/markers.
  RvmGauges gauges = rvm_->Introspect();
  ASSERT_EQ(gauges.shards.size(), kShards);
  uint64_t prepares = 0;
  for (const ShardGauges& shard : gauges.shards) {
    prepares += shard.prepares;
  }
  EXPECT_EQ(prepares, kShards);
  Reopen();
  bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(bases[i][0], 0x60 + i) << "region " << i;
  }
}

TEST_F(RvmShardTest, CrossShardNoFlushCommitsEagerly) {
  // Bounded persistence cannot span independently forced logs, so a
  // cross-shard no-flush commit runs the 2PC eagerly: it is durable without
  // any Flush call.
  std::vector<uint8_t*> bases = MapRegions(kShards);
  auto tid = rvm_->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(rvm_->SetRange(*tid, bases[0], 1).ok());
  ASSERT_TRUE(rvm_->SetRange(*tid, bases[1], 1).ok());
  bases[0][0] = 0xA1;
  bases[1][0] = 0xA2;
  ASSERT_TRUE(rvm_->EndTransaction(*tid, CommitMode::kNoFlush).ok());
  Reopen();
  bases = MapRegions(kShards);
  EXPECT_EQ(bases[0][0], 0xA1);
  EXPECT_EQ(bases[1][0], 0xA2);
}

TEST_F(RvmShardTest, NoFlushSpoolsPerShardAndFlushForcesAll) {
  std::vector<uint8_t*> bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    CommitByte(bases[i], static_cast<uint8_t>(0x20 + i), CommitMode::kNoFlush);
  }
  EXPECT_GT(rvm_->spooled_bytes(), 0u);
  ASSERT_TRUE(rvm_->Flush().ok());
  EXPECT_EQ(rvm_->spooled_bytes(), 0u);
  Reopen();
  bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(bases[i][0], 0x20 + i) << "region " << i;
  }
}

TEST_F(RvmShardTest, IntrospectReportsPerShardGauges) {
  std::vector<uint8_t*> bases = MapRegions(kShards);
  CommitByte(bases[0], 0x11);
  RvmGauges gauges = rvm_->Introspect();
  EXPECT_EQ(gauges.log_shards, kShards);
  ASSERT_EQ(gauges.shards.size(), kShards);
  // Exactly one shard carries the record; capacity is reported per shard and
  // summed at the top level.
  uint64_t records = 0;
  uint64_t capacity = 0;
  for (const ShardGauges& shard : gauges.shards) {
    records += shard.records_appended;
    capacity += shard.log_capacity;
  }
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(capacity, gauges.log_capacity);
}

TEST_F(RvmShardTest, TruncateAppliesAllShards) {
  std::vector<uint8_t*> bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    CommitByte(bases[i], static_cast<uint8_t>(0x30 + i));
  }
  ASSERT_TRUE(rvm_->Truncate().ok());
  EXPECT_EQ(rvm_->log_bytes_in_use(), 0u);
  // Segment files now hold the committed images even with empty logs.
  Reopen();
  bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(bases[i][0], 0x30 + i) << "region " << i;
  }
}

TEST_F(RvmShardTest, SingleShardLogicOnMultiShardInstanceUnaffected) {
  // Transactions confined to one shard never touch the 2PC machinery.
  std::vector<uint8_t*> bases = MapRegions(1);
  for (int i = 0; i < 8; ++i) {
    CommitByte(bases[0], static_cast<uint8_t>(i));
  }
  RvmGauges gauges = rvm_->Introspect();
  for (const ShardGauges& shard : gauges.shards) {
    EXPECT_EQ(shard.prepares, 0u);
  }
  EXPECT_EQ(rvm_->statistics().transactions_committed.load(), 8u);
}

// --- Force accounting (acceptance: one force per single-shard commit) -----

TEST(ShardForceTest, SingleShardCommitCostsExactlyOneFsyncOnShardedInstance) {
  CrashSimEnv env;
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env, "/log", kLogSize, false, kShards).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = kShards;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kPage;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  const uint64_t syncs_before = env.sync_count();
  auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*rvm)->SetRange(*tid, base, 1).ok());
  *base = 0x7F;
  ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());
  // Deferred status writes (DESIGN.md §12): the group leader syncs the data
  // but does not rewrite the status block, so the whole commit is one fsync.
  EXPECT_EQ(env.sync_count() - syncs_before, 1u);
}

TEST(ShardForceTest, SingleShardInstanceFlushCommitCostsOneFsync) {
  // One shard is simply N=1: the group leader forces the record and writes
  // no status block, so a flush commit is exactly one fsync (§5.1.1, Table
  // 1). The commit is still permanent: after a power failure, recovery
  // finds the record by forward scanning past the last status write.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  {
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = kPage;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);

    const uint64_t syncs_before = env.sync_count();
    auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
    ASSERT_TRUE(tid.ok());
    ASSERT_TRUE((*rvm)->SetRange(*tid, base, 1).ok());
    *base = 0x7F;
    ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());
    EXPECT_EQ(env.sync_count() - syncs_before, 1u);
    env.Crash();  // before Terminate could write a status block
  }
  env.Recover();
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kPage;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  EXPECT_EQ(*static_cast<const uint8_t*>(region.address), 0x7F);
}

// --- Recovery paths --------------------------------------------------------

TEST_F(RvmShardTest, RecoveryReplaysEveryShardWithoutTerminate) {
  std::vector<uint8_t*> bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    CommitByte(bases[i], static_cast<uint8_t>(0x50 + i));
  }
  // Even a clean shutdown leaves the records live (Terminate writes status
  // blocks but never empties the logs), so the next Initialize replays every
  // shard through the recovery path.
  Reopen();
  EXPECT_GT(rvm_->statistics().recovery_records_applied.load(), 0u);
  bases = MapRegions(kShards);
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(bases[i][0], 0x50 + i) << "region " << i;
  }
}

// --- Recovery's newest-wins image across 2PC prepares ----------------------
//
// Recovery builds each shard's image in one forward read and merges 2PC
// prepare records only once every shard's decisions are known, by seqno:
// the newer record wins each byte. The records below are appended to the
// shard logs directly so that each ordering is exact.

TEST(ShardImageTest, PreparesMergeIntoTheImageBySeqno) {
  constexpr uint32_t kTwoShards = 2;
  MemEnv env;
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env, "/log", kLogSize, false, kTwoShards).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = kTwoShards;
  {
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    RegionDescriptor region;
    region.segment_path = "/seg0";
    region.length = kPage;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    ASSERT_TRUE((*rvm)->Terminate().ok());
  }
  SegmentId segment = kInvalidSegmentId;
  {
    auto shard0 = LogDevice::Open(&env, ShardLogPath("/log", 0));
    ASSERT_TRUE(shard0.ok());
    for (const SegmentDictEntry& entry : (*shard0)->status().segments) {
      if (entry.path == "/seg0") {
        segment = entry.id;
      }
    }
  }
  ASSERT_NE(segment, kInvalidSegmentId);
  const uint32_t owner = static_cast<uint32_t>(segment % kTwoShards);
  auto own_log = LogDevice::Open(&env, ShardLogPath("/log", owner));
  auto other_log = LogDevice::Open(&env, ShardLogPath("/log", 1 - owner));
  ASSERT_TRUE(own_log.ok() && other_log.ok());
  LogDevice& own = **own_log;
  LogDevice& other = **other_log;
  auto append = [&](LogDevice& log, TransactionId tid, uint64_t offset,
                    uint64_t length, uint8_t fill, uint8_t flags) {
    std::vector<uint8_t> bytes(length, fill);
    RangeView range{.segment = segment, .offset = offset, .data = bytes};
    auto appended = log.AppendTransaction(tid, {&range, length > 0 ? 1u : 0u},
                                          flags);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  };
  // [0, 16): a newer prepare that no shard decided leaves the older
  // committed bytes (presumed abort).
  append(own, 501, 0, 16, 0xAA, 0);
  append(own, 601, 0, 16, 0xBB, kRecordFlagShardPrepare);
  // [100, 132): a decided prepare older than an overlapping ordinary record
  // keeps only the bytes that record does not cover.
  append(own, 602, 100, 24, 0xCC, kRecordFlagShardPrepare);
  append(own, 502, 108, 24, 0xDD, 0);
  // The status tail lands here: the scan validates what lies before it and
  // discovers what follows.
  ASSERT_TRUE(own.WriteStatus().ok());
  // [200, 232): a decided prepare newer than the ordinary record wins.
  append(own, 503, 200, 24, 0xEE, 0);
  append(own, 603, 208, 24, 0x11, kRecordFlagShardPrepare);
  // The decisions live only on the other shard.
  append(other, 602, 0, 0, 0, kRecordFlagShardDecision);
  append(other, 603, 0, 0, 0, kRecordFlagShardDecision);
  ASSERT_TRUE(own.Sync().ok());
  ASSERT_TRUE(other.Sync().ok());
  own_log->reset();
  other_log->reset();

  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  // Three ordinary records, two decided prepares, two decisions and the two
  // commit markers recovery appends to the owner's log before applying.
  EXPECT_EQ((*rvm)->statistics().recovery_records_applied.load(), 9u);
  EXPECT_EQ((*rvm)->statistics().recovery_bytes_applied.load(), 16u + 32 + 32);
  RegionDescriptor region;
  region.segment_path = "/seg0";
  region.length = kPage;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* base = static_cast<const uint8_t*>(region.address);
  auto expect_run = [&](uint64_t from, uint64_t to, uint8_t value) {
    for (uint64_t i = from; i < to; ++i) {
      ASSERT_EQ(base[i], value) << "byte " << i;
    }
  };
  expect_run(0, 16, 0xAA);
  expect_run(100, 108, 0xCC);
  expect_run(108, 132, 0xDD);
  expect_run(200, 208, 0xEE);
  expect_run(208, 232, 0x11);
}

// --- Sharded basher --------------------------------------------------------
//
// The basher pattern of tests/basher_test.cc on a 4-shard instance with one
// region per shard and a cross-shard transaction mixed in: repeated cycles
// of work -> power failure at a random durable prefix -> recover -> verify
// -> continue. The recovered image of ALL four regions together must equal
// the deterministic script's state after exactly k whole transactions — a
// torn cross-shard commit (some participants applied, some not) matches no
// k and fails the scan. Every commit is flush-mode: a no-flush commit's
// bounded persistence is per shard (forcing shard B does not persist an
// earlier no-flush transaction on shard A), so the durable image would be
// a per-shard cut rather than one global prefix; single-log no-flush loss
// is the plain basher's job.

constexpr uint64_t kBashRegions = 4;
constexpr uint64_t kBashSlots = kPage / sizeof(uint64_t);
constexpr uint64_t kBashLogSize = kLogDataStart + 64 * 1024;  // wraps often
constexpr uint64_t kBashTxnsPerCycle = 100;
constexpr int kBashCycles = 6;

struct BashWrite {
  uint64_t region;
  uint64_t slot;
  uint64_t value;
};

// Deterministic transaction script, continued across incarnations. Most
// transactions stay on one region (the single-shard fast path); one in four
// touches a second region and rides the internal 2PC.
std::vector<BashWrite> BashScript(uint64_t i) {
  Xoshiro256 rng(i * 2654435761 + 7);
  std::vector<BashWrite> writes;
  uint64_t primary = rng.Below(kBashRegions);
  uint64_t count = 1 + rng.Below(4);
  for (uint64_t w = 0; w < count; ++w) {
    writes.push_back({primary, 1 + rng.Below(kBashSlots - 1),
                      i * 999983 + w + 1});
  }
  if (rng.Chance(0.25)) {
    uint64_t other = (primary + 1 + rng.Below(kBashRegions - 1)) % kBashRegions;
    writes.push_back({other, 1 + rng.Below(kBashSlots - 1), i * 424243 + 1});
  }
  return writes;
}

using BashModel = std::vector<std::vector<uint64_t>>;  // [region][slot]

// Largest k in [lo, hi] whose whole-transaction model matches the recovered
// regions, or -1 when no prefix matches (atomicity violated).
int64_t MatchingPrefix(const std::vector<uint8_t*>& bases, uint64_t lo,
                       uint64_t hi) {
  BashModel model(kBashRegions, std::vector<uint64_t>(kBashSlots, 0));
  int64_t matched = -1;
  for (uint64_t k = 0; k <= hi; ++k) {
    if (k >= lo) {
      bool equal = true;
      for (uint64_t r = 0; r < kBashRegions && equal; ++r) {
        equal = std::memcmp(bases[r], model[r].data(), kPage) == 0;
      }
      if (equal) {
        matched = static_cast<int64_t>(k);
      }
    }
    if (k < hi) {
      for (const BashWrite& write : BashScript(k)) {
        model[write.region][write.slot] = write.value;
      }
    }
  }
  // Check hi itself after the final apply.
  bool equal = true;
  for (uint64_t r = 0; r < kBashRegions && equal; ++r) {
    equal = std::memcmp(bases[r], model[r].data(), kPage) == 0;
  }
  if (equal) {
    matched = static_cast<int64_t>(hi);
  }
  return matched;
}

class ShardBasherTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardBasherTest, CrashRecoverContinueCycles) {
  Xoshiro256 rng(GetParam());
  CrashSimEnv env;
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env, "/log", kBashLogSize, false, kShards).ok());

  uint64_t next_txn = 0;      // global script index to run next
  uint64_t last_flushed = 0;  // permanence floor
  for (int cycle = 0; cycle < kBashCycles; ++cycle) {
    env.SetPersistBudget(5000 + rng.Below(80000));

    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    options.log_shards = kShards;
    options.runtime.use_incremental_truncation = rng.Chance(0.5);
    options.runtime.truncation_threshold = 0.5;
    auto rvm = RvmInstance::Initialize(options);
    if (!rvm.ok()) {
      // Crashed during the five-phase recovery itself: recover the
      // environment and rerun the same cycle (idempotency under repeated
      // recovery crashes, now with the cross-shard evidence patching in
      // the replayed window).
      ASSERT_FALSE(!env.crashed() && cycle == 0)
          << "first recovery cannot fail without a crash: "
          << rvm.status().ToString();
      env.Recover();
      --cycle;
      continue;
    }
    std::vector<uint8_t*> bases;
    bool map_failed = false;
    for (uint64_t r = 0; r < kBashRegions; ++r) {
      RegionDescriptor region;
      region.segment_path = "/bseg" + std::to_string(r);
      region.length = kPage;
      if (!(*rvm)->Map(region).ok()) {
        map_failed = true;
        break;
      }
      bases.push_back(static_cast<uint8_t*>(region.address));
    }
    if (map_failed) {
      env.Recover();
      --cycle;
      continue;
    }

    // The recovered four-region image must be the model after exactly k
    // whole transactions, k >= the permanence floor. k may exceed next_txn
    // by one: a commit whose crash struck between durability and the ack is
    // allowed to survive (the attempted-but-unacked upper bound).
    int64_t k = MatchingPrefix(bases, last_flushed, next_txn + 1);
    ASSERT_GE(k, 0) << "cycle " << cycle
                    << ": recovered state is not a whole-txn prefix "
                    << "(cross-shard commit torn?)";
    next_txn = static_cast<uint64_t>(k);  // lost suffix is re-run

    for (uint64_t i = 0; i < kBashTxnsPerCycle; ++i) {
      auto tid = (*rvm)->BeginTransaction(rng.Chance(0.3)
                                              ? RestoreMode::kNoRestore
                                              : RestoreMode::kRestore);
      if (!tid.ok()) {
        break;
      }
      bool ok = true;
      for (const BashWrite& write : BashScript(next_txn)) {
        uint64_t* slot =
            reinterpret_cast<uint64_t*>(bases[write.region]) + write.slot;
        ok = ok && (*rvm)->Modify(*tid, slot, &write.value, 8).ok();
      }
      if (!ok) {
        break;
      }
      if (!(*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok()) {
        break;
      }
      ++next_txn;
      last_flushed = next_txn;
    }
    rvm->reset();  // incarnation ends (destructor may also hit the budget)
    if (!env.crashed()) {
      env.Crash();
    }
    env.Recover();
  }
  EXPECT_GT(last_flushed, 0u) << "stress never made durable progress";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardBasherTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Deterministic dictionary-mirror repair sweep --------------------------
//
// Map mirrors the segment dictionary into every shard's status block, shard 0
// first. A crash between two shards' status writes leaves later shards'
// mirrors behind shard 0's, and a mirror entry must be durable in a shard's
// own status block before that shard's log records may name the id (each
// shard's log is replayed self-describingly). The sharded basher found the
// missing-heal bug, but only on some seeds; this sweep crashes at every op
// boundary inside the Map window so every inter-write gap is hit
// deterministically. Without the healing in SegmentIdForLocked /
// OpenSegmentBothLocked, incarnation 3's recovery fails with "segment id not
// in dictionary".

TEST(ShardDictRepairTest, MapCrashBetweenMirrorWritesStaysRecoverable) {
  for (uint64_t crash_op = 1; crash_op <= 60; ++crash_op) {
    SCOPED_TRACE("crash_op=" + std::to_string(crash_op));
    CrashSimEnv env;
    ASSERT_TRUE(
        RvmInstance::CreateLog(&env, "/log", kBashLogSize, false, kShards)
            .ok());

    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    options.log_shards = kShards;

    // Incarnation 1: crash at an exact op boundary inside Map's per-shard
    // status writes.
    {
      auto rvm = RvmInstance::Initialize(options);
      ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
      env.SetCrashAtOp(crash_op);
      for (uint64_t r = 0; r < kBashRegions; ++r) {
        RegionDescriptor region;
        region.segment_path = "/dseg" + std::to_string(r);
        region.length = kPage;
        if (!(*rvm)->Map(region).ok()) {
          break;  // hit the crash point mid-Map: the interesting case
        }
      }
    }
    if (!env.crashed()) {
      env.Crash();  // crash_op beyond the Map window: plain power failure
    }
    env.Recover();

    // Incarnation 2: remap everything and make every shard's log name its
    // region's id — one flush commit per region plus one cross-shard commit.
    // A lagging mirror that Map's found-path did not heal leaves that
    // shard's log unreplayable.
    {
      auto rvm = RvmInstance::Initialize(options);
      ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
      std::vector<uint8_t*> bases;
      for (uint64_t r = 0; r < kBashRegions; ++r) {
        RegionDescriptor region;
        region.segment_path = "/dseg" + std::to_string(r);
        region.length = kPage;
        ASSERT_TRUE((*rvm)->Map(region).ok());
        bases.push_back(static_cast<uint8_t*>(region.address));
      }
      for (uint64_t r = 0; r < kBashRegions; ++r) {
        auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
        ASSERT_TRUE(tid.ok());
        ASSERT_TRUE((*rvm)->SetRange(*tid, bases[r], 1).ok());
        bases[r][0] = static_cast<uint8_t>(0xA0 + r);
        ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());
      }
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
      ASSERT_TRUE(tid.ok());
      for (uint64_t r = 0; r < kBashRegions; ++r) {
        ASSERT_TRUE((*rvm)->SetRange(*tid, bases[r] + 8, 1).ok());
        bases[r][8] = static_cast<uint8_t>(0xC0 + r);
      }
      ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());
    }
    env.Crash();  // force the next incarnation to replay every shard's log
    env.Recover();

    // Incarnation 3: recovery replays all four logs and the committed image
    // survives.
    {
      auto rvm = RvmInstance::Initialize(options);
      ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
      for (uint64_t r = 0; r < kBashRegions; ++r) {
        RegionDescriptor region;
        region.segment_path = "/dseg" + std::to_string(r);
        region.length = kPage;
        ASSERT_TRUE((*rvm)->Map(region).ok());
        const uint8_t* base = static_cast<const uint8_t*>(region.address);
        EXPECT_EQ(base[0], 0xA0 + r) << "region " << r;
        EXPECT_EQ(base[8], 0xC0 + r) << "region " << r;
      }
    }
  }
}

}  // namespace
}  // namespace rvm
