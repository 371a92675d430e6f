// Fault-schedule sweep: fail-stop containment under injected I/O errors.
//
// Strategy: run a deterministic scripted workload with FaultInjectionEnv
// layered over CrashSimEnv, and sweep the first-failure point N over every
// operation class that matters (WriteAt, Sync) × failure mode (one-shot
// kIoError, sticky kIoError, fsyncgate). After each faulted run the
// environment crashes and a fault-free reopen recovers; the recovered state
// must equal the model after exactly k whole transactions with
//
//     last OK kFlush commit  <=  k  <=  last OK commit
//
// i.e. every injected first failure leaves the instance either durably
// committed or failed fast — zero lost committed transactions, zero partial
// transactions, and (checked separately) a failed fsync is never retried on
// the same fd.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "src/os/crash_sim.h"
#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/util/random.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kRegionLen = 4 * kPage;
constexpr uint64_t kSlots = kRegionLen / sizeof(uint64_t);
// Small log: truncations happen mid-workload, so segment I/O is in the
// fault schedule too, not just log appends and forces.
constexpr uint64_t kLogSize = kLogDataStart + 24 * 1024;
constexpr uint64_t kTotalTxns = 20;
constexpr uint64_t kFlushEvery = 2;

struct SlotWrite {
  uint64_t slot;
  uint64_t value;
};

// Transaction i writes the sequence marker, a few scattered slots, and one
// 32-slot contiguous block (so records are big enough to force truncation).
std::vector<SlotWrite> TxnScript(uint64_t i) {
  Xoshiro256 rng(i * 9176 + 7);
  std::vector<SlotWrite> writes;
  writes.push_back({0, i + 1});  // txn sequence marker, 1-based
  uint64_t scattered = 2 + rng.Below(3);
  for (uint64_t w = 0; w < scattered; ++w) {
    uint64_t slot = 1 + rng.Below(kSlots - 1);
    writes.push_back({slot, i * 1000003 + slot});
  }
  uint64_t block = 1 + rng.Below(kSlots - 33);
  for (uint64_t j = 0; j < 32; ++j) {
    writes.push_back({block + j, i * 777787 + block + j});
  }
  return writes;
}

std::vector<uint64_t> ModelAfter(uint64_t k) {
  std::vector<uint64_t> slots(kSlots, 0);
  for (uint64_t i = 0; i < k; ++i) {
    for (const SlotWrite& write : TxnScript(i)) {
      slots[write.slot] = write.value;
    }
  }
  return slots;
}

std::optional<uint64_t> MatchModel(const uint64_t* slots) {
  uint64_t k = slots[0];
  if (k > kTotalTxns) {
    return std::nullopt;
  }
  std::vector<uint64_t> model = ModelAfter(k);
  if (std::memcmp(slots, model.data(), kSlots * sizeof(uint64_t)) == 0) {
    return k;
  }
  return std::nullopt;
}

struct RunResult {
  uint64_t last_ok_flush = 0;   // highest 1-based txn with OK kFlush commit
  uint64_t last_ok_commit = 0;  // highest 1-based txn with OK commit
  bool hit_error = false;
  Status first_error;
};

// Runs the workload until completion or the first failed call. On a commit
// failure of a poisoned instance, also asserts the fail-stop contract:
// Begin/Flush fail fast with the original cause, mapped memory stays
// readable.
RunResult RunWorkload(Env& env) {
  RunResult result;
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.runtime.truncation_threshold = 0.5;
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    result.hit_error = true;
    result.first_error = rvm.status();
    return result;
  }
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  Status mapped = (*rvm)->Map(region);
  if (!mapped.ok()) {
    result.hit_error = true;
    result.first_error = mapped;
    return result;
  }
  auto* slots = static_cast<uint64_t*>(region.address);

  for (uint64_t i = 0; i < kTotalTxns; ++i) {
    auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
    if (!tid.ok()) {
      result.hit_error = true;
      result.first_error = tid.status();
      return result;
    }
    for (const SlotWrite& write : TxnScript(i)) {
      EXPECT_TRUE((*rvm)->Modify(*tid, &slots[write.slot], &write.value,
                                 sizeof(uint64_t)).ok())
          << "Modify is in-memory and must not fail";
    }
    bool flush = (i + 1) % kFlushEvery == 0;
    Status commit = (*rvm)->EndTransaction(
        *tid, flush ? CommitMode::kFlush : CommitMode::kNoFlush);
    if (!commit.ok()) {
      result.hit_error = true;
      result.first_error = commit;
      if ((*rvm)->poisoned()) {
        // Fail-stop: subsequent operations fail fast with the sticky cause
        // and reach no further I/O; reads of mapped memory still work.
        auto again = (*rvm)->BeginTransaction(RestoreMode::kRestore);
        EXPECT_FALSE(again.ok()) << "poisoned instance accepted a Begin";
        EXPECT_FALSE((*rvm)->Flush().ok()) << "poisoned instance flushed";
        EXPECT_FALSE((*rvm)->poison_status().ok());
        volatile uint64_t sink = slots[0];  // graceful degradation: readable
        (void)sink;
      }
      return result;
    }
    result.last_ok_commit = i + 1;
    if (flush) {
      result.last_ok_flush = i + 1;
    }
  }
  return result;  // instance destroyed here; Terminate may itself fault
}

// Crashes, recovers fault-free, and checks the recovered state is a model
// prefix bounded by [last_ok_flush, last_ok_commit-or-total].
void ValidateRecovery(CrashSimEnv& crash_env, const RunResult& run,
                      const std::string& context) {
  if (!crash_env.crashed()) {
    crash_env.Crash();
  }
  crash_env.Recover();
  RvmOptions options;
  options.env = &crash_env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << context << ": fault-free recovery failed: "
                        << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok()) << context;
  const auto* slots = static_cast<const uint64_t*>(region.address);

  std::optional<uint64_t> k = MatchModel(slots);
  ASSERT_TRUE(k.has_value())
      << context << ": ATOMICITY violated — recovered state matches no "
      << "transaction prefix (marker=" << slots[0]
      << ", first error: " << run.first_error.ToString() << ")";
  EXPECT_GE(*k, run.last_ok_flush)
      << context << ": PERMANENCE violated — flush-committed txn "
      << run.last_ok_flush << " lost (recovered to " << *k
      << ", first error: " << run.first_error.ToString() << ")";
  uint64_t upper = run.hit_error ? run.last_ok_commit : kTotalTxns;
  EXPECT_LE(*k, upper)
      << context << ": recovered a transaction whose commit reported failure";
}

struct SweepMode {
  FaultOp op;
  bool sticky;
  bool fsync_gate;
  const char* name;
};

TEST(FaultSweepTest, EveryFirstFailurePointFailsStopOrCommitsDurably) {
  // Measure a clean run to size the sweep.
  uint64_t clean_writes = 0;
  uint64_t clean_syncs = 0;
  {
    CrashSimEnv crash_env;
    ASSERT_TRUE(RvmInstance::CreateLog(&crash_env, "/log", kLogSize).ok());
    FaultInjectionEnv env(&crash_env);
    RunResult clean = RunWorkload(env);
    ASSERT_FALSE(clean.hit_error) << clean.first_error.ToString();
    ASSERT_EQ(clean.last_ok_commit, kTotalTxns);
    clean_writes = env.operations(FaultOp::kWriteAt);
    clean_syncs = env.operations(FaultOp::kSync);
  }
  ASSERT_GT(clean_writes, 0u);
  ASSERT_GT(clean_syncs, 0u);

  const SweepMode kModes[] = {
      {FaultOp::kWriteAt, /*sticky=*/false, /*gate=*/false, "writeat-oneshot"},
      {FaultOp::kWriteAt, /*sticky=*/true, /*gate=*/false, "writeat-sticky"},
      {FaultOp::kSync, /*sticky=*/false, /*gate=*/false, "sync-oneshot"},
      {FaultOp::kSync, /*sticky=*/true, /*gate=*/false, "sync-sticky"},
      {FaultOp::kSync, /*sticky=*/false, /*gate=*/true, "sync-fsyncgate"},
  };
  for (const SweepMode& mode : kModes) {
    uint64_t total =
        mode.op == FaultOp::kWriteAt ? clean_writes : clean_syncs;
    // Cover every point for syncs; stride the (much larger) write count.
    uint64_t step = std::max<uint64_t>(1, total / 40);
    int fired = 0;
    for (uint64_t n = 0; n < total; n += step) {
      CrashSimEnv crash_env;
      // Log creation is fault-free: the sweep targets Initialize onward.
      ASSERT_TRUE(RvmInstance::CreateLog(&crash_env, "/log", kLogSize).ok());
      FaultInjectionEnv env(&crash_env);
      env.set_fsync_gate_hook(
          [&](const std::string& path) { crash_env.DropPendingWrites(path); });
      FaultSpec spec;
      spec.op = mode.op;
      spec.after = n;
      spec.sticky = mode.sticky;
      spec.fsync_gate = mode.fsync_gate;
      env.InjectFault(spec);

      RunResult run = RunWorkload(env);
      if (env.faults_fired() > 0) {
        ++fired;
      }
      std::string context = std::string(mode.name) + "@" + std::to_string(n);
      ValidateRecovery(crash_env, run, context);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_GT(fired, 0) << mode.name << ": no sweep point ever fired";
  }
}

TEST(FaultSweepTest, FailedLogFsyncIsNeverRetriedOnTheSameFd) {
  for (bool gate : {false, true}) {
    CrashSimEnv crash_env;
    ASSERT_TRUE(RvmInstance::CreateLog(&crash_env, "/log", kLogSize).ok());
    FaultInjectionEnv env(&crash_env);
    env.set_fsync_gate_hook(
        [&](const std::string& path) { crash_env.DropPendingWrites(path); });
    FaultSpec spec;
    spec.op = FaultOp::kSync;
    spec.path_substring = "/log";
    spec.after = 2;  // fail the 3rd log force
    spec.fsync_gate = gate;
    env.InjectFault(spec);

    RunResult run = RunWorkload(env);
    ASSERT_TRUE(run.hit_error) << "gate=" << gate
                               << ": the sync fault never fired";
    // The failed fsync is the LAST sync that ever reaches the log file: the
    // device is poisoned, so Flush, commit, Terminate (via the instance
    // destructor above) and everything else fail fast before the fd.
    EXPECT_EQ(env.operations(FaultOp::kSync, "/log"), spec.after + 1)
        << "gate=" << gate << ": a failed fsync was retried on the same fd";
    ValidateRecovery(crash_env, run, gate ? "fsyncgate" : "sync-fail");
  }
}

TEST(FaultSweepTest, PoisonedInstanceReportsCauseAndCounters) {
  CrashSimEnv crash_env;
  ASSERT_TRUE(RvmInstance::CreateLog(&crash_env, "/log", kLogSize).ok());
  FaultInjectionEnv env(&crash_env);
  FaultSpec spec;
  spec.op = FaultOp::kWriteAt;
  spec.path_substring = "/log";
  spec.after = 1;
  spec.sticky = true;
  spec.message = "disk on fire";
  env.InjectFault(spec);

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    return;  // the fault landed inside Initialize; covered by the sweep
  }
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* slots = static_cast<uint64_t*>(region.address);

  Status failed = OkStatus();
  for (uint64_t i = 0; i < 4 && failed.ok(); ++i) {
    Transaction txn(**rvm);
    uint64_t value = i;
    ASSERT_TRUE((*rvm)->Modify(txn.id(), &slots[1], &value, 8).ok());
    failed = txn.Commit(CommitMode::kFlush);
  }
  ASSERT_FALSE(failed.ok()) << "sticky log write fault never surfaced";
  ASSERT_TRUE((*rvm)->poisoned());
  // The sticky cause is the original error, verbatim, on every entry point.
  EXPECT_NE((*rvm)->poison_status().ToString().find("disk on fire"),
            std::string::npos);
  Status begin = (*rvm)->BeginTransaction(RestoreMode::kRestore).status();
  EXPECT_NE(begin.ToString().find("disk on fire"), std::string::npos);
  EXPECT_GT((*rvm)->statistics().poisoned.load(), 0u);
  EXPECT_GT((*rvm)->statistics().io_errors.load(), 0u);
}

// --- Damaged records the status block vouches for --------------------------
//
// A clean Terminate writes the status block with the log still live, so
// every record up to its tail is committed data. One damaged record there
// fails Initialize with kCorruption (recovery's forward read checks each
// record against its predecessor), and the failed recovery moves no head.
TEST(LiveLogCorruptionTest, DamagedRecordBeforeTheStatusTailFailsStop) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    MemEnv env;
    ASSERT_TRUE(
        RvmInstance::CreateLog(&env, "/log", kLogSize, false, shards).ok());
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    options.log_shards = shards;
    {
      auto rvm = RvmInstance::Initialize(options);
      ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
      RegionDescriptor region;
      region.segment_path = "/seg";
      region.length = kRegionLen;
      ASSERT_TRUE((*rvm)->Map(region).ok());
      auto* slots = static_cast<uint64_t*>(region.address);
      for (uint64_t i = 0; i < 5; ++i) {
        Transaction txn(**rvm);
        uint64_t value = 100 + i;
        ASSERT_TRUE((*rvm)->Modify(txn.id(), &slots[i], &value, 8).ok());
        ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
      }
      ASSERT_TRUE((*rvm)->Terminate().ok());
    }
    // The region's shard holds the five records; damage the middle one.
    std::string victim;
    std::vector<uint64_t> records;
    LogStatusBlock before;
    for (uint32_t k = 0; k < shards; ++k) {
      const std::string path = shards == 1 ? "/log" : ShardLogPath("/log", k);
      auto log = LogDevice::Open(&env, path);
      ASSERT_TRUE(log.ok());
      if ((*log)->used() > 0) {
        victim = path;
        auto offsets = (*log)->CollectRecordOffsets();
        ASSERT_TRUE(offsets.ok());
        records = *offsets;
        before = (*log)->status();
      }
    }
    ASSERT_EQ(records.size(), 5u) << "the status tail should cover them all";
    {
      auto file = env.Open(victim, OpenMode::kReadWrite);
      ASSERT_TRUE(file.ok());
      const uint64_t at = records[2] + kRecordHeaderSize + 4;
      uint8_t byte = 0;
      ASSERT_TRUE((*file)->ReadAt(at, std::span<uint8_t>(&byte, 1)).ok());
      byte ^= 0xFF;
      ASSERT_TRUE(
          (*file)->WriteAt(at, std::span<const uint8_t>(&byte, 1)).ok());
    }

    auto rvm = RvmInstance::Initialize(options);
    ASSERT_FALSE(rvm.ok()) << "recovery accepted a damaged committed record";
    EXPECT_EQ(rvm.status().code(), ErrorCode::kCorruption)
        << rvm.status().ToString();
    auto after = LogDevice::Open(&env, victim);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ((*after)->status().head, before.head);
    EXPECT_EQ((*after)->status().tail, before.tail);
    EXPECT_EQ((*after)->status().generation, before.generation)
        << "a failed recovery rewrote the status block";
  }
}

// --- Shard fault domains (DESIGN.md §13) ----------------------------------
//
// On a multi-shard instance, a permanent I/O failure on shard k > 0 must
// quarantine only that shard: regions striped to healthy shards keep
// committing, regions on the quarantined shard fail fast with the original
// cause but stay readable, and RepairShard() restores full service
// in-process once the device heals. Shard 0 (the segment-dictionary source
// of truth) and single-shard instances still fail the whole instance.
// Transient faults (kUnavailable) never surface at all: the device-level
// retry layer absorbs them and counts io_retries.

constexpr uint32_t kFdShards = 4;
constexpr uint64_t kFdLogSize = kLogDataStart + 64 * 1024;

std::unique_ptr<RvmInstance> OpenSharded(Env& env) {
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = kFdShards;
  auto rvm = RvmInstance::Initialize(options);
  EXPECT_TRUE(rvm.ok()) << rvm.status().ToString();
  return rvm.ok() ? std::move(*rvm) : nullptr;
}

std::vector<uint8_t*> MapShardRegions(RvmInstance& rvm) {
  std::vector<uint8_t*> bases;
  for (uint32_t i = 0; i < kFdShards; ++i) {
    RegionDescriptor region;
    region.segment_path = "/seg" + std::to_string(i);
    region.length = kPage;
    Status mapped = rvm.Map(region);
    EXPECT_TRUE(mapped.ok()) << mapped.ToString();
    bases.push_back(static_cast<uint8_t*>(region.address));
  }
  return bases;
}

Status CommitByteTo(RvmInstance& rvm, uint8_t* base, uint8_t value) {
  Transaction txn(rvm, RestoreMode::kRestore);
  if (!txn.ok()) {
    return txn.status();
  }
  Status set = txn.SetRange(base, 1);
  if (!set.ok()) {
    return set;  // RAII abort
  }
  *base = value;
  return txn.Commit(CommitMode::kFlush);
}

// Region -> shard striping is segment_id % shards with ascending ids from
// an implementation-defined base, so the mapping is a rotation; discover it
// through the shard gauges rather than hard-coding the base.
size_t RegionOnShard(RvmInstance& rvm, const std::vector<uint8_t*>& bases,
                     uint64_t shard) {
  for (size_t i = 0; i < bases.size(); ++i) {
    const uint64_t before = rvm.Introspect().shards[shard].records_appended;
    EXPECT_TRUE(CommitByteTo(rvm, bases[i], 0xA5).ok());
    if (rvm.Introspect().shards[shard].records_appended > before) {
      return i;
    }
  }
  ADD_FAILURE() << "no region stripes onto shard " << shard;
  return 0;
}

TEST(ShardFaultDomainTest, TransientFaultSweepRetriesInvisibly) {
  // Nth-op sweep: one-shot kUnavailable on {WriteAt, Sync} x {shard 0,
  // shard 2}. Every sweep point must be absorbed by the retry layer —
  // commits keep succeeding, no shard quarantines, io_retries counts the
  // absorbed attempts.
  for (FaultOp op : {FaultOp::kWriteAt, FaultOp::kSync}) {
    for (uint32_t target : {0u, 2u}) {
      int fired = 0;
      for (uint64_t n : {0ull, 1ull, 2ull, 5ull}) {
        MemEnv mem;
        ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kFdLogSize,
                                           /*overwrite=*/false, kFdShards)
                        .ok());
        FaultInjectionEnv env(&mem);
        auto rvm = OpenSharded(env);
        ASSERT_NE(rvm, nullptr);
        std::vector<uint8_t*> bases = MapShardRegions(*rvm);
        FaultSpec spec;
        spec.op = op;
        spec.after = n;
        spec.code = ErrorCode::kUnavailable;
        spec.message = "transient blip";
        spec.path_substring = ShardLogPath("/log", target);
        env.InjectFault(spec);
        const std::string context = std::string(FaultOpName(op)) + " shard " +
                                    std::to_string(target) + " after " +
                                    std::to_string(n);
        for (int round = 0; round < 3; ++round) {
          for (uint8_t* base : bases) {
            Status committed =
                CommitByteTo(*rvm, base, static_cast<uint8_t>(round));
            EXPECT_TRUE(committed.ok())
                << context << ": " << committed.ToString();
          }
        }
        if (env.faults_fired() > 0) {
          ++fired;
          EXPECT_GT(rvm->statistics().io_retries.load(), 0u) << context;
        }
        EXPECT_FALSE(rvm->poisoned()) << context;
        for (uint32_t s = 0; s < kFdShards; ++s) {
          EXPECT_EQ(rvm->shard_health(s), RvmInstance::ShardHealth::kOk)
              << context << ": shard " << s;
        }
      }
      EXPECT_GT(fired, 0) << FaultOpName(op) << " shard " << target
                          << ": no sweep point ever fired";
    }
  }
}

TEST(ShardFaultDomainTest, StickyWriteFaultOnSecondaryShardDegradesNotDies) {
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kFdLogSize,
                                     /*overwrite=*/false, kFdShards)
                  .ok());
  FaultInjectionEnv env(&mem);
  auto rvm = OpenSharded(env);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases = MapShardRegions(*rvm);
  const uint32_t target = 2;
  const size_t victim = RegionOnShard(*rvm, bases, target);
  const size_t healthy = (victim + 1) % bases.size();

  FaultSpec spec;
  spec.op = FaultOp::kWriteAt;
  spec.sticky = true;
  spec.message = "platter shredded";
  spec.path_substring = ShardLogPath("/log", target);
  env.InjectFault(spec);

  Status failed = CommitByteTo(*rvm, bases[victim], 0x11);
  ASSERT_FALSE(failed.ok()) << "sticky write fault never surfaced";
  EXPECT_NE(failed.ToString().find("platter shredded"), std::string::npos);
  // The restore-mode commit rolled the region back to its pre-transaction
  // value (no decision is durable, so recovery would abort it too).
  EXPECT_EQ(bases[victim][0], 0xA5);

  // Contained: the instance is alive and the other three shards commit.
  EXPECT_FALSE(rvm->poisoned());
  EXPECT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kQuarantined);
  EXPECT_GT(rvm->statistics().shard_quarantines.load(), 0u);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < bases.size(); ++i) {
      if (i == victim) {
        continue;
      }
      Status committed =
          CommitByteTo(*rvm, bases[i], static_cast<uint8_t>(0x40 + round));
      EXPECT_TRUE(committed.ok()) << "healthy region " << i << " round "
                                  << round << ": " << committed.ToString();
    }
  }

  // The quarantined shard's regions fail fast with the original cause and
  // stay readable.
  Status again = CommitByteTo(*rvm, bases[victim], 0x22);
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.ToString().find("platter shredded"), std::string::npos);
  EXPECT_NE(rvm->shard_status(target).ToString().find("platter shredded"),
            std::string::npos);
  volatile uint8_t sink = bases[victim][0];  // readable in degraded mode
  (void)sink;

  // A cross-shard transaction that touches the quarantined shard aborts
  // cleanly: the healthy leg's old value is restored.
  const uint8_t healthy_before = bases[healthy][0];
  {
    Transaction txn(*rvm, RestoreMode::kRestore);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn.SetRange(bases[healthy], 1).ok());
    bases[healthy][0] = 0x77;
    EXPECT_FALSE(txn.SetRange(bases[victim], 1).ok());
  }  // RAII abort
  EXPECT_EQ(bases[healthy][0], healthy_before);

  // The device heals; online repair restores full service in-process.
  env.ClearFaults();
  Status repaired = rvm->RepairShard(target);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kOk);
  EXPECT_TRUE(rvm->shard_status(target).ok());
  EXPECT_GT(rvm->statistics().shard_repairs_completed.load(), 0u);
  Status committed = CommitByteTo(*rvm, bases[victim], 0x33);
  ASSERT_TRUE(committed.ok()) << committed.ToString();

  // Everything — including commits made in degraded mode and after the
  // repair — survives a restart.
  rvm.reset();
  rvm = OpenSharded(env);
  ASSERT_NE(rvm, nullptr);
  bases = MapShardRegions(*rvm);
  EXPECT_EQ(bases[victim][0], 0x33);
  EXPECT_EQ(bases[healthy][0], 0x42);  // last healthy-round commit
}

TEST(ShardFaultDomainTest, StickySyncFaultQuarantinesAndWritesSidecar) {
  // Sync-class permanent failure: the shard quarantines after the
  // reopen-and-replay path rejects the permanent error, and the quarantine
  // sidecar lands next to the shard's log file (the write fault above
  // would have swallowed it, a sync fault does not).
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kFdLogSize,
                                     /*overwrite=*/false, kFdShards)
                  .ok());
  FaultInjectionEnv env(&mem);
  auto rvm = OpenSharded(env);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases = MapShardRegions(*rvm);
  const uint32_t target = 1;
  const size_t victim = RegionOnShard(*rvm, bases, target);

  FaultSpec spec;
  spec.op = FaultOp::kSync;
  spec.sticky = true;
  spec.message = "sync bricked";
  spec.path_substring = ShardLogPath("/log", target);
  env.InjectFault(spec);

  Status failed = CommitByteTo(*rvm, bases[victim], 0x11);
  ASSERT_FALSE(failed.ok()) << "sticky sync fault never surfaced";
  EXPECT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kQuarantined);
  EXPECT_FALSE(rvm->poisoned());
  const std::string sidecar =
      ShardLogPath("/log", target) + ".quarantine.json";
  EXPECT_TRUE(env.Exists(sidecar)) << sidecar << " was not written";

  // Repair clears the sidecar along with the quarantine.
  env.ClearFaults();
  Status repaired = rvm->RepairShard(target);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_FALSE(env.Exists(sidecar)) << sidecar << " not cleaned up by repair";
  EXPECT_TRUE(CommitByteTo(*rvm, bases[victim], 0x55).ok());
}

TEST(ShardFaultDomainTest, StickyFaultOnShardZeroPoisonsWholeInstance) {
  // Shard 0 holds the segment-dictionary source of truth: its loss cannot
  // be contained, so the failure escalates to instance poison and every
  // entry point fails fast with the original cause.
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kFdLogSize,
                                     /*overwrite=*/false, kFdShards)
                  .ok());
  FaultInjectionEnv env(&mem);
  auto rvm = OpenSharded(env);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases = MapShardRegions(*rvm);
  const size_t victim = RegionOnShard(*rvm, bases, 0);

  FaultSpec spec;
  spec.op = FaultOp::kWriteAt;
  spec.sticky = true;
  spec.message = "dictionary shard dead";
  spec.path_substring = ShardLogPath("/log", 0);
  env.InjectFault(spec);

  Status failed = CommitByteTo(*rvm, bases[victim], 0x11);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(rvm->poisoned());
  EXPECT_NE(rvm->poison_status().ToString().find("dictionary shard dead"),
            std::string::npos);
  // Instance-wide: even regions on healthy shards fail fast now.
  for (size_t i = 0; i < bases.size(); ++i) {
    EXPECT_FALSE(CommitByteTo(*rvm, bases[i], 0x22).ok()) << "region " << i;
  }
}

TEST(ShardFaultDomainTest, TwoSecondaryShardsQuarantineIndependently) {
  // Two shards fail concurrently: each quarantines with its own sticky
  // cause, the instance stays up on the remaining shards, and repairing
  // both restores full service.
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kFdLogSize,
                                     /*overwrite=*/false, kFdShards)
                  .ok());
  FaultInjectionEnv env(&mem);
  auto rvm = OpenSharded(env);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases = MapShardRegions(*rvm);
  const size_t victim1 = RegionOnShard(*rvm, bases, 1);
  const size_t victim3 = RegionOnShard(*rvm, bases, 3);

  FaultSpec one;
  one.op = FaultOp::kWriteAt;
  one.sticky = true;
  one.message = "shard-one-dead";
  one.path_substring = ShardLogPath("/log", 1);
  env.InjectFault(one);
  FaultSpec three = one;
  three.message = "shard-three-dead";
  three.path_substring = ShardLogPath("/log", 3);
  env.InjectFault(three);

  EXPECT_FALSE(CommitByteTo(*rvm, bases[victim1], 0x11).ok());
  EXPECT_FALSE(CommitByteTo(*rvm, bases[victim3], 0x11).ok());
  EXPECT_FALSE(rvm->poisoned());
  EXPECT_EQ(rvm->shard_health(1), RvmInstance::ShardHealth::kQuarantined);
  EXPECT_EQ(rvm->shard_health(3), RvmInstance::ShardHealth::kQuarantined);
  // Deterministic per-shard causes: each shard reports its own failure.
  EXPECT_NE(rvm->shard_status(1).ToString().find("shard-one-dead"),
            std::string::npos);
  EXPECT_NE(rvm->shard_status(3).ToString().find("shard-three-dead"),
            std::string::npos);
  EXPECT_EQ(rvm->statistics().shard_quarantines.load(), 2u);
  // The two healthy shards keep committing.
  for (size_t i = 0; i < bases.size(); ++i) {
    if (i == victim1 || i == victim3) {
      continue;
    }
    EXPECT_TRUE(CommitByteTo(*rvm, bases[i], 0x22).ok()) << "region " << i;
  }

  env.ClearFaults();
  ASSERT_TRUE(rvm->RepairShard(1).ok());
  ASSERT_TRUE(rvm->RepairShard(3).ok());
  for (size_t i = 0; i < bases.size(); ++i) {
    EXPECT_TRUE(CommitByteTo(*rvm, bases[i], 0x33).ok()) << "region " << i;
  }
  EXPECT_EQ(rvm->statistics().shard_repairs_completed.load(), 2u);
}

TEST(ShardFaultDomainTest, ShardZeroFailureWinsOverSecondaryQuarantine) {
  // When shard 0 and a secondary shard fail together, the instance-level
  // outcome is deterministic in either strike order: shard 0's cause
  // poisons the instance (lowest failed shard wins; a secondary failure
  // only ever quarantines).
  for (bool zero_first : {true, false}) {
    MemEnv mem;
    ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kFdLogSize,
                                       /*overwrite=*/false, kFdShards)
                    .ok());
    FaultInjectionEnv env(&mem);
    auto rvm = OpenSharded(env);
    ASSERT_NE(rvm, nullptr);
    std::vector<uint8_t*> bases = MapShardRegions(*rvm);
    const size_t victim0 = RegionOnShard(*rvm, bases, 0);
    const size_t victim2 = RegionOnShard(*rvm, bases, 2);

    FaultSpec zero;
    zero.op = FaultOp::kWriteAt;
    zero.sticky = true;
    zero.message = "zero-dead";
    zero.path_substring = ShardLogPath("/log", 0);
    env.InjectFault(zero);
    FaultSpec two = zero;
    two.message = "two-dead";
    two.path_substring = ShardLogPath("/log", 2);
    env.InjectFault(two);

    if (zero_first) {
      EXPECT_FALSE(CommitByteTo(*rvm, bases[victim0], 0x11).ok());
      EXPECT_FALSE(CommitByteTo(*rvm, bases[victim2], 0x11).ok());
    } else {
      EXPECT_FALSE(CommitByteTo(*rvm, bases[victim2], 0x11).ok());
      EXPECT_FALSE(CommitByteTo(*rvm, bases[victim0], 0x11).ok());
    }
    EXPECT_TRUE(rvm->poisoned()) << "zero_first=" << zero_first;
    EXPECT_NE(rvm->poison_status().ToString().find("zero-dead"),
              std::string::npos)
        << "zero_first=" << zero_first << ": instance cause must be shard "
        << "0's failure, got " << rvm->poison_status().ToString();
  }
}

}  // namespace
}  // namespace rvm
