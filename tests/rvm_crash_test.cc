// Crash-recovery property tests.
//
// Strategy: run the deterministic scripted workload from src/check/ on a
// CrashSimEnv and crash it at *op-indexed* durable-prefix boundaries — the
// Nth whole pending operation that persists — via the CrashExplorer, which
// validates every recovered state against the whole-transaction oracle:
//
//   ATOMICITY   — the recovered region equals the model state after exactly
//                 k whole transactions, for some k (never a partial
//                 transaction).
//   PERMANENCE  — k covers every kFlush commit whose EndTransaction returned
//                 OK before the crash.
//   IDEMPOTENCE — repeating recovery reproduces the identical image.
//
// Op indices are exact, replayable boundaries; the byte-budget sweep below
// is kept for what op boundaries cannot express — a crash *inside* a single
// write during Sync, tearing the record mid-byte. A separate test crashes
// during recovery itself (§5.1.2: the status-block update is deferred to
// the end, so recovery reruns from scratch).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>

#include "src/check/crash_explorer.h"
#include "src/os/crash_sim.h"
#include "src/os/fault_env.h"
#include "src/rvm/log_device.h"
#include "src/rvm/rvm.h"
#include "src/sim/sim_clock.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_env.h"
#include "src/util/random.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kRegionLen = 4 * kPage;
constexpr uint64_t kSlots = kRegionLen / sizeof(uint64_t);
constexpr uint64_t kLogSize = kLogDataStart + 16 * 1024;

CheckerWorkload MakeWorkload(bool use_incremental) {
  CheckerWorkload workload;  // defaults: small log, truncations happen
  workload.use_incremental_truncation = use_incremental;
  return workload;
}

struct WorkloadOutcome {
  // Highest 1-based txn index whose kFlush commit returned OK.
  uint64_t last_ok_flush = 0;
  // Highest 1-based txn index that committed (any mode) with OK status.
  uint64_t last_ok_commit = 0;
  bool crashed = false;
};

// Runs the scripted workload until completion or simulated crash. Used by
// the byte-budget tests; the op-indexed sweeps go through CrashExplorer.
WorkloadOutcome RunWorkload(CrashSimEnv& env, const CheckerWorkload& config) {
  WorkloadOracle oracle(config);
  WorkloadOutcome outcome;
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.runtime.use_incremental_truncation =
      config.use_incremental_truncation;
  options.runtime.truncation_threshold = config.truncation_threshold;
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    outcome.crashed = true;
    return outcome;
  }
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = config.region_len;
  if (!(*rvm)->Map(region).ok()) {
    outcome.crashed = true;
    return outcome;
  }
  auto* slots = static_cast<uint64_t*>(region.address);

  for (uint64_t i = 0; i < config.total_txns; ++i) {
    auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
    if (!tid.ok()) {
      outcome.crashed = true;
      return outcome;
    }
    bool txn_ok = true;
    for (const WorkloadOracle::SlotWrite& write : oracle.Script(i)) {
      if (!(*rvm)->Modify(*tid, &slots[write.slot], &write.value,
                          sizeof(uint64_t)).ok()) {
        txn_ok = false;
        break;
      }
    }
    if (!txn_ok) {
      outcome.crashed = true;
      return outcome;
    }
    bool flush = (i + 1) % config.flush_every == 0;
    Status commit = (*rvm)->EndTransaction(
        *tid, flush ? CommitMode::kFlush : CommitMode::kNoFlush);
    if (!commit.ok()) {
      outcome.crashed = true;
      return outcome;
    }
    outcome.last_ok_commit = i + 1;
    if (flush) {
      outcome.last_ok_flush = i + 1;
    }
  }
  // Clean completion: leave spooled txns unflushed on purpose (they may be
  // lost; atomicity must still hold).
  return outcome;
}

// Recovers after a crash and validates atomicity + permanence.
void ValidateAfterCrash(CrashSimEnv& env, const WorkloadOutcome& outcome,
                        const CheckerWorkload& config, uint64_t budget) {
  WorkloadOracle oracle(config);
  env.Recover();
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.runtime.use_incremental_truncation =
      config.use_incremental_truncation;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << "recovery failed (budget=" << budget
                        << "): " << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = config.region_len;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* slots = static_cast<const uint64_t*>(region.address);

  std::optional<uint64_t> k = oracle.MatchPrefix(slots);
  ASSERT_TRUE(k.has_value())
      << "ATOMICITY violated at budget " << budget
      << ": recovered state matches no transaction prefix (marker="
      << slots[0] << ")";
  EXPECT_GE(*k, outcome.last_ok_flush)
      << "PERMANENCE violated at budget " << budget << ": flush-committed txn "
      << outcome.last_ok_flush << " lost (recovered to " << *k << ")";
  EXPECT_LE(*k, outcome.last_ok_commit == 0 ? config.total_txns
                                            : outcome.last_ok_commit)
      << "recovered MORE transactions than were ever committed";
}

// --------------------------------------------------------------------------
// Op-indexed crash sweep: every durable-prefix boundary of the workload,
// for both truncation policies, via the crash-schedule explorer.
// --------------------------------------------------------------------------

class CrashSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(CrashSweepTest, EveryDurablePrefixRecoversConsistently) {
  CrashExplorer explorer(MakeWorkload(/*use_incremental=*/GetParam()));
  ExploreLimits limits;
  limits.max_depth = 1;  // forward crashes only; depth 2+ in explorer tests
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  // One schedule per op boundary plus fwd=end; a vacuous sweep means the
  // workload persisted almost nothing.
  EXPECT_GE(stats->schedules_run, 40u);
  EXPECT_GT(stats->truncation_window_schedules, 0u)
      << "no crash landed inside a truncation; workload mis-scaled";
}

INSTANTIATE_TEST_SUITE_P(Policies, CrashSweepTest, ::testing::Bool(),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param ? "Incremental"
                                                               : "Epoch");
                         });

TEST(CrashModelSelfTest, MatcherRejectsTornStates) {
  // Meta-test: the oracle matcher must actually discriminate. A state that
  // applies only *part* of transaction k's writes must match no prefix.
  WorkloadOracle oracle(MakeWorkload(true));
  ASSERT_EQ(oracle.slots(), kSlots);
  std::vector<uint64_t> state = oracle.StateAfter(10);
  std::vector<WorkloadOracle::SlotWrite> partial = oracle.Script(10);
  ASSERT_GE(partial.size(), 3u);
  // Apply the marker and one write, but not the rest: a torn transaction.
  state[partial[0].slot] = partial[0].value;
  state[partial[1].slot] = partial[1].value;
  EXPECT_FALSE(oracle.MatchPrefix(state.data()).has_value());
  // Completing the transaction makes it match again.
  for (const WorkloadOracle::SlotWrite& write : partial) {
    state[write.slot] = write.value;
  }
  auto k = oracle.MatchPrefix(state.data());
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(*k, 11u);
}

// --------------------------------------------------------------------------
// Byte-budget sweep: the one crash family op indices cannot express — power
// failing *inside* a single write during Sync, tearing the record mid-byte.
// --------------------------------------------------------------------------

TEST(CrashByteBudgetTest, MidSyncTornWritesRecoverConsistently) {
  CheckerWorkload config = MakeWorkload(true);

  // First, measure the total bytes a full run persists, to scale the sweep.
  uint64_t full_bytes = 0;
  {
    CrashSimEnv env;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
    WorkloadOutcome outcome = RunWorkload(env, config);
    ASSERT_FALSE(outcome.crashed);
    full_bytes = env.bytes_persisted();
  }
  ASSERT_GT(full_bytes, 0u);

  // Sweep ~24 crash points spread over the run, jittered so the budgets land
  // at odd offsets inside individual writes (torn records).
  Xoshiro256 rng(7);
  int crashes_exercised = 0;
  for (int point = 0; point < 24; ++point) {
    uint64_t budget = full_bytes * (point + 1) / 25 + rng.Below(97);
    CrashSimEnv env;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
    uint64_t setup_bytes = env.bytes_persisted();
    env.SetPersistBudget(budget > setup_bytes ? budget - setup_bytes : 0);

    WorkloadOutcome outcome = RunWorkload(env, config);
    if (!outcome.crashed) {
      continue;  // budget outlasted the workload
    }
    if (!env.crashed()) {
      env.Crash();  // process died with budget remaining: drop volatile state
    }
    ++crashes_exercised;
    ValidateAfterCrash(env, outcome, config, budget);
  }
  EXPECT_GE(crashes_exercised, 16)
      << "sweep barely crashed anything; budgets mis-scaled, test is vacuous";
}

TEST(CrashRecoveryTest, CrashWithBudgetLeftLosesOnlyUnflushed) {
  // A plain process kill (no fault armed): everything fsynced must survive,
  // spooled no-flush txns may vanish, atomicity holds.
  CheckerWorkload config = MakeWorkload(true);
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
  WorkloadOutcome outcome = RunWorkload(env, config);
  ASSERT_FALSE(outcome.crashed);
  env.Crash();
  ValidateAfterCrash(env, outcome, config, UINT64_MAX);
}

TEST(CrashRecoveryTest, RecoveryItselfIsIdempotentUnderCrashes) {
  // Crash the recovery pass at every op boundary (0, 1, 2, ...) until it
  // finally completes; the final state must satisfy the same properties.
  // This is the op-indexed rendering of §5.1.2's claim that a crash during
  // recovery is handled by simply repeating recovery.
  CheckerWorkload config = MakeWorkload(true);
  config.total_txns = 30;
  config.flush_every = 3;

  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
  WorkloadOutcome outcome = RunWorkload(env, config);
  ASSERT_FALSE(outcome.crashed);
  env.Crash();

  int crashes_during_recovery = 0;
  for (uint64_t rec_op = 0;; ++rec_op) {
    env.Recover();
    env.SetCrashAtOp(rec_op);
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    auto rvm = RvmInstance::Initialize(options);
    if (rvm.ok()) {
      // Recovery persisted fewer than rec_op ops: the sweep is exhausted.
      env.SetCrashAtOp(UINT64_MAX);
      break;
    }
    ASSERT_TRUE(env.crashed())
        << "recovery failed without a crash at rec op " << rec_op << ": "
        << rvm.status().ToString();
    ++crashes_during_recovery;
    ASSERT_LT(crashes_during_recovery, 10000) << "recovery never completed";
  }
  EXPECT_GT(crashes_during_recovery, 0)
      << "recovery persisted nothing; op sweep is vacuous";
  env.Crash();
  ValidateAfterCrash(env, outcome, config, 0);
}

TEST(CrashRecoveryTest, TornFinalRecordIsDiscarded) {
  // Force a crash budget that lands inside the final flush's log write: the
  // torn record must be dropped, the previous state preserved.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  {
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok());
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = kRegionLen;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* slots = static_cast<uint64_t*>(region.address);

    Transaction first(**rvm);
    uint64_t value = 11;
    ASSERT_TRUE((*rvm)->Modify(first.id(), &slots[1], &value, 8).ok());
    ASSERT_TRUE(first.Commit(CommitMode::kFlush).ok());

    // Allow only 100 more durable bytes: the next commit's record (~2 KB)
    // tears.
    env.SetPersistBudget(100);
    Transaction second(**rvm);
    std::vector<uint64_t> big(256, 22);
    ASSERT_TRUE((*rvm)->SetRange(second.id(), &slots[2], big.size() * 8).ok());
    std::memcpy(&slots[2], big.data(), big.size() * 8);
    EXPECT_FALSE(second.Commit(CommitMode::kFlush).ok());
  }
  if (!env.crashed()) {
    env.Crash();
  }
  env.Recover();

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* slots = static_cast<const uint64_t*>(region.address);
  EXPECT_EQ(slots[1], 11u) << "first (durable) transaction lost";
  EXPECT_EQ(slots[2], 0u) << "torn second transaction partially applied";
}

// ---------------------------------------------------------------------------
// Torn tail vs mid-log corruption (fail-stop on damaged committed data)
// ---------------------------------------------------------------------------

// XORs one byte of `path` in place through the env.
void FlipByte(Env& env, const std::string& path, uint64_t offset) {
  auto file = env.Open(path, OpenMode::kReadWrite);
  ASSERT_TRUE(file.ok());
  uint8_t byte = 0;
  auto n = (*file)->ReadAt(offset, std::span<uint8_t>(&byte, 1));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  byte ^= 0xFF;
  ASSERT_TRUE((*file)->WriteAt(offset, std::span<const uint8_t>(&byte, 1)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

// Commits `txns` flush transactions (slot i+1 := 100+i) and terminates
// cleanly, leaving the records live in the log for the next Initialize.
void WriteCommittedLog(CrashSimEnv& env, uint64_t txns) {
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* slots = static_cast<uint64_t*>(region.address);
  for (uint64_t i = 0; i < txns; ++i) {
    Transaction txn(**rvm);
    uint64_t value = 100 + i;
    ASSERT_TRUE((*rvm)->Modify(txn.id(), &slots[i + 1], &value, 8).ok());
    ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
  }
}

// Offsets of the live transaction records, oldest first.
std::vector<uint64_t> LiveTransactionOffsets(CrashSimEnv& env) {
  std::vector<uint64_t> result;
  auto log = LogDevice::Open(&env, "/log");
  EXPECT_TRUE(log.ok());
  if (!log.ok()) return result;
  auto offsets = (*log)->CollectRecordOffsets();  // newest first
  EXPECT_TRUE(offsets.ok());
  if (!offsets.ok()) return result;
  for (auto it = offsets->rbegin(); it != offsets->rend(); ++it) {
    auto record = (*log)->ReadRecordAt(*it);
    EXPECT_TRUE(record.ok());
    if (record.ok() && record->parsed.header.type == RecordType::kTransaction) {
      result.push_back(*it);
    }
  }
  return result;
}

TEST(LogCorruptionTest, FlippedByteInCommittedRecordFailsRecovery) {
  // One flipped byte inside a committed, pre-tail record: recovery must
  // refuse to run (kCorruption), never silently truncate committed data.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  WriteCommittedLog(env, 5);
  std::vector<uint64_t> records = LiveTransactionOffsets(env);
  ASSERT_EQ(records.size(), 5u);
  // Flip a payload byte of the middle record; its CRC no longer matches.
  FlipByte(env, "/log", records[2] + kRecordHeaderSize + 4);

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_FALSE(rvm.ok()) << "recovery accepted a corrupted committed record";
  EXPECT_EQ(rvm.status().code(), ErrorCode::kCorruption)
      << rvm.status().ToString();
}

TEST(LogCorruptionTest, GarbagePastTheTailRecoversCleanly) {
  // Control: the same byte-flipping applied beyond the tail is indistin-
  // guishable from a torn final append and must not block recovery.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  WriteCommittedLog(env, 5);
  uint64_t tail;
  {
    auto log = LogDevice::Open(&env, "/log");
    ASSERT_TRUE(log.ok());
    tail = (*log)->status().tail;
  }
  for (uint64_t i = 0; i < 64; ++i) {
    FlipByte(env, "/log", tail + i * 7);
  }

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* slots = static_cast<const uint64_t*>(region.address);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(slots[i + 1], 100 + i) << "committed txn " << i << " lost";
  }
}

TEST(LogCorruptionTest, TailScanDistinguishesTornTailFromCorruption) {
  // Records forced after the last status write are discovered by forward
  // scanning. An unreadable record there is a torn tail (truncate) only if
  // no valid successor exists; a durable successor proves it was committed.
  CrashSimEnv env;
  ASSERT_TRUE(LogDevice::Create(&env, "/log", kLogSize, false).ok());
  std::vector<uint8_t> payload(64, 0xAB);
  RangeView range;
  range.segment = 1;
  range.offset = 0;
  range.data = payload;

  for (bool corrupt_last : {false, true}) {
    uint64_t first, second;
    {
      auto log = LogDevice::Open(&env, "/log");
      ASSERT_TRUE(log.ok());
      (*log)->MarkEmpty();
      ASSERT_TRUE((*log)->WriteStatus().ok());  // durable tail: before both
      auto a = (*log)->AppendTransaction(1, std::span<const RangeView>(&range, 1));
      auto b = (*log)->AppendTransaction(2, std::span<const RangeView>(&range, 1));
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_TRUE((*log)->Sync().ok());  // forced, but status not rewritten
      first = *a;
      second = *b;
    }
    FlipByte(env, "/log", (corrupt_last ? second : first) + kRecordHeaderSize + 4);

    auto log = LogDevice::Open(&env, "/log");
    ASSERT_TRUE(log.ok());
    auto discovered = (*log)->ExtendTailForward();
    if (corrupt_last) {
      // No valid record past the damage: a torn final append, dropped.
      ASSERT_TRUE(discovered.ok()) << discovered.status().ToString();
      EXPECT_EQ(*discovered, 1u);
    } else {
      // Record 2 is durable past the damage, so record 1 was durable too:
      // committed data is unreadable. Fail stop.
      ASSERT_FALSE(discovered.ok());
      EXPECT_EQ(discovered.status().code(), ErrorCode::kCorruption)
          << discovered.status().ToString();
    }
  }
}

TEST(LogCorruptionTest, CrashAroundARecordBoundRaiseKeepsTheBound) {
  // A record past max_record_bytes raises the bound with a synced status
  // write before the record is written. Crash at every op boundary of that
  // sequence: whatever survives, the durable bound covers every durable
  // record, and recovery's forward scan runs clean.
  constexpr uint64_t kBigLog = kLogDataStart + 1024 * 1024;
  std::vector<uint8_t> small(200, 0x11);
  std::vector<uint8_t> large(kInitialMaxRecordBytes + 1000, 0x22);
  RangeView small_range{.segment = 1, .offset = 0, .data = small};
  RangeView large_range{.segment = 1, .offset = 0, .data = large};
  for (uint64_t crash_op = 0; crash_op < 4; ++crash_op) {
    SCOPED_TRACE("crash after " + std::to_string(crash_op) + " ops");
    CrashSimEnv env;
    ASSERT_TRUE(LogDevice::Create(&env, "/log", kBigLog, false).ok());
    {
      auto log = LogDevice::Open(&env, "/log");
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE((*log)->AppendTransaction(1, {&small_range, 1}).ok());
      ASSERT_TRUE((*log)->Sync().ok());
      // The pending ops from here, in order: the raise's status slot, the
      // large record, a trailing small record.
      env.SetCrashAtOp(crash_op);
      auto big = (*log)->AppendTransaction(2, {&large_range, 1});
      if (big.ok()) {
        (void)(*log)->AppendTransaction(3, {&small_range, 1});
        (void)(*log)->Sync();
      }
      if (!env.crashed()) {
        env.Crash();
      }
    }
    env.Recover();
    auto log = LogDevice::Open(&env, "/log");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    const uint64_t bound = (*log)->status().max_record_bytes;
    EXPECT_EQ(bound, crash_op == 0 ? kInitialMaxRecordBytes
                                   : 2 * kInitialMaxRecordBytes);
    ASSERT_TRUE((*log)->ExtendTailForward().ok());
    auto offsets = (*log)->CollectRecordOffsets();
    ASSERT_TRUE(offsets.ok());
    EXPECT_GE(offsets->size(), 1u) << "the synced first record was lost";
    for (uint64_t offset : *offsets) {
      auto record = (*log)->ReadRecordAt(offset);
      ASSERT_TRUE(record.ok());
      EXPECT_LE(record->bytes.size(), bound)
          << "a durable record exceeds the durable bound";
    }
  }
}

TEST(RestartCostTest, InitializeReadsTheLiveLogNotItsCapacity) {
  // Restart after a crash reads the live log once (one forward scan builds
  // the image it applies) plus the status slots and one torn-tail probe
  // window, however large the log is: ~2 MB of flush commits in a 64 MB log
  // on the simulated log disk, counted by the disk's read accounting.
  constexpr uint64_t kCapacity = 64ull << 20;
  constexpr uint64_t kData = 4000;
  constexpr uint64_t kTxns = 512;
  constexpr uint64_t kRegion = 1 << 20;
  SimClock clock;
  SimDisk log_disk(&clock, "log");
  SimDisk data_disk(&clock, "data");
  SimEnv sim(&clock);
  sim.Mount("/log", &log_disk);
  sim.Mount("/data", &data_disk);
  ASSERT_TRUE(RvmInstance::CreateLog(&sim, "/log/rvm", kCapacity).ok());
  RegionDescriptor region;
  region.segment_path = "/data/seg";
  region.length = kRegion;
  {
    // Writes go through a fault layer so the power cut below can stop the
    // dying instance's Terminate from writing a status block.
    FaultInjectionEnv env(&sim);
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log/rvm";
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    for (uint64_t i = 0; i < kTxns; ++i) {
      Transaction txn(**rvm);
      uint8_t* at = base + (i * kData) % (kRegion - kData);
      ASSERT_TRUE((*rvm)->SetRange(txn.id(), at, kData).ok());
      std::memset(at, static_cast<int>(i), kData);
      ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
    }
    FaultSpec power_cut;
    power_cut.op = FaultOp::kWriteAt;
    power_cut.sticky = true;
    env.InjectFault(power_cut);
  }
  const uint64_t live = kTxns * (kRecordHeaderSize + kRangeHeaderSize + kData);
  const uint64_t window = kInitialMaxRecordBytes + kRecordHeaderSize;
  // Both status slots, the unreadable header at the tail, and the layout
  // probe and magic lookahead (a few bytes each).
  const uint64_t fixed = 2 * kStatusBlockSize + 2 * kRecordHeaderSize;
  const uint64_t read_before = log_disk.bytes_read();
  RvmOptions options;
  options.env = &sim;
  options.log_path = "/log/rvm";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  const uint64_t read = log_disk.bytes_read() - read_before;
  EXPECT_EQ((*rvm)->statistics().recovery_records_applied.load(), kTxns);
  EXPECT_GE(read, live) << "recovery did not read the live log";
  EXPECT_LE(read, live + window + fixed)
      << "restart read " << read << " bytes for " << live
      << " bytes of live log";
}

TEST(RestartCostTest, InitializeReadsEachShardLogOnce) {
  // The same bound per shard: four shard logs, each on a simulated disk of
  // its own, one region per shard and a cross-shard transaction whose
  // decision only its coordinator's log holds. Recovery learns every
  // shard's 2PC tids from the same single read that builds its image.
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kCapacity = 8ull << 20;
  constexpr uint64_t kData = 4000;
  constexpr uint64_t kTxns = 128;
  constexpr uint64_t kRegion = 256 * 1024;
  SimClock clock;
  SimDisk manifest_disk(&clock, "manifest");
  SimDisk data_disk(&clock, "data");
  std::vector<std::unique_ptr<SimDisk>> log_disks;
  SimEnv sim(&clock);
  sim.Mount("/log", &manifest_disk);
  for (uint32_t k = 0; k < kShards; ++k) {
    log_disks.push_back(
        std::make_unique<SimDisk>(&clock, "log" + std::to_string(k)));
    sim.Mount(ShardLogPath("/log/rvm", k), log_disks.back().get());
  }
  sim.Mount("/data", &data_disk);
  ASSERT_TRUE(
      RvmInstance::CreateLog(&sim, "/log/rvm", kCapacity, false, kShards).ok());
  std::vector<uint64_t> live(kShards);
  {
    FaultInjectionEnv env(&sim);
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log/rvm";
    options.log_shards = kShards;
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    std::vector<uint8_t*> bases;
    for (uint32_t r = 0; r < kShards; ++r) {
      RegionDescriptor region;
      region.segment_path = "/data/seg" + std::to_string(r);
      region.length = kRegion;
      ASSERT_TRUE((*rvm)->Map(region).ok());
      bases.push_back(static_cast<uint8_t*>(region.address));
    }
    for (uint64_t i = 0; i < kTxns; ++i) {
      Transaction txn(**rvm);
      uint8_t* at = bases[i % kShards] + (i * kData) % (kRegion - kData);
      ASSERT_TRUE((*rvm)->SetRange(txn.id(), at, kData).ok());
      std::memset(at, static_cast<int>(i), kData);
      ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
    }
    {
      Transaction txn(**rvm);
      for (uint8_t* base : bases) {
        ASSERT_TRUE((*rvm)->SetRange(txn.id(), base, 64).ok());
        std::memset(base, 0x5C, 64);
      }
      ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
    }
    RvmGauges gauges = (*rvm)->Introspect();
    ASSERT_EQ(gauges.shards.size(), kShards);
    for (uint32_t k = 0; k < kShards; ++k) {
      live[k] = gauges.shards[k].log_bytes_in_use;
      ASSERT_GT(live[k], kTxns / kShards * kData) << "shard " << k;
    }
    FaultSpec power_cut;
    power_cut.op = FaultOp::kWriteAt;
    power_cut.sticky = true;
    env.InjectFault(power_cut);
  }
  const uint64_t window = kInitialMaxRecordBytes + kRecordHeaderSize;
  const uint64_t fixed = 2 * kStatusBlockSize + 2 * kRecordHeaderSize;
  std::vector<uint64_t> read_before;
  for (const auto& disk : log_disks) {
    read_before.push_back(disk->bytes_read());
  }
  RvmOptions options;
  options.env = &sim;
  options.log_path = "/log/rvm";
  options.log_shards = kShards;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  // Every flush commit, the four prepares, the decision and three commit
  // markers (appended unforced at commit, or by recovery if lost).
  EXPECT_EQ((*rvm)->statistics().recovery_records_applied.load(),
            kTxns + kShards + 1 + (kShards - 1));
  for (uint32_t k = 0; k < kShards; ++k) {
    const uint64_t read = log_disks[k]->bytes_read() - read_before[k];
    EXPECT_GE(read, live[k]) << "shard " << k << " was not read";
    EXPECT_LE(read, live[k] + window + fixed)
        << "shard " << k << " read " << read << " bytes for " << live[k]
        << " bytes of live log";
  }
  RegionDescriptor region;
  region.segment_path = "/data/seg2";
  region.length = kRegion;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  EXPECT_EQ(static_cast<const uint8_t*>(region.address)[0], 0x5C)
      << "the cross-shard transaction did not survive the restart";
}

TEST(RestartCostTest, RestartReadsEachSegmentByteOnce) {
  // Recovery leaves the checksums of the pages it applies for Map to take
  // from the bytes it copies in (DESIGN.md §14), so after a crash
  // Initialize reads nothing from the data segment and Initialize + Map
  // read each region byte once. The sidecar sits on a disk of its own, so
  // only segment reads are counted.
  constexpr uint64_t kRegion = 64 * kPage;
  constexpr uint64_t kData = 1000;
  constexpr uint64_t kTxns = 96;
  SimClock clock;
  SimDisk log_disk(&clock, "log");
  SimDisk data_disk(&clock, "data");
  SimDisk sidecar_disk(&clock, "sidecar");
  SimEnv sim(&clock);
  sim.Mount("/log", &log_disk);
  sim.Mount("/data", &data_disk);
  sim.Mount("/data/seg.chk", &sidecar_disk);
  ASSERT_TRUE(RvmInstance::CreateLog(&sim, "/log/rvm", 4ull << 20).ok());
  RegionDescriptor region;
  region.segment_path = "/data/seg";
  region.length = kRegion;
  {
    FaultInjectionEnv env(&sim);
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log/rvm";
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    for (uint64_t i = 0; i < kTxns; ++i) {
      if (i == kTxns / 2) {
        // Halfway, a truncation: the sidecar then holds checksums that the
        // later records make stale.
        ASSERT_TRUE((*rvm)->Truncate().ok());
      }
      Transaction txn(**rvm);
      uint8_t* at = base + (i * 7919) % (kRegion - kData);
      ASSERT_TRUE((*rvm)->SetRange(txn.id(), at, kData).ok());
      std::memset(at, static_cast<int>(i + 1), kData);
      ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
    }
    FaultSpec power_cut;
    power_cut.op = FaultOp::kWriteAt;
    power_cut.sticky = true;
    env.InjectFault(power_cut);
  }
  ASSERT_TRUE(sim.Exists("/data/seg.chk"));
  const uint64_t read_before = data_disk.bytes_read();
  RvmOptions options;
  options.env = &sim;
  options.log_path = "/log/rvm";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  EXPECT_EQ((*rvm)->statistics().recovery_records_applied.load(), kTxns / 2);
  EXPECT_EQ(data_disk.bytes_read() - read_before, 0u)
      << "recovery read the data segment back";
  region.address = nullptr;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  EXPECT_EQ(data_disk.bytes_read() - read_before, kRegion)
      << "Initialize + Map read the region more than once";
  const auto* base = static_cast<const uint8_t*>(region.address);
  EXPECT_EQ(base[((kTxns - 1) * 7919) % (kRegion - kData)], kTxns);
  auto report = (*rvm)->ScrubShard(0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 0u);
}

TEST(ChecksumCrashTest, CrashBetweenRecoveryAndMapLeavesAppliedPagesUnknown) {
  // The window deferred checksums open (DESIGN.md §14): recovery has
  // forgotten the checksums of the pages it applied and emptied the log,
  // and the power fails before Map records them. Those pages stay unknown,
  // never stale, so the next scrub adopts them and finds nothing wrong.
  constexpr uint64_t kBigLog = kLogDataStart + 256 * 1024;
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kBigLog).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto commit = [](RvmInstance& rvm, uint8_t* at, uint64_t length,
                   uint8_t value) {
    Transaction txn(rvm);
    ASSERT_TRUE(rvm.SetRange(txn.id(), at, length).ok());
    std::memset(at, value, length);
    ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
  };
  {
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = kRegionLen;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    commit(**rvm, base, kRegionLen, 0x11);
    ASSERT_TRUE((*rvm)->Truncate().ok());  // every page checksummed
    commit(**rvm, base + kPage + 100, kPage, 0x22);  // pages 1 and 2, live
    ASSERT_TRUE((*rvm)->Terminate().ok());
  }
  {
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    ASSERT_EQ((*rvm)->statistics().recovery_records_applied.load(), 1u);
    env.Crash();  // before any Map; the dying Terminate fails
  }
  env.Recover();
  SegmentChecksumMap chk = SegmentChecksumMap::Load(&env, "/seg", kPage);
  EXPECT_TRUE(chk.known(0));
  EXPECT_FALSE(chk.known(1));
  EXPECT_FALSE(chk.known(2));
  EXPECT_TRUE(chk.known(3));
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  EXPECT_EQ((*rvm)->statistics().recovery_records_applied.load(), 0u)
      << "the crash came after recovery emptied the log";
  auto report = (*rvm)->ScrubShard(0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages_scrubbed, kRegionLen / kPage);
  EXPECT_EQ(report->mismatches, 0u);
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* base = static_cast<const uint8_t*>(region.address);
  EXPECT_EQ(base[kPage + 100], 0x22);
  EXPECT_EQ(base[kPage + 99], 0x11);
}

TEST(CrashRecoveryTest, RandomWritebackAtCrashStillAtomic) {
  // flush_on_crash persists a random subset prefix of pending writes at the
  // moment of failure (page cache racing power loss).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CrashSimEnv::Options env_options;
    env_options.flush_on_crash = true;
    env_options.torn_writes = true;
    env_options.seed = seed;
    CrashSimEnv env(env_options);
    CheckerWorkload config = MakeWorkload(true);
    config.total_txns = 20;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
    WorkloadOutcome outcome = RunWorkload(env, config);
    ASSERT_FALSE(outcome.crashed);
    env.Crash();  // triggers randomized writeback
    ValidateAfterCrash(env, outcome, config, seed);
  }
}

}  // namespace
}  // namespace rvm
