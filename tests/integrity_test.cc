// Data-segment integrity (DESIGN.md §14): per-page checksum sidecars,
// online scrubbing, log-based repair, and quarantine escalation.
//
// The acceptance matrix from the paper's scoped-out media-failure gap
// ("RVM does not provide media recovery", §3.1): injected single-page
// corruption in a data segment must be (a) detected by scrub and by eager
// verify-on-map, (b) repaired from live log records when the page's newest
// committed image is still in the pre-truncation window, and (c) escalated
// to shard quarantine — fail-fast writes, readable healthy regions —
// otherwise. Detection scope is at-rest decay and misdirected writes, plus
// corrupting faults on whole-page incremental writeback, whose checksum is
// taken from the page image handed to the write. Partial-page log apply
// takes its baseline from the bytes after the write: epoch truncation and
// shard repair read the pages back, and recovery leaves them for Map to
// checksum from its copy-in. A corrupting fault on one of those writes is
// therefore adopted as baseline (write-verify is out of scope there, like
// disk-internal ECC vs ZFS scrub). The sidecar's own crash-safety contract
// — a torn or corrupted checksum update must never make a good page look
// bad — is swept here with the FaultInjectionEnv corruption fault classes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/util/crc32.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kRegionLen = 4 * kPage;
constexpr uint64_t kLogSize = kLogDataStart + 64 * 1024;

std::unique_ptr<RvmInstance> OpenInstance(
    Env& env, uint32_t shards = 1,
    RvmOptions::VerifyOnMap verify = RvmOptions::VerifyOnMap::kLazy,
    double truncation_threshold = 0.95) {
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = shards;
  options.verify_on_map = verify;
  options.runtime.truncation_threshold = truncation_threshold;
  auto rvm = RvmInstance::Initialize(options);
  EXPECT_TRUE(rvm.ok()) << rvm.status().ToString();
  return rvm.ok() ? std::move(*rvm) : nullptr;
}

uint8_t* MapRegion(RvmInstance& rvm, const std::string& path,
                   uint64_t length = kRegionLen) {
  RegionDescriptor region;
  region.segment_path = path;
  region.length = length;
  Status mapped = rvm.Map(region);
  EXPECT_TRUE(mapped.ok()) << mapped.ToString();
  return mapped.ok() ? static_cast<uint8_t*>(region.address) : nullptr;
}

// Deterministic full-region image: every page gets a distinct byte pattern
// (so a misdirected page copy is always a visible change).
uint8_t PatternByte(uint64_t offset, uint64_t salt) {
  return static_cast<uint8_t>((offset / kPage) * 131 + offset * 7 + salt + 1);
}

void CommitPattern(RvmInstance& rvm, uint8_t* base, uint64_t offset,
                   uint64_t length, uint64_t salt) {
  Transaction txn(rvm, RestoreMode::kRestore);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  ASSERT_TRUE(txn.SetRange(base + offset, length).ok());
  for (uint64_t i = 0; i < length; ++i) {
    base[offset + i] = PatternByte(offset + i, salt);
  }
  Status committed = txn.Commit(CommitMode::kFlush);
  ASSERT_TRUE(committed.ok()) << committed.ToString();
}

void CorruptFileByte(Env& env, const std::string& path, uint64_t offset) {
  auto file = env.Open(path, OpenMode::kCreateIfMissing);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  uint8_t byte = 0;
  auto read = (*file)->ReadAt(offset, std::span<uint8_t>(&byte, 1));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  byte ^= 0xFF;
  ASSERT_TRUE((*file)->WriteAt(offset, std::span<const uint8_t>(&byte, 1)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

uint8_t ReadFileByte(Env& env, const std::string& path, uint64_t offset) {
  auto file = env.Open(path, OpenMode::kReadOnly);
  EXPECT_TRUE(file.ok());
  uint8_t byte = 0;
  auto read = (*file)->ReadAt(offset, std::span<uint8_t>(&byte, 1));
  EXPECT_TRUE(read.ok());
  return byte;
}

// (a) Detection: at-rest corruption of a truncated-away page is caught by
// the online scrubber; with no live log coverage it cannot be repaired, so
// the single-shard instance poisons (shard 0 escalation, DESIGN.md §13).
TEST(IntegrityTest, ScrubDetectsAtRestCorruptionAndEscalates) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  {
    auto rvm = OpenInstance(env);
    ASSERT_NE(rvm, nullptr);
    uint8_t* base = MapRegion(*rvm, "/seg");
    ASSERT_NE(base, nullptr);
    CommitPattern(*rvm, base, 0, kRegionLen, /*salt=*/0);
    ASSERT_TRUE(rvm->Truncate().ok());  // apply + record checksums, empty log
  }
  CorruptFileByte(env, "/seg", 2 * kPage + 17);

  auto rvm = OpenInstance(env);
  ASSERT_NE(rvm, nullptr);
  uint8_t* base = MapRegion(*rvm, "/seg");  // lazy: corruption not yet seen
  ASSERT_NE(base, nullptr);
  auto report = rvm->ScrubShard(0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->pages_scrubbed, 0u);
  EXPECT_EQ(report->mismatches, 1u);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_EQ(report->quarantined, 1u);
  EXPECT_TRUE(rvm->poisoned());
  EXPECT_NE(rvm->poison_status().ToString().find("checksum"),
            std::string::npos);
  // Fail fast for writes, graceful degradation for reads.
  EXPECT_FALSE(rvm->BeginTransaction(RestoreMode::kRestore).ok());
  volatile uint8_t sink = base[0];
  (void)sink;
  // The damage is on the operator's dashboard.
  const RvmStatistics stats = rvm->statistics().Snapshot();
  EXPECT_EQ(stats.checksum_mismatches, 1u);
  EXPECT_EQ(stats.pages_quarantined, 1u);
  EXPECT_GT(stats.pages_scrubbed, 0u);
}

// (a) Detection at map time: with VerifyOnMap::kEager the corruption is
// caught before the application ever sees the bytes.
TEST(IntegrityTest, EagerVerifyOnMapRejectsCorruptedRegion) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  {
    auto rvm = OpenInstance(env);
    ASSERT_NE(rvm, nullptr);
    uint8_t* base = MapRegion(*rvm, "/seg");
    ASSERT_NE(base, nullptr);
    CommitPattern(*rvm, base, 0, kRegionLen, /*salt=*/0);
    ASSERT_TRUE(rvm->Truncate().ok());
  }
  {
    // Positive leg: an intact segment maps clean under eager verification.
    auto rvm = OpenInstance(env, 1, RvmOptions::VerifyOnMap::kEager);
    ASSERT_NE(rvm, nullptr);
    uint8_t* base = MapRegion(*rvm, "/seg");
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base[kPage + 9], PatternByte(kPage + 9, 0));
    EXPECT_FALSE(rvm->poisoned());
  }
  CorruptFileByte(env, "/seg", kPage + 9);
  auto rvm = OpenInstance(env, 1, RvmOptions::VerifyOnMap::kEager);
  ASSERT_NE(rvm, nullptr);
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  Status mapped = rvm->Map(region);
  ASSERT_FALSE(mapped.ok()) << "eager map served a corrupted page";
  EXPECT_NE(mapped.ToString().find("checksum"), std::string::npos);
  EXPECT_TRUE(rvm->poisoned());
}

// (b) Repair: when the corrupted page's newest committed image is still in
// the pre-truncation window, scrub re-derives it from live log records and
// writes it back — no quarantine, the instance keeps serving.
TEST(IntegrityTest, ScrubRepairsPageFromLiveLogRecords) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  auto rvm = OpenInstance(env);
  ASSERT_NE(rvm, nullptr);
  uint8_t* base = MapRegion(*rvm, "/seg");
  ASSERT_NE(base, nullptr);
  CommitPattern(*rvm, base, 0, kRegionLen, /*salt=*/0);
  ASSERT_TRUE(rvm->Truncate().ok());
  // Newer committed image for page 1, still log-resident (not truncated).
  CommitPattern(*rvm, base, kPage, kPage, /*salt=*/42);
  // The segment file still holds the pre-truncation image of page 1; rot it.
  CorruptFileByte(env, "/seg", kPage + 5);

  auto report = rvm->ScrubRegion(base);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 1u);
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_EQ(report->quarantined, 0u);
  EXPECT_FALSE(rvm->poisoned());
  EXPECT_EQ(rvm->statistics().Snapshot().pages_repaired, 1u);
  // The file now holds the newest committed image of page 1.
  EXPECT_EQ(ReadFileByte(env, "/seg", kPage + 5), PatternByte(kPage + 5, 42));
  // A second pass is clean: the sidecar was updated to the repaired image.
  auto again = rvm->ScrubShard(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->mismatches, 0u);
  // Still serving; the repair survives a restart (recovery re-applies the
  // same records idempotently).
  CommitPattern(*rvm, base, 3 * kPage, kPage, /*salt=*/7);
  rvm.reset();
  rvm = OpenInstance(env);
  ASSERT_NE(rvm, nullptr);
  base = MapRegion(*rvm, "/seg");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base[kPage + 5], PatternByte(kPage + 5, 42));
  auto final_pass = rvm->ScrubShard(0);
  ASSERT_TRUE(final_pass.ok());
  EXPECT_EQ(final_pass->mismatches, 0u);
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

// Region -> shard striping is segment_id % shards with an
// implementation-defined id base; discover which region stripes onto
// `shard` through the shard gauges rather than hard-coding it.
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

// (c) Escalation: on a multi-shard instance, unrepairable segment
// corruption quarantines only the owning shard — its regions fail fast but
// stay readable, healthy shards keep committing — and RepairShard()'s
// segment-verification leg refuses to clear the quarantine until the
// segment actually verifies again.
TEST(IntegrityTest, SecondaryShardCorruptionQuarantinesAndRepairs) {
  constexpr uint32_t kShards = 4;
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize,
                                     /*overwrite=*/false, kShards)
                  .ok());
  auto rvm = OpenInstance(env, kShards);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases;
  for (uint32_t i = 0; i < kShards; ++i) {
    bases.push_back(MapRegion(*rvm, "/seg" + std::to_string(i), kPage));
    ASSERT_NE(bases.back(), nullptr);
  }
  const uint32_t target = 2;
  const size_t victim = RegionOnShard(*rvm, bases, target);
  const size_t healthy = (victim + 1) % bases.size();
  ASSERT_TRUE(rvm->Truncate().ok());  // checksums recorded, logs emptied

  const std::string victim_path = "/seg" + std::to_string(victim);
  const uint8_t pristine = ReadFileByte(env, victim_path, 0);
  CorruptFileByte(env, victim_path, 0);

  auto report = rvm->ScrubShard(target);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 1u);
  EXPECT_EQ(report->quarantined, 1u);
  EXPECT_FALSE(rvm->poisoned()) << "secondary-shard damage killed the instance";
  EXPECT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kQuarantined);
  EXPECT_NE(rvm->shard_status(target).ToString().find("checksum"),
            std::string::npos);

  // Fail-fast writes on the quarantined shard, readable mapped memory.
  Status failed = CommitByteTo(*rvm, bases[victim], 0x11);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("checksum"), std::string::npos);
  volatile uint8_t sink = bases[victim][0];
  (void)sink;
  // Healthy shards keep committing.
  ASSERT_TRUE(CommitByteTo(*rvm, bases[healthy], 0x22).ok());

  // Repair refuses while the segment still fails verification...
  Status premature = rvm->RepairShard(target);
  EXPECT_FALSE(premature.ok()) << "repair cleared quarantine over a segment "
                                  "that still fails its checksums";
  EXPECT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kQuarantined);

  // ...and succeeds once the media heals (operator restores the byte).
  {
    auto file = env.Open(victim_path, OpenMode::kCreateIfMissing);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        (*file)->WriteAt(0, std::span<const uint8_t>(&pristine, 1)).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  Status repaired = rvm->RepairShard(target);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kOk);
  ASSERT_TRUE(CommitByteTo(*rvm, bases[victim], 0x33).ok());

  // Degraded-mode and post-repair commits all survive a restart.
  rvm.reset();
  rvm = OpenInstance(env, kShards);
  ASSERT_NE(rvm, nullptr);
  bases.clear();
  for (uint32_t i = 0; i < kShards; ++i) {
    bases.push_back(MapRegion(*rvm, "/seg" + std::to_string(i), kPage));
    ASSERT_NE(bases.back(), nullptr);
  }
  EXPECT_EQ(bases[victim][0], 0x33);
  EXPECT_EQ(bases[healthy][0], 0x22);
}

// The on-disk sidecar of `path` records every page of the segment file with
// the CRC of its current, zero-padded bytes.
void ExpectSidecarDescribesFile(Env& env, const std::string& path) {
  SegmentChecksumMap chk = SegmentChecksumMap::Load(&env, path, kPage);
  auto file = env.Open(path, OpenMode::kReadOnly);
  ASSERT_TRUE(file.ok());
  const uint64_t size = (*file)->Size().value();
  ASSERT_GT(size, 0u);
  for (uint64_t page = 0; page * kPage < size; ++page) {
    std::vector<uint8_t> image(kPage, 0);
    ASSERT_TRUE((*file)->ReadAt(page * kPage, image).ok());
    ASSERT_TRUE(chk.known(page)) << path << " page " << page;
    EXPECT_EQ(chk.crc(page), Crc32(image)) << path << " page " << page;
  }
}

// The shard-owned checksum map (DESIGN.md §14) and the sidecar it is saved
// to stay equal to the segment across a scrub repair, a RepairShard and a
// restart.
TEST(IntegrityTest, CachedChecksumMapStaysCoherentAcrossRepairsAndRestart) {
  constexpr uint32_t kShards = 4;
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize,
                                     /*overwrite=*/false, kShards)
                  .ok());
  auto rvm = OpenInstance(env, kShards);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases;
  for (uint32_t i = 0; i < kShards; ++i) {
    bases.push_back(MapRegion(*rvm, "/seg" + std::to_string(i), kPage));
    ASSERT_NE(bases.back(), nullptr);
  }
  const uint32_t target = 2;
  const size_t victim = RegionOnShard(*rvm, bases, target);
  const std::string victim_path = "/seg" + std::to_string(victim);
  ASSERT_TRUE(rvm->Truncate().ok());
  ExpectSidecarDescribesFile(env, victim_path);

  // Scrub repair: the newest image is log-resident, so the rotted page is
  // rewritten from the log and the cached map takes the repaired CRC.
  CommitPattern(*rvm, bases[victim], 0, kPage, /*salt=*/3);
  CorruptFileByte(env, victim_path, 5);
  auto report = rvm->ScrubShard(target);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 1u);
  EXPECT_EQ(report->repaired, 1u);
  ExpectSidecarDescribesFile(env, victim_path);
  auto clean = rvm->ScrubShard(target);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->mismatches, 0u);

  // RepairShard: rot a truncated-away page, quarantine, heal, repair; the
  // repaired shard's map is reloaded and keeps tracking later truncations.
  ASSERT_TRUE(rvm->Truncate().ok());
  ExpectSidecarDescribesFile(env, victim_path);
  CorruptFileByte(env, victim_path, 9);
  report = rvm->ScrubShard(target);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->quarantined, 1u);
  CorruptFileByte(env, victim_path, 9);  // the flip undone: media healed
  Status repaired = rvm->RepairShard(target);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  CommitPattern(*rvm, bases[victim], 0, kPage, /*salt=*/9);
  ASSERT_TRUE(rvm->Truncate().ok());
  ExpectSidecarDescribesFile(env, victim_path);
  clean = rvm->ScrubShard(target);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->mismatches, 0u);

  // Restart: the sidecars the cached maps were saved to verify every page
  // at map time.
  rvm.reset();
  rvm = OpenInstance(env, kShards, RvmOptions::VerifyOnMap::kEager);
  ASSERT_NE(rvm, nullptr);
  for (uint32_t i = 0; i < kShards; ++i) {
    bases[i] = MapRegion(*rvm, "/seg" + std::to_string(i), kPage);
    ASSERT_NE(bases[i], nullptr);
  }
  ExpectSidecarDescribesFile(env, victim_path);
  EXPECT_EQ(rvm->statistics().Snapshot().checksum_mismatches, 0u);
  EXPECT_EQ(bases[victim][kPage - 1], PatternByte(kPage - 1, 9));
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    auto pass = rvm->ScrubShard(shard);
    ASSERT_TRUE(pass.ok());
    EXPECT_EQ(pass->mismatches, 0u) << "shard " << shard;
  }
}

// Commits a full-region baseline, truncates it (every page checksummed),
// then leaves a newer image of pages 1 and 2 in the live log and shuts down
// cleanly: the next Initialize recovers those two pages.
void LeavePagesOneAndTwoInTheLog(Env& env) {
  auto rvm = OpenInstance(env);
  ASSERT_NE(rvm, nullptr);
  uint8_t* base = MapRegion(*rvm, "/seg");
  ASSERT_NE(base, nullptr);
  CommitPattern(*rvm, base, 0, kRegionLen, /*salt=*/0);
  ASSERT_TRUE(rvm->Truncate().ok());
  CommitPattern(*rvm, base, kPage + 100, kPage, /*salt=*/5);
}

// Recovery forgets the checksums of the pages it applies, and Map records
// them from the bytes it copies in (DESIGN.md §14): in between they are
// unknown, never stale, and after Map the sidecar describes the file.
TEST(IntegrityTest, RecoveredPagesTakeTheirChecksumsFromMap) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  LeavePagesOneAndTwoInTheLog(env);
  auto rvm = OpenInstance(env);
  ASSERT_NE(rvm, nullptr);
  EXPECT_EQ(rvm->statistics().recovery_records_applied.load(), 1u);
  {
    SegmentChecksumMap chk = SegmentChecksumMap::Load(&env, "/seg", kPage);
    EXPECT_TRUE(chk.known(0));
    EXPECT_FALSE(chk.known(1)) << "recovery left a checksum it made stale";
    EXPECT_FALSE(chk.known(2)) << "recovery left a checksum it made stale";
    EXPECT_TRUE(chk.known(3));
  }
  uint8_t* base = MapRegion(*rvm, "/seg");
  ASSERT_NE(base, nullptr);
  ExpectSidecarDescribesFile(env, "/seg");
  EXPECT_EQ(base[kPage + 100], PatternByte(kPage + 100, 5));
  auto report = rvm->ScrubShard(0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages_scrubbed, kRegionLen / kPage);
  EXPECT_EQ(report->mismatches, 0u);
}

// Eager verify-on-map still checks every page recovery did not apply: those
// keep their checksums through recovery, so corruption of one is caught at
// Map.
TEST(IntegrityTest, EagerMapAfterRecoveryCatchesCorruptionOfUnappliedPage) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  LeavePagesOneAndTwoInTheLog(env);
  CorruptFileByte(env, "/seg", 3 * kPage + 11);
  auto rvm = OpenInstance(env, 1, RvmOptions::VerifyOnMap::kEager);
  ASSERT_NE(rvm, nullptr);
  EXPECT_EQ(rvm->statistics().recovery_records_applied.load(), 1u);
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  Status mapped = rvm->Map(region);
  ASSERT_FALSE(mapped.ok()) << "eager map served a corrupted page";
  EXPECT_NE(mapped.ToString().find("page 3"), std::string::npos)
      << mapped.ToString();
  EXPECT_TRUE(rvm->poisoned());
}

// A recovered segment that is never mapped gets its applied pages
// checksummed at Terminate, so a clean shutdown leaves the sidecar as
// complete as reading them back at recovery did.
TEST(IntegrityTest, RecoveredSegmentNeverMappedIsChecksummedAtTerminate) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  LeavePagesOneAndTwoInTheLog(env);
  {
    auto rvm = OpenInstance(env);
    ASSERT_NE(rvm, nullptr);
    EXPECT_EQ(rvm->statistics().recovery_records_applied.load(), 1u);
    ASSERT_TRUE(rvm->Terminate().ok());
  }
  ExpectSidecarDescribesFile(env, "/seg");
}

// RepairShard applies the healed log with the shard's regions mapped, so it
// reads the applied pages back and records them before the head moves.
TEST(IntegrityTest, RepairShardChecksumsThePagesItApplies) {
  constexpr uint32_t kShards = 4;
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize,
                                     /*overwrite=*/false, kShards)
                  .ok());
  auto rvm = OpenInstance(env, kShards);
  ASSERT_NE(rvm, nullptr);
  std::vector<uint8_t*> bases;
  for (uint32_t i = 0; i < kShards; ++i) {
    bases.push_back(MapRegion(*rvm, "/seg" + std::to_string(i), kPage));
    ASSERT_NE(bases.back(), nullptr);
  }
  const uint32_t target = 2;
  const size_t victim = RegionOnShard(*rvm, bases, target);
  const std::string victim_path = "/seg" + std::to_string(victim);
  ASSERT_TRUE(rvm->Truncate().ok());
  // A live record covering byte 0 only, then rot byte 9: the log cannot
  // rebuild the whole page, so the scrub quarantines the shard.
  ASSERT_TRUE(CommitByteTo(*rvm, bases[victim], 0x5A).ok());
  CorruptFileByte(env, victim_path, 9);
  auto report = rvm->ScrubShard(target);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->quarantined, 1u);
  CorruptFileByte(env, victim_path, 9);  // the flip undone: media healed
  Status repaired = rvm->RepairShard(target);
  ASSERT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_EQ(rvm->statistics().Snapshot().recovery_records_applied, 1u);
  EXPECT_EQ(ReadFileByte(env, victim_path, 0), 0x5A);
  ExpectSidecarDescribesFile(env, victim_path);
}

// Whole-page incremental writeback is checked at write time: the sidecar
// records the CRC of the page image handed to WriteAt, so a write the
// device silently corrupts is caught by the next scrub instead of being
// adopted as the page's baseline.
TEST(IntegrityTest, CorruptedIncrementalWritebackIsCaughtByScrub) {
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kLogSize).ok());
  FaultInjectionEnv env(&mem);
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.runtime.use_incremental_truncation = true;
  options.runtime.truncation_threshold = 0.5;
  options.runtime.truncation_target = 0.25;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  uint8_t* base = MapRegion(**rvm, "/seg");
  ASSERT_NE(base, nullptr);
  // Map only resizes the segment file, so its first WriteAt is the first
  // page incremental truncation writes back.
  FaultSpec spec;
  spec.op = FaultOp::kWriteAt;
  spec.corrupt = CorruptKind::kBitFlip;
  spec.path_substring = "/seg";
  env.InjectFault(spec);
  for (uint64_t i = 0;
       i < 40 && (*rvm)->statistics().incremental_pages_written == 0; ++i) {
    CommitPattern(**rvm, base, (i % 4) * kPage, 2048, /*salt=*/i);
  }
  ASSERT_GT((*rvm)->statistics().incremental_pages_written, 0u);
  ASSERT_EQ(env.faults_fired(), 1u);

  auto report = (*rvm)->ScrubRegion(base);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 1u)
      << "the corrupted writeback was adopted as the page's baseline";
  EXPECT_EQ(report->repaired + report->quarantined, report->mismatches);
}

// Acceptance sweep: every page x {bit flip, zeroed page, misdirected page
// copy} at rest. Each must be detected — never silently served — and,
// with no live log coverage, escalated.
TEST(IntegrityTest, AtRestCorruptionSweepIsNeverSilent) {
  enum class Kind { kBitFlip, kZeroPage, kMisdirect };
  for (Kind kind : {Kind::kBitFlip, Kind::kZeroPage, Kind::kMisdirect}) {
    for (uint64_t page = 0; page < kRegionLen / kPage; ++page) {
      MemEnv env;
      ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
      {
        auto rvm = OpenInstance(env);
        ASSERT_NE(rvm, nullptr);
        uint8_t* base = MapRegion(*rvm, "/seg");
        ASSERT_NE(base, nullptr);
        CommitPattern(*rvm, base, 0, kRegionLen, /*salt=*/0);
        ASSERT_TRUE(rvm->Truncate().ok());
      }
      {
        auto file = env.Open("/seg", OpenMode::kCreateIfMissing);
        ASSERT_TRUE(file.ok());
        std::vector<uint8_t> buffer(kPage, 0);
        if (kind == Kind::kBitFlip) {
          uint8_t byte = 0;
          ASSERT_TRUE(
              (*file)->ReadAt(page * kPage + 3, std::span<uint8_t>(&byte, 1))
                  .ok());
          byte ^= 0x01;
          ASSERT_TRUE((*file)
                          ->WriteAt(page * kPage + 3,
                                    std::span<const uint8_t>(&byte, 1))
                          .ok());
        } else if (kind == Kind::kZeroPage) {
          ASSERT_TRUE((*file)
                          ->WriteAt(page * kPage, std::span<const uint8_t>(
                                                      buffer.data(), kPage))
                          .ok());
        } else {
          // Misdirected write: a neighbour page's image lands here.
          const uint64_t source = (page + 1) % (kRegionLen / kPage);
          ASSERT_TRUE((*file)
                          ->ReadAt(source * kPage,
                                   std::span<uint8_t>(buffer.data(), kPage))
                          .ok());
          ASSERT_TRUE((*file)
                          ->WriteAt(page * kPage, std::span<const uint8_t>(
                                                      buffer.data(), kPage))
                          .ok());
        }
        ASSERT_TRUE((*file)->Sync().ok());
      }
      auto rvm = OpenInstance(env);
      ASSERT_NE(rvm, nullptr);
      auto report = rvm->ScrubShard(0);
      const std::string context = "kind " + std::to_string(int(kind)) +
                                  " page " + std::to_string(page);
      ASSERT_TRUE(report.ok()) << context;
      EXPECT_GE(report->mismatches, 1u) << context << ": corruption missed";
      EXPECT_EQ(report->repaired, 0u) << context;
      EXPECT_GE(report->quarantined, 1u) << context;
      EXPECT_TRUE(rvm->poisoned()) << context;
    }
  }
}

// The corruption fault classes themselves: a corrupting fault reports
// success to the caller while the durable bytes are wrong.
TEST(CorruptionFaultTest, CorruptKindsMangleBytesSilently) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  const std::vector<uint8_t> data = {10, 20, 30, 40, 50, 60, 70, 80};

  {  // kBitFlip: first byte flips, write reports OK.
    FaultSpec spec;
    spec.op = FaultOp::kWriteAt;
    spec.corrupt = CorruptKind::kBitFlip;
    spec.path_substring = "/flip";
    env.InjectFault(spec);
    auto file = env.Open("/flip", OpenMode::kCreateIfMissing);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->WriteAt(0, std::span<const uint8_t>(data.data(),
                                                          data.size()))
                    .ok())
        << "corrupting fault must not surface as an error";
    std::vector<uint8_t> back(data.size());
    ASSERT_TRUE(
        (*file)->ReadAt(0, std::span<uint8_t>(back.data(), back.size())).ok());
    EXPECT_EQ(back[0], data[0] ^ 0x01);
    EXPECT_EQ(std::memcmp(back.data() + 1, data.data() + 1, data.size() - 1),
              0);
    EXPECT_EQ(env.faults_fired(), 1u);
    env.ClearFaults();
  }
  {  // kZeroPage: the whole write lands as zeros.
    FaultSpec spec;
    spec.op = FaultOp::kWriteAt;
    spec.corrupt = CorruptKind::kZeroPage;
    spec.path_substring = "/zero";
    env.InjectFault(spec);
    auto file = env.Open("/zero", OpenMode::kCreateIfMissing);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->WriteAt(0, std::span<const uint8_t>(data.data(),
                                                          data.size()))
                    .ok());
    std::vector<uint8_t> back(data.size(), 0xEE);
    ASSERT_TRUE(
        (*file)->ReadAt(0, std::span<uint8_t>(back.data(), back.size())).ok());
    EXPECT_EQ(back, std::vector<uint8_t>(data.size(), 0));
    env.ClearFaults();
  }
  {  // kMisdirect: the payload lands misdirect_by bytes away, intact.
    FaultSpec spec;
    spec.op = FaultOp::kWriteAt;
    spec.corrupt = CorruptKind::kMisdirect;
    spec.misdirect_by = 16;
    spec.path_substring = "/misdirect";
    env.InjectFault(spec);
    auto file = env.Open("/misdirect", OpenMode::kCreateIfMissing);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->WriteAt(0, std::span<const uint8_t>(data.data(),
                                                          data.size()))
                    .ok());
    std::vector<uint8_t> back(data.size());
    ASSERT_TRUE(
        (*file)->ReadAt(16, std::span<uint8_t>(back.data(), back.size())).ok());
    EXPECT_EQ(back, data);
    env.ClearFaults();
  }
}

// Sidecar crash-safety contract under in-flight corruption: every rewrite
// of /seg.chk is mangled (sticky bit-flip / zeroing), yet a good page must
// never be flagged bad — an invalid sidecar loads as all-unknown and the
// scrubber re-adopts the (correct) data, reporting zero mismatches.
TEST(CorruptionFaultTest, CorruptedChecksumSidecarNeverFlagsGoodPages) {
  for (CorruptKind kind : {CorruptKind::kBitFlip, CorruptKind::kZeroPage}) {
    MemEnv mem;
    ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kLogSize).ok());
    FaultInjectionEnv env(&mem);
    FaultSpec spec;
    spec.op = FaultOp::kWriteAt;
    spec.sticky = true;
    spec.corrupt = kind;
    spec.path_substring = "/seg.chk";
    env.InjectFault(spec);
    {
      auto rvm = OpenInstance(env, 1, RvmOptions::VerifyOnMap::kLazy,
                              /*truncation_threshold=*/0.3);
      ASSERT_NE(rvm, nullptr);
      uint8_t* base = MapRegion(*rvm, "/seg");
      ASSERT_NE(base, nullptr);
      for (uint64_t i = 0; i < 8; ++i) {
        CommitPattern(*rvm, base, 0, kRegionLen, /*salt=*/i);
      }
      ASSERT_TRUE(rvm->Truncate().ok());
    }
    EXPECT_GT(env.faults_fired(), 0u) << "sidecar corruption never fired";
    env.ClearFaults();

    auto rvm = OpenInstance(env);
    ASSERT_NE(rvm, nullptr);
    uint8_t* base = MapRegion(*rvm, "/seg");
    ASSERT_NE(base, nullptr);
    for (uint64_t i = 0; i < kRegionLen; ++i) {
      ASSERT_EQ(base[i], PatternByte(i, 7)) << "committed data diverged at "
                                            << i;
    }
    auto report = rvm->ScrubShard(0);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->mismatches, 0u)
        << "a corrupted sidecar made a good page look bad";
    EXPECT_FALSE(rvm->poisoned());
    // The adopting scrub rewrote the sidecar; a clean pass now verifies
    // (rather than re-adopts) every page.
    auto again = rvm->ScrubShard(0);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->mismatches, 0u);
  }
}

}  // namespace
}  // namespace rvm
