// Span tracing (DESIGN.md §15): the lock-free span ring, the collector's two
// capture policies (1-in-N sampling and the slow-commit outlier recorder),
// the exact deterministic span trees a commit leaves under the simulated
// environments, the cross-shard 2PC correlation, and the rvm-spans-v1 /
// Chrome trace exports.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/os/crash_sim.h"
#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/sim/sim_clock.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_env.h"
#include "src/telemetry/json.h"
#include "src/telemetry/span.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;

// ---------------------------------------------------------------------------
// SpanRing

Span MakeSpan(uint64_t span_id, uint64_t start_us) {
  Span span;
  span.span_id = span_id;
  span.tid = span_id;
  span.kind = SpanKind::kCommit;
  span.start_us = start_us;
  span.end_us = start_us + 10;
  span.arg = span_id;  // slot-consistency marker for the hammer test
  return span;
}

TEST(SpanRingTest, RecordsAndSnapshotsInStartOrder) {
  SpanRing ring(8);
  ring.Record(MakeSpan(2, 200));
  ring.Record(MakeSpan(1, 100));
  ring.Record(MakeSpan(3, 300));
  std::vector<Span> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].span_id, 1u);
  EXPECT_EQ(spans[1].span_id, 2u);
  EXPECT_EQ(spans[2].span_id, 3u);
  EXPECT_EQ(spans[0].start_us, 100u);
  EXPECT_EQ(spans[0].end_us, 110u);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpanRingTest, WrapKeepsNewestAndCountsDropped) {
  SpanRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Record(MakeSpan(i, i * 100));
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<Span> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (const Span& span : spans) {
    EXPECT_GE(span.span_id, 7u) << "only the newest capacity spans survive";
  }
}

TEST(SpanRingTest, ZeroCapacityStillCountsRecorded) {
  SpanRing ring(0);
  ring.Record(MakeSpan(1, 100));
  EXPECT_EQ(ring.recorded(), 1u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

// Many writers wrapping a tiny ring while a reader snapshots continuously:
// under TSan this is the seqlock's data-race proof, and the arg==span_id
// marker proves a snapshot never stitches two different writes together.
TEST(SpanRingTest, ConcurrentWrapHammerNeverTearsSlots) {
  SpanRing ring(16);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Span& span : ring.Snapshot()) {
        ASSERT_EQ(span.arg, span.span_id) << "torn slot escaped the seqlock";
        ASSERT_EQ(span.end_us, span.start_us + 10);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t id = static_cast<uint64_t>(w) * kPerWriter + i + 1;
        ring.Record(MakeSpan(id, id * 3));
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  for (const Span& span : ring.Snapshot()) {
    EXPECT_EQ(span.arg, span.span_id);
  }
}

// ---------------------------------------------------------------------------
// SpanCollector

TEST(SpanCollectorTest, SampleTidIsOneInN) {
  SpanCollector::Options options;
  options.sample_rate = 4;
  SpanCollector collector(options);
  EXPECT_TRUE(collector.SampleTid(0));
  EXPECT_FALSE(collector.SampleTid(1));
  EXPECT_TRUE(collector.SampleTid(4));
  EXPECT_FALSE(collector.SampleTid(7));

  SpanCollector::Options off;
  off.sample_rate = 0;
  off.slow_threshold_us = 5;
  SpanCollector disabled(off);
  EXPECT_FALSE(disabled.SampleTid(0));
  EXPECT_EQ(disabled.slow_threshold_us(), 5u);
}

TEST(SpanCollectorTest, RoutesSpansByShardAndMergesSnapshots) {
  SpanCollector::Options options;
  options.shards = 2;
  options.sample_rate = 1;
  SpanCollector collector(options);
  Span a = MakeSpan(collector.NextSpanId(), 300);
  a.shard = 1;
  Span b = MakeSpan(collector.NextSpanId(), 100);
  b.shard = 0;
  collector.Record(a);
  collector.Record(b);
  std::vector<Span> merged = collector.Snapshot();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].start_us, 100u);
  EXPECT_EQ(merged[1].start_us, 300u);
  EXPECT_EQ(collector.recorded(), 2u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(SpanCollectorTest, OutlierStoreIsBoundedMostRecent) {
  SpanCollector::Options options;
  options.slow_threshold_us = 1;
  options.outlier_capacity = 2;
  SpanCollector collector(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    std::vector<Span> tree = {MakeSpan(collector.NextSpanId(), i * 100)};
    collector.RecordTree(tree, /*outlier=*/true);
  }
  EXPECT_EQ(collector.slow_commits(), 5u);
  std::vector<std::vector<Span>> outliers = collector.OutlierTrees();
  ASSERT_EQ(outliers.size(), 2u);
  EXPECT_EQ(outliers[0][0].start_us, 400u);
  EXPECT_EQ(outliers[1][0].start_us, 500u);
}

// ---------------------------------------------------------------------------
// Instance integration: deterministic commit trees

struct SimMachine {
  SimClock clock;
  SimDisk log_disk{&clock, "log"};
  SimDisk data_disk{&clock, "data"};
  SimEnv env{&clock};
  SimMachine() {
    env.Mount("/log", &log_disk);
    env.Mount("/data", &data_disk);
  }
};

std::vector<Span> RunOneSampledCommit(std::string* jsonl) {
  SimMachine m;
  (void)RvmInstance::CreateLog(&m.env, "/log/rvm", 2ull << 20);
  RvmOptions options;
  options.env = &m.env;
  options.log_path = "/log/rvm";
  options.span_sample_rate = 1;
  auto rvm = RvmInstance::Initialize(options);
  RegionDescriptor region;
  region.segment_path = "/data/seg";
  region.length = 4 * kPage;
  (void)(*rvm)->Map(region);
  auto* base = static_cast<uint8_t*>(region.address);
  Transaction txn(**rvm);
  (void)txn.SetRange(base, 64);
  base[0] = 1;
  (void)txn.Commit(CommitMode::kFlush);
  if (jsonl != nullptr) {
    *jsonl = *(*rvm)->DumpSpansJsonl();
  }
  return (*rvm)->SpanSnapshot();
}

TEST(RvmSpanTest, SampledFlushCommitLeavesTheExactTree) {
  std::vector<Span> spans = RunOneSampledCommit(nullptr);
  ASSERT_FALSE(spans.empty());
  const Span* root = nullptr;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kCommit) {
      ASSERT_EQ(root, nullptr) << "exactly one commit root";
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_NE(root->tid, 0u);
  EXPECT_EQ(root->shard, 0u);
  EXPECT_EQ(root->arg, root->end_us - root->start_us);

  std::multiset<SpanKind> kinds;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kCommit) {
      continue;
    }
    // Initialize emits standalone recovery maintenance spans (tid 0) even on
    // a fresh log; only the commit's children belong to the tree under test.
    if (span.kind == SpanKind::kRecoveryScan ||
        span.kind == SpanKind::kRecoveryApply) {
      EXPECT_EQ(span.tid, 0u);
      EXPECT_EQ(span.parent_id, 0u);
      continue;
    }
    EXPECT_EQ(span.parent_id, root->span_id) << "children link to the root";
    EXPECT_EQ(span.tid, root->tid);
    EXPECT_GE(span.start_us, root->start_us);
    EXPECT_LE(span.end_us, root->end_us);
    kinds.insert(span.kind);
  }
  EXPECT_EQ(kinds.count(SpanKind::kQueueWait), 1u);
  EXPECT_EQ(kinds.count(SpanKind::kAppend), 1u);
  EXPECT_EQ(kinds.count(SpanKind::kForce), 1u) << "leader forced its commit";
  EXPECT_EQ(kinds.count(SpanKind::kAck), 1u);
  EXPECT_EQ(kinds.count(SpanKind::kTwoPcPrepare), 0u) << "single shard";
}

TEST(RvmSpanTest, SpanTreesAreBitIdenticalAcrossRuns) {
  std::string first;
  std::string second;
  RunOneSampledCommit(&first);
  RunOneSampledCommit(&second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "SimEnv clock stamps must be reproducible";
}

TEST(RvmSpanTest, CrossShardCommitCorrelates2PcSpansByTid) {
  CrashSimEnv env;
  constexpr uint32_t kShards = 2;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogDataStart + 256 * 1024,
                                     false, kShards)
                  .ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = kShards;
  options.span_sample_rate = 1;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  std::vector<uint8_t*> bases;
  for (uint32_t i = 0; i < kShards; ++i) {
    RegionDescriptor region;
    region.segment_path = "/seg" + std::to_string(i);
    region.length = kPage;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    bases.push_back(static_cast<uint8_t*>(region.address));
  }
  auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(tid.ok());
  for (uint32_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE((*rvm)->SetRange(*tid, bases[i], 1).ok());
    bases[i][0] = static_cast<uint8_t>(i + 1);
  }
  ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());

  std::vector<Span> spans = (*rvm)->SpanSnapshot();
  const Span* root = nullptr;
  std::vector<const Span*> prepares;
  std::vector<const Span*> decisions;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kCommit && span.tid == *tid) {
      root = &span;
    } else if (span.kind == SpanKind::kTwoPcPrepare) {
      prepares.push_back(&span);
    } else if (span.kind == SpanKind::kTwoPcDecision) {
      decisions.push_back(&span);
    }
  }
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(prepares.size(), kShards) << "one prepare leg per shard";
  ASSERT_EQ(decisions.size(), 1u) << "one coordinator decision";
  std::set<uint32_t> prepare_shards;
  for (const Span* prepare : prepares) {
    EXPECT_EQ(prepare->tid, *tid) << "2PC legs correlate by tid";
    EXPECT_EQ(prepare->parent_id, root->span_id);
    prepare_shards.insert(prepare->shard);
  }
  EXPECT_EQ(prepare_shards.size(), kShards) << "prepares span distinct shards";
  EXPECT_EQ(decisions[0]->tid, *tid);
  EXPECT_EQ(decisions[0]->parent_id, root->span_id);

  // The Chrome export draws one flow arrow per prepare→decision pair.
  auto chrome = (*rvm)->DumpSpansChromeTrace();
  ASSERT_TRUE(chrome.ok());
  size_t flow_starts = 0;
  size_t flow_ends = 0;
  for (size_t at = chrome->find("\"ph\":\"s\""); at != std::string::npos;
       at = chrome->find("\"ph\":\"s\"", at + 1)) {
    ++flow_starts;
  }
  for (size_t at = chrome->find("\"ph\":\"f\""); at != std::string::npos;
       at = chrome->find("\"ph\":\"f\"", at + 1)) {
    ++flow_ends;
  }
  EXPECT_EQ(flow_starts, static_cast<size_t>(kShards));
  EXPECT_EQ(flow_ends, static_cast<size_t>(kShards));
  EXPECT_NE(chrome->find("\"name\":\"thread_name\""), std::string::npos);
  auto parsed = ParseJson(*chrome);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(RvmSpanTest, SlowCommitOutlierIsRecordedUnconditionally) {
  SimMachine m;
  (void)RvmInstance::CreateLog(&m.env, "/log/rvm", 2ull << 20);
  RvmOptions options;
  options.env = &m.env;
  options.log_path = "/log/rvm";
  options.span_sample_rate = 0;  // sampling off: only the outlier recorder
  options.slow_commit_threshold_us = 1;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());
  EXPECT_TRUE((*rvm)->spans_enabled());
  RegionDescriptor region;
  region.segment_path = "/data/seg";
  region.length = 4 * kPage;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);
  Transaction txn(**rvm);
  ASSERT_TRUE(txn.SetRange(base, 64).ok());
  base[0] = 1;
  ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());

  // A flush commit on the simulated disk takes milliseconds, far past the
  // 1 µs threshold: it must be counted and its whole tree retained.
  EXPECT_EQ((*rvm)->statistics().Snapshot().slow_commits, 1u);
  std::vector<std::vector<Span>> outliers = (*rvm)->SlowCommitSpans();
  ASSERT_EQ(outliers.size(), 1u);
  bool saw_root = false;
  for (const Span& span : outliers[0]) {
    saw_root = saw_root || span.kind == SpanKind::kCommit;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_FALSE((*rvm)->SpanSnapshot().empty())
      << "outliers also land in the rings";
}

TEST(RvmSpanTest, DisabledByDefaultAndDumpFailsCleanly) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());
  EXPECT_FALSE((*rvm)->spans_enabled());
  EXPECT_TRUE((*rvm)->SpanSnapshot().empty());
  EXPECT_TRUE((*rvm)->SlowCommitSpans().empty());
  EXPECT_EQ((*rvm)->DumpSpansJsonl().status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*rvm)->DumpSpansChromeTrace().status().code(),
            ErrorCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Poison sidecar carries the outlier trees (DESIGN.md §15)

TEST(RvmSpanTest, PoisonSidecarEmbedsSlowCommitTrees) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.slow_commit_threshold_us = 1;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 1 << 16;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  // One slow (real-clock threshold 1 µs) successful commit, then a dead log
  // device so the next flush commit poisons the instance and dumps.
  {
    Transaction txn(**rvm);
    ASSERT_TRUE(txn.SetRange(base, 64).ok());
    base[0] = 1;
    ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
  }
  FaultSpec spec;
  spec.op = FaultOp::kSync;
  spec.sticky = true;
  spec.path_substring = "/log";
  env.InjectFault(spec);
  auto tid = (*rvm)->BeginTransaction(RestoreMode::kNoRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*rvm)->SetRange(*tid, base, 8).ok());
  base[0] = 2;
  ASSERT_FALSE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());

  ASSERT_TRUE(env.Exists("/log.poison.json"));
  auto file = mem.Open("/log.poison.json", OpenMode::kReadOnly);
  ASSERT_TRUE(file.ok());
  auto bytes = ReadWholeFile(**file);
  ASSERT_TRUE(bytes.ok());
  const std::string sidecar(bytes->begin(), bytes->end());
  EXPECT_NE(sidecar.find("\"spans_schema\":\"rvm-spans-v1\""),
            std::string::npos);
  auto doc = ParseJson(sidecar);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* trees = doc->Find("slow_commit_spans");
  ASSERT_NE(trees, nullptr);
  ASSERT_TRUE(trees->IsArray());
  ASSERT_FALSE(trees->array.empty());
  const JsonValue& tree = trees->array.front();
  ASSERT_TRUE(tree.IsArray());
  ASSERT_FALSE(tree.array.empty());
  const JsonValue* kind = tree.array.front().Find("kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(kind->string, "commit");
}

// ---------------------------------------------------------------------------
// rvm-spans-v1 export + validator

TEST(SpanJsonTest, DumpRoundTripsThroughTheValidator) {
  std::string jsonl;
  RunOneSampledCommit(&jsonl);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_NE(jsonl.find("{\"schema\":\"rvm-spans-v1\""), std::string::npos);
  Status valid = ValidateSpansJsonl(jsonl);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << jsonl;
}

TEST(SpanJsonTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(ValidateSpansJsonl("").ok());
  EXPECT_FALSE(
      ValidateSpansJsonl("{\"schema\":\"rvm-spans-v0\",\"source\":\"x\","
                         "\"shards\":1}\n")
          .ok());
  const std::string header =
      "{\"schema\":\"rvm-spans-v1\",\"source\":\"test\",\"shards\":1}\n";
  EXPECT_FALSE(ValidateSpansJsonl(header).ok()) << "header but no spans";
  const std::string good_span =
      "{\"span_id\":1,\"parent_id\":0,\"tid\":7,\"kind\":\"commit\","
      "\"shard\":0,\"start_us\":5,\"end_us\":9,\"arg\":4}\n";
  EXPECT_TRUE(ValidateSpansJsonl(header + good_span).ok());
  // shard out of the header's range
  EXPECT_FALSE(ValidateSpansJsonl(
                   header +
                   "{\"span_id\":1,\"parent_id\":0,\"tid\":7,"
                   "\"kind\":\"commit\",\"shard\":1,\"start_us\":5,"
                   "\"end_us\":9,\"arg\":4}\n")
                   .ok());
  // end before start
  EXPECT_FALSE(ValidateSpansJsonl(
                   header +
                   "{\"span_id\":1,\"parent_id\":0,\"tid\":7,"
                   "\"kind\":\"commit\",\"shard\":0,\"start_us\":9,"
                   "\"end_us\":5,\"arg\":4}\n")
                   .ok());
  // span_id 0 is reserved for "no parent"
  EXPECT_FALSE(ValidateSpansJsonl(
                   header +
                   "{\"span_id\":0,\"parent_id\":0,\"tid\":7,"
                   "\"kind\":\"commit\",\"shard\":0,\"start_us\":5,"
                   "\"end_us\":9,\"arg\":4}\n")
                   .ok());
}

TEST(SpanJsonTest, ChromeTraceHasPerShardTracks) {
  std::vector<Span> spans;
  Span prepare = MakeSpan(1, 100);
  prepare.kind = SpanKind::kTwoPcPrepare;
  prepare.tid = 42;
  prepare.shard = 1;
  Span decision = MakeSpan(2, 200);
  decision.kind = SpanKind::kTwoPcDecision;
  decision.tid = 42;
  decision.shard = 0;
  spans.push_back(prepare);
  spans.push_back(decision);
  const std::string chrome = SpansToChromeTrace(spans, 2);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("shard 0"), std::string::npos);
  EXPECT_NE(chrome.find("shard 1"), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"s\""), std::string::npos)
      << "flow start at the prepare";
  EXPECT_NE(chrome.find("\"ph\":\"f\""), std::string::npos)
      << "flow finish at the decision";
  auto parsed = ParseJson(chrome);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Find("traceEvents")->IsArray());
}

// ---------------------------------------------------------------------------
// Maintenance spans

TEST(RvmSpanTest, TruncationAndRecoveryEmitMaintenanceSpans) {
  MemEnv env;
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env, "/log", kLogDataStart + 64 * 1024).ok());
  {
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    options.span_sample_rate = 1;
    auto rvm = RvmInstance::Initialize(options);
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = kPage;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    Transaction txn(**rvm);
    ASSERT_TRUE(txn.SetRange(base, 64).ok());
    base[0] = 1;
    ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
    ASSERT_TRUE((*rvm)->Truncate().ok());
    bool saw_truncation = false;
    for (const Span& span : (*rvm)->SpanSnapshot()) {
      if (span.kind == SpanKind::kTruncation) {
        saw_truncation = true;
        EXPECT_EQ(span.tid, 0u) << "maintenance spans carry no transaction";
      }
    }
    EXPECT_TRUE(saw_truncation);
    // Leave a live record behind so the reopen below has work to replay.
    Transaction tail(**rvm);
    ASSERT_TRUE(tail.SetRange(base, 8).ok());
    base[0] = 2;
    ASSERT_TRUE(tail.Commit(CommitMode::kFlush).ok());
  }
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.span_sample_rate = 1;
  auto reopened = RvmInstance::Initialize(options);
  ASSERT_TRUE(reopened.ok());
  bool saw_scan = false;
  bool saw_apply = false;
  for (const Span& span : (*reopened)->SpanSnapshot()) {
    saw_scan = saw_scan || span.kind == SpanKind::kRecoveryScan;
    saw_apply = saw_apply || span.kind == SpanKind::kRecoveryApply;
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_apply);
}

}  // namespace
}  // namespace rvm
