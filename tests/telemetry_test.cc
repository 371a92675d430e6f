// Telemetry subsystem tests: histogram bucket math and percentiles,
// StatCounter watermark races, the trace ring, the JSON parser/validator,
// and the end-to-end flight recorder — a deterministic trace of one
// committed transaction and the poison-dump sidecar written on the first
// I/O failure.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/json.h"
#include "src/telemetry/trace.h"

namespace rvm {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1024), 11u);
  // The top bucket absorbs the whole tail; nothing is dropped.
  EXPECT_EQ(LatencyHistogram::BucketIndex(UINT64_MAX), 63u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(uint64_t{1} << 63), 63u);

  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    // Every bucket's bounds map back to that bucket.
    EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::BucketLowerBound(i)), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::BucketUpperBound(i)), i);
  }
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(4), 8u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(4), 15u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(63), UINT64_MAX);
}

TEST(LatencyHistogramTest, EmptySnapshot) {
  LatencyHistogram histogram;
  LatencyHistogram::Snapshot s = histogram.TakeSnapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);  // sentinel never leaks
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
}

TEST(LatencyHistogramTest, SingleValueReportsItselfExactly) {
  LatencyHistogram histogram;
  histogram.Record(100);
  LatencyHistogram::Snapshot s = histogram.TakeSnapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 100u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.Mean(), 100.0);
  // Clamping to [min, max] collapses the covering bucket to the one sample.
  EXPECT_DOUBLE_EQ(s.Percentile(1), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 100.0);
}

TEST(LatencyHistogramTest, PercentileInterpolation) {
  LatencyHistogram histogram;
  // 100 samples spread over [1000, 1099]: all land in bucket 11
  // ([1024, 2047]) or bucket 10 — the clamp to [min, max] keeps the
  // interpolated values inside the observed range and monotone.
  for (uint64_t v = 1000; v < 1100; ++v) {
    histogram.Record(v);
  }
  LatencyHistogram::Snapshot s = histogram.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1099u);
  double p50 = s.Percentile(50);
  double p90 = s.Percentile(90);
  double p99 = s.Percentile(99);
  EXPECT_GE(p50, 1000.0);
  EXPECT_LE(p99, 1099.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 1099.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 1049.5);
}

TEST(LatencyHistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(t) * kPerThread + i + 1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  LatencyHistogram::Snapshot s = histogram.TakeSnapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t bucket : s.buckets) {
    bucket_total += bucket;
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// StatCounter watermarks under concurrency

TEST(StatCounterTest, StoreMinStoreMaxConcurrentHammer) {
  StatCounter low(UINT64_MAX);
  StatCounter high(0);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t value = static_cast<uint64_t>(t) * kPerThread + i + 1;
        low.StoreMin(value);
        high.StoreMax(value);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // The CAS loops must never regress a watermark past a concurrent update.
  EXPECT_EQ(low.load(), 1u);
  EXPECT_EQ(high.load(), kThreads * kPerThread);
}

TEST(StatCounterTest, SaturatingSubClampsAtZero) {
  EXPECT_EQ(SaturatingSub(5, 3), 2u);
  EXPECT_EQ(SaturatingSub(3, 5), 0u);
  EXPECT_EQ(SaturatingSub(0, 0), 0u);
  EXPECT_EQ(SaturatingSub(UINT64_MAX, 1), UINT64_MAX - 1);
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorderTest, RecordsInOrder) {
  TraceRecorder recorder(8);
  recorder.Record(1, TraceEventType::kTxnBegin, 7);
  recorder.Record(2, TraceEventType::kSetRange, 7, 512);
  recorder.Record(3, TraceEventType::kCommitAck, 7, 42);
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, TraceEventType::kTxnBegin);
  EXPECT_EQ(events[1].type, TraceEventType::kSetRange);
  EXPECT_EQ(events[1].arg1, 512u);
  EXPECT_EQ(events[2].type, TraceEventType::kCommitAck);
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
  // Events() does not clear: dumping evidence must not erase it.
  EXPECT_EQ(recorder.Events().size(), 3u);
}

TEST(TraceRecorderTest, RingWrapKeepsNewest) {
  TraceRecorder recorder(4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(i, TraceEventType::kAppend, i);
  }
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg0, 6 + i);  // oldest-first: 6, 7, 8, 9
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);

  std::vector<TraceEvent> tail = recorder.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].arg0, 8u);
  EXPECT_EQ(tail[1].arg0, 9u);
  // Asking for more than is live returns everything live.
  EXPECT_EQ(recorder.Tail(100).size(), 4u);
}

TEST(TraceRecorderTest, ZeroCapacityDisables) {
  TraceRecorder recorder(0);
  recorder.Record(1, TraceEventType::kPoison, 5);
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(TraceRecorderTest, JsonlRendering) {
  TraceEvent event;
  event.timestamp_us = 12;
  event.type = TraceEventType::kForce;
  event.arg0 = 4096;
  event.arg1 = 17400;
  event.shard = 2;
  EXPECT_EQ(TraceEventJson(event),
            "{\"ts_us\":12,\"event\":\"force\",\"arg0\":4096,\"arg1\":17400,"
            "\"shard\":2}");

  TraceRecorder recorder(4);
  recorder.Record(1, TraceEventType::kTxnBegin, 1);
  recorder.Record(2, TraceEventType::kCommitAck, 1, 3);
  std::string jsonl = TraceJsonl(recorder.Events());
  EXPECT_EQ(
      jsonl,
      "{\"ts_us\":1,\"event\":\"txn-begin\",\"arg0\":1,\"arg1\":0,"
      "\"shard\":0}\n"
      "{\"ts_us\":2,\"event\":\"commit-ack\",\"arg0\":1,\"arg1\":3,"
      "\"shard\":0}\n");
}

// ---------------------------------------------------------------------------
// JSON parser + schema validator

TEST(JsonTest, ParsesScalarsAndStructure) {
  auto doc = ParseJson(
      "{\"a\": 1.5, \"b\": [true, false, null], \"c\": \"x\\ny\"}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->IsNumber());
  EXPECT_DOUBLE_EQ(a->number, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->IsArray());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[2].kind, JsonValue::Kind::kNull);
  const JsonValue* c = doc->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string, "x\ny");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{}extra").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  // Parse errors carry a byte offset for debugging.
  Status status = ParseJson("{\"a\": nope}").status();
  EXPECT_NE(status.message().find("offset"), std::string::npos);
}

TEST(JsonTest, EscapeRoundTrips) {
  std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  std::string quoted = "\"" + JsonEscape(nasty) + "\"";
  auto parsed = ParseJson(quoted);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string, nasty);
}

TEST(JsonTest, ValidatesRealStatisticsDocument) {
  RvmStatistics stats;
  ++stats.transactions_committed;
  stats.commit_latency_us.Record(17400);
  stats.commit_latency_us.Record(18100);
  std::string doc = TelemetryJsonDocument(
      "unit-test", {StatisticsJsonRun("run-a", stats, {{"extra", 7}})});
  Status valid = ValidateTelemetryJson(doc);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(JsonTest, ValidatorRejectsSchemaViolations) {
  // Wrong schema string.
  EXPECT_FALSE(ValidateTelemetryJson(
                   "{\"schema\":\"v0\",\"source\":\"x\",\"runs\":[]}")
                   .ok());
  // Missing runs.
  EXPECT_FALSE(ValidateTelemetryJson(
                   "{\"schema\":\"rvm-telemetry-v1\",\"source\":\"x\"}")
                   .ok());
  // Well-formed but no commit_latency_us histogram anywhere.
  std::string no_headline =
      "{\"schema\":\"rvm-telemetry-v1\",\"source\":\"x\",\"runs\":[{"
      "\"name\":\"r\",\"counters\":{},\"histograms\":{}}]}";
  Status status = ValidateTelemetryJson(no_headline);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("commit_latency_us"), std::string::npos);
  // Histogram missing a required field.
  std::string bad_histogram =
      "{\"schema\":\"rvm-telemetry-v1\",\"source\":\"x\",\"runs\":[{"
      "\"name\":\"r\",\"counters\":{},\"histograms\":{"
      "\"commit_latency_us\":{\"count\":1}}}]}";
  EXPECT_FALSE(ValidateTelemetryJson(bad_histogram).ok());
}

TEST(JsonTest, ValidatesTimeseriesDocument) {
  const std::string header =
      "{\"schema\":\"rvm-timeseries-v3\",\"source\":\"t\","
      "\"sample_interval_us\":0}\n";
  std::string doc = header +
                    "{\"t\":10,\"gauges\":{\"log_bytes_in_use\":5},"
                    "\"counters\":{\"transactions_committed\":1}}\n"
                    "{\"t\":20,\"gauges\":{\"log_bytes_in_use\":9}}\n";
  Status valid = ValidateTimeseriesJsonl(doc);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // Equal timestamps are non-decreasing, so also fine.
  EXPECT_TRUE(
      ValidateTimeseriesJsonl(header + "{\"t\":5,\"gauges\":{}}\n"
                                       "{\"t\":5,\"gauges\":{}}\n")
          .ok());
}

TEST(JsonTest, TimeseriesValidatorRejectsSchemaViolations) {
  const std::string header =
      "{\"schema\":\"rvm-timeseries-v3\",\"source\":\"t\","
      "\"sample_interval_us\":0}\n";
  const std::string sample = "{\"t\":10,\"gauges\":{}}\n";

  EXPECT_FALSE(ValidateTimeseriesJsonl("").ok());  // empty document
  // Header with no samples.
  Status headless = ValidateTimeseriesJsonl(header);
  ASSERT_FALSE(headless.ok());
  EXPECT_NE(headless.message().find("no samples"), std::string::npos);
  // Wrong or missing header schema.
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   "{\"schema\":\"v0\",\"source\":\"t\","
                   "\"sample_interval_us\":0}\n" +
                   sample)
                   .ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(sample + sample).ok());
  // Header missing source / interval.
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   "{\"schema\":\"rvm-timeseries-v3\","
                   "\"sample_interval_us\":0}\n" +
                   sample)
                   .ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   "{\"schema\":\"rvm-timeseries-v3\",\"source\":\"t\"}\n" +
                   sample)
                   .ok());
  // Sample missing its timestamp or gauges.
  EXPECT_FALSE(ValidateTimeseriesJsonl(header + "{\"gauges\":{}}\n").ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(header + "{\"t\":10}\n").ok());
  // Decreasing timestamps.
  Status decreasing = ValidateTimeseriesJsonl(
      header + "{\"t\":20,\"gauges\":{}}\n{\"t\":10,\"gauges\":{}}\n");
  ASSERT_FALSE(decreasing.ok());
  EXPECT_NE(decreasing.message().find("decreases"), std::string::npos);
  // Non-object gauges; non-numeric gauge; non-numeric counter.
  EXPECT_FALSE(
      ValidateTimeseriesJsonl(header + "{\"t\":10,\"gauges\":3}\n").ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   header + "{\"t\":10,\"gauges\":{\"x\":\"y\"}}\n")
                   .ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   header +
                   "{\"t\":10,\"gauges\":{},\"counters\":{\"c\":\"y\"}}\n")
                   .ok());
  // v3 rows: a shard row keyed by its number, a region row by its segment,
  // every other member numeric; and no name is both a gauge and a counter.
  EXPECT_TRUE(ValidateTimeseriesJsonl(
                  header +
                  "{\"t\":10,\"gauges\":{\"shards\":[{\"shard\":1,"
                  "\"forces\":2}],\"regions\":[{\"segment\":\"/s\","
                  "\"pages\":4}]}}\n")
                  .ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   header +
                   "{\"t\":10,\"gauges\":{\"shards\":[{\"forces\":2}]}}\n")
                   .ok());
  EXPECT_FALSE(ValidateTimeseriesJsonl(
                   header +
                   "{\"t\":10,\"gauges\":{\"regions\":[{\"segment\":\"/s\","
                   "\"pages\":\"4\"}]}}\n")
                   .ok());
  Status duplicate = ValidateTimeseriesJsonl(
      header +
      "{\"t\":10,\"gauges\":{\"poisoned\":0},\"counters\":{\"poisoned\":0}}\n");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.message().find("both a gauge and a counter"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: deterministic trace of one committed transaction

TEST(FlightRecorderTest, CommittedTransactionTraceSequence) {
  MemEnv env;  // fake clock: NowMicros is a deterministic counter
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();

  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 1 << 16;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*rvm)->SetRange(*tid, base, 64).ok());
  std::memset(base, 0xAB, 64);
  ASSERT_TRUE((*rvm)->SetRange(*tid, base + 4096, 32).ok());
  std::memset(base + 4096, 0xCD, 32);
  ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());

  // The exact event sequence for a fresh log and one flush-mode commit.
  std::vector<TraceEvent> events = (*rvm)->DumpTrace();
  std::vector<TraceEventType> expected = {
      TraceEventType::kRecoveryScan,  // Initialize scans the (empty) log
      TraceEventType::kTxnBegin,
      TraceEventType::kSetRange,
      TraceEventType::kSetRange,
      TraceEventType::kAppend,     // one spool record for the transaction
      TraceEventType::kForce,      // the commit's log force
      TraceEventType::kCommitAck,  // durable
  };
  ASSERT_EQ(events.size(), expected.size()) << (*rvm)->DumpTraceJsonl();
  uint64_t last_ts = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(events[i].type, expected[i]) << "event " << i << ":\n"
                                           << (*rvm)->DumpTraceJsonl();
    EXPECT_GT(events[i].timestamp_us, last_ts);  // fake clock: strictly rising
    last_ts = events[i].timestamp_us;
  }
  // Event arguments carry the transaction id and range lengths.
  EXPECT_EQ(events[1].arg0, *tid);
  EXPECT_EQ(events[2].arg0, *tid);
  EXPECT_EQ(events[2].arg1, 64u);
  EXPECT_EQ(events[3].arg1, 32u);
  EXPECT_EQ(events[6].arg0, *tid);

  // The same commit also populated the phase histograms.
  const RvmStatistics stats = (*rvm)->statistics().Snapshot();
  EXPECT_EQ(stats.commit_latency_us.count(), 1u);
  EXPECT_EQ(stats.set_range_us.count(), 2u);
  EXPECT_EQ(stats.log_force_us.count(), 1u);
  EXPECT_EQ(stats.commit_fsync_us.count(), 1u);

  // DumpTraceJsonl renders one line per event.
  std::string jsonl = (*rvm)->DumpTraceJsonl();
  EXPECT_NE(jsonl.find("\"event\":\"recovery-scan\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"commit-ack\""), std::string::npos);
}

TEST(FlightRecorderTest, TraceDisabledByOption) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.trace_capacity = 0;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());
  EXPECT_TRUE((*rvm)->DumpTrace().empty());
}

// ---------------------------------------------------------------------------
// End-to-end: poison dump sidecar

TEST(FlightRecorderTest, PoisonWritesSidecarWithTraceAndReason) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();

  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 1 << 16;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  // A dead log device: every Sync on the log fails from now on. The sidecar
  // itself is written with Open + WriteAt (no Sync), so it still lands.
  FaultSpec spec;
  spec.op = FaultOp::kSync;
  spec.sticky = true;
  spec.path_substring = "/log";
  env.InjectFault(spec);

  auto tid = (*rvm)->BeginTransaction(RestoreMode::kNoRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*rvm)->SetRange(*tid, base, 64).ok());
  base[0] = 1;
  Status commit = (*rvm)->EndTransaction(*tid, CommitMode::kFlush);
  ASSERT_FALSE(commit.ok());

  // The flight recorder dumped a sidecar next to the log.
  ASSERT_TRUE(env.Exists("/log.poison.json"));
  auto file = mem.Open("/log.poison.json", OpenMode::kReadOnly);
  ASSERT_TRUE(file.ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  std::string sidecar(*size, '\0');
  ASSERT_TRUE(
      (*file)->ReadAt(0, {reinterpret_cast<uint8_t*>(sidecar.data()), *size})
          .ok());

  // It is a valid telemetry document carrying the poison reason and the
  // trailing trace (which must include the io-error and poison events).
  Status valid = ValidateTelemetryJson(sidecar);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << sidecar;
  auto doc = ParseJson(sidecar);
  ASSERT_TRUE(doc.ok());
  const JsonValue* reason = doc->Find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_TRUE(reason->IsString());
  EXPECT_NE(reason->string.find("injected fault"), std::string::npos);
  const JsonValue* trace = doc->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->IsArray());
  ASSERT_FALSE(trace->array.empty());
  bool saw_io_error = false;
  bool saw_poison = false;
  for (const JsonValue& event : trace->array) {
    const JsonValue* name = event.Find("event");
    ASSERT_NE(name, nullptr);
    saw_io_error = saw_io_error || name->string == "io-error";
    saw_poison = saw_poison || name->string == "poison";
  }
  EXPECT_TRUE(saw_io_error);
  EXPECT_TRUE(saw_poison);

  // Poisoned means poisoned: later operations fail fast, and the "source"
  // field marks the document as a poison dump.
  EXPECT_FALSE((*rvm)->BeginTransaction(RestoreMode::kNoRestore).ok());
  const JsonValue* source = doc->Find("source");
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->string, "poison-dump");
}

TEST(FlightRecorderTest, PoisonDumpCanBeDisabled) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.enable_poison_dump = false;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());

  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 1 << 16;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  FaultSpec spec;
  spec.op = FaultOp::kSync;
  spec.sticky = true;
  spec.path_substring = "/log";
  env.InjectFault(spec);

  auto tid = (*rvm)->BeginTransaction(RestoreMode::kNoRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*rvm)->SetRange(*tid, base, 8).ok());
  base[0] = 1;
  ASSERT_FALSE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());
  EXPECT_FALSE(env.Exists("/log.poison.json"));
}

}  // namespace
}  // namespace rvm
