// Group-commit throughput: N threads issuing flush-mode commits against one
// RvmInstance. With the staged commit pipeline, committers whose records are
// appended while another committer's log force is in flight share that force
// (one leader syncs for the whole batch), so aggregate throughput should rise
// with thread count while log forces per transaction fall below 1.
//
// Runs on the real environment: the simulated clock is single-threaded and
// MemEnv's fsync is free, so neither can show the batching win. Real fsync
// cost (even on a fast local disk) is what the leader amortizes.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.h"
#include "src/rvm/rvm.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kRangeBytes = 256;
// Comfortably holds the largest run (8 threads x 400 txns x ~400 bytes) with
// no truncation, while keeping CreateLog's zero-fill preallocation — 4 MB
// per shard file — off the measurement's critical path.
constexpr uint64_t kLogBytes = 4ull << 20;

struct RunResult {
  double txns_per_sec = 0;
  double forces_per_txn = 0;
  double avg_batch = 0;
  uint64_t txns = 0;
  uint64_t forces = 0;
  uint64_t batches = 0;
  RvmStatistics stats;
};

// One live RvmInstance plus its workers' mapped regions.
struct BenchInstance {
  std::unique_ptr<RvmInstance> rvm;
  std::vector<uint8_t*> bases;
  uint64_t elapsed_us = 0;
};

BenchInstance SetupInstance(const std::string& dir, unsigned threads,
                            uint32_t shards) {
  Env* env = GetRealEnv();
  std::string log_path = dir + "/log" + std::to_string(shards) + "_" +
                         std::to_string(threads);
  Status created = RvmInstance::CreateLog(env, log_path, kLogBytes,
                                          /*overwrite=*/true, shards);
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.ToString().c_str());
    std::exit(1);
  }
  RvmOptions options;
  options.log_path = log_path;
  options.log_shards = shards;
  // Keep truncation out of the measurement: the log comfortably holds the
  // whole run.
  options.runtime.truncation_threshold = 0.95;
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr, "init: %s\n", rvm.status().ToString().c_str());
    std::exit(1);
  }

  // Each worker owns one region. Regions stripe across the shards by
  // segment id, so every commit stays single-shard (the one-force fast
  // path) while the worker population spreads over all shards.
  BenchInstance instance;
  instance.rvm = std::move(*rvm);
  for (unsigned worker = 0; worker < threads; ++worker) {
    RegionDescriptor region;
    region.segment_path = dir + "/seg" + std::to_string(shards) + "_" +
                          std::to_string(threads) + "_" +
                          std::to_string(worker);
    region.length = 16 * kPage;
    Status mapped = instance.rvm->Map(region);
    if (!mapped.ok()) {
      std::fprintf(stderr, "map: %s\n", mapped.ToString().c_str());
      std::exit(1);
    }
    instance.bases.push_back(static_cast<uint8_t*>(region.address));
  }
  return instance;
}

// Runs `chunk_txns` commits on every worker thread, starting at transaction
// index `first_txn` so the offset pattern is one continuous stream across
// chunks. Adds the wall time to instance.elapsed_us.
void RunChunk(BenchInstance& instance, unsigned threads, uint64_t first_txn,
              uint64_t chunk_txns) {
  Env* env = GetRealEnv();
  std::atomic<int> failures{0};
  uint64_t start_us = env->NowMicros();
  std::vector<std::thread> workers;
  for (unsigned worker = 0; worker < threads; ++worker) {
    workers.emplace_back([&, worker] {
      RvmInstance* rvm = instance.rvm.get();
      uint8_t* base = instance.bases[worker];
      for (uint64_t i = first_txn; i < first_txn + chunk_txns; ++i) {
        auto tid = rvm->BeginTransaction(RestoreMode::kNoRestore);
        if (!tid.ok()) {
          ++failures;
          return;
        }
        uint64_t offset = (i * kRangeBytes) % (16 * kPage - kRangeBytes);
        if (!rvm->SetRange(*tid, base + offset, kRangeBytes).ok()) {
          ++failures;
          return;
        }
        std::memset(base + offset, static_cast<int>(i & 0xFF), kRangeBytes);
        if (!rvm->EndTransaction(*tid, CommitMode::kFlush).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  instance.elapsed_us += env->NowMicros() - start_us;
  if (failures.load() != 0) {
    std::fprintf(stderr, "%d worker failures at %u threads\n", failures.load(),
                 threads);
    std::exit(1);
  }
}

RunResult FinishInstance(BenchInstance& instance) {
  const RvmStatistics stats = instance.rvm->statistics().Snapshot();
  RunResult result;
  result.stats = stats;
  result.txns = stats.transactions_committed;
  result.forces = stats.log_forces;
  result.batches = stats.group_commit_batches;
  result.txns_per_sec = static_cast<double>(result.txns) /
                        (static_cast<double>(instance.elapsed_us) / 1e6);
  result.forces_per_txn =
      static_cast<double>(result.forces) / static_cast<double>(result.txns);
  result.avg_batch =
      result.batches == 0
          ? 0
          : static_cast<double>(stats.group_commit_batched_txns) /
                static_cast<double>(result.batches);
  (void)instance.rvm->Terminate();
  return result;
}

// Paired measurement at one thread count: the single-shard and 4-shard
// instances are both live, and the workload alternates between them in
// chunks. fsync latency on a shared host drifts on a seconds timescale;
// interleaving the two instances inside the same window makes the
// throughput ratio compare like with like, where back-to-back full runs
// would let a drift swing the ratio by 20% either way.
std::pair<RunResult, RunResult> RunPaired(const std::string& dir,
                                          unsigned threads,
                                          uint64_t txns_per_thread) {
  constexpr uint64_t kChunks = 8;
  BenchInstance single = SetupInstance(dir, threads, 1);
  BenchInstance sharded = SetupInstance(dir, threads, 4);
  const uint64_t chunk_txns = txns_per_thread / kChunks;
  for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
    // ABBA ordering: alternating which instance goes first each chunk
    // cancels linear drift that a fixed order would book entirely against
    // whichever side always ran later.
    if (chunk % 2 == 0) {
      RunChunk(single, threads, chunk * chunk_txns, chunk_txns);
      RunChunk(sharded, threads, chunk * chunk_txns, chunk_txns);
    } else {
      RunChunk(sharded, threads, chunk * chunk_txns, chunk_txns);
      RunChunk(single, threads, chunk * chunk_txns, chunk_txns);
    }
  }
  return {FinishInstance(single), FinishInstance(sharded)};
}

int Main(int argc, char** argv) {
  BenchArgs args;
  if (!ParseBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const uint64_t txns_per_thread = args.quick ? 200 : 400;
  char dir_template[] = "/tmp/rvm_group_commit_XXXXXX";
  char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  std::printf("Group-commit throughput, flush-mode commits, %llu-byte ranges, "
              "%llu txns/thread%s\n\n",
              static_cast<unsigned long long>(kRangeBytes),
              static_cast<unsigned long long>(txns_per_thread),
              args.quick ? " [quick]" : "");
  std::printf("%8s %8s %12s %12s %14s %10s %10s\n", "shards", "threads",
              "txns/sec", "forces/txn", "saved forces", "batches", "avg batch");

  double single = 0;
  double best_multi = 0;
  double multi_forces_per_txn = 1.0;
  double best_shard_speedup = 0;
  double single_thread_parity = 0;  // 1-shard / 4-shard txns/s, 1 thread
  std::vector<std::string> json_runs;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    auto [single_run, sharded_run] = RunPaired(dir, threads, txns_per_thread);
    for (const auto* result : {&single_run, &sharded_run}) {
      uint32_t shards = result == &single_run ? 1 : 4;
      if (args.json_requested()) {
        // Wall-clock rates here come from the real environment, so this
        // bench's document is informational only: it is deliberately NOT in
        // bench/baselines/ (the compare gate covers the deterministic
        // simulated benches).
        json_runs.push_back(StatisticsJsonRun(
            "shards_" + std::to_string(shards) + "_threads_" +
                std::to_string(threads),
            result->stats,
            {{"shards", shards},
             {"threads", threads},
             {"txns_per_thread", txns_per_thread},
             {"throughput_tps_milli", MilliRate(result->txns_per_sec)},
             {"forces_per_txn_milli",
              static_cast<uint64_t>(result->forces_per_txn * 1000.0)}}));
      }
      std::printf(
          "%8u %8u %12.0f %12.3f %14llu %10llu %10.2f\n", shards, threads,
          result->txns_per_sec, result->forces_per_txn,
          static_cast<unsigned long long>(result->txns - result->forces),
          static_cast<unsigned long long>(result->batches),
          result->avg_batch);
    }
    if (threads == 1) {
      single = single_run.txns_per_sec;
      single_thread_parity =
          single_run.txns_per_sec / sharded_run.txns_per_sec;
    } else {
      best_multi = std::max(best_multi, single_run.txns_per_sec);
      if (threads >= 4) {
        multi_forces_per_txn =
            std::min(multi_forces_per_txn, single_run.forces_per_txn);
      }
    }
    // Same thread count, sharded vs single log: informational. Both pay
    // one force per commit; sharding adds one pipeline per shard, the
    // single log batches more committers per force.
    best_shard_speedup = std::max(
        best_shard_speedup, sharded_run.txns_per_sec / single_run.txns_per_sec);
  }
  std::printf("\nsharded speedup (4 shards vs 1, same threads): %.2fx\n",
              best_shard_speedup);

  std::string cleanup = "rm -rf " + std::string(dir);
  (void)std::system(cleanup.c_str());

  if (int rc = EmitTelemetryJson(
          args, TelemetryJsonDocument("bench-group-commit", json_runs));
      rc != 0) {
    return rc;
  }
  if (args.quick) {
    std::printf("shape checks skipped in --quick mode\n");
    return 0;
  }

  bool ok = true;
  auto check = [&](bool condition, const char* what) {
    std::printf("shape: %-64s %s\n", what, condition ? "OK" : "VIOLATED");
    ok = ok && condition;
  };
  std::printf("\n");
  check(best_multi > single, "concurrent commits outrun single-threaded");
  check(multi_forces_per_txn < 1.0,
        "log forces per txn < 1 at >= 4 threads (forces shared)");
  // One thread, one region: both instances do identical work, one force
  // per commit at every shard count. A per-batch status write on the single
  // log would halve its rate.
  check(single_thread_parity >= 0.75,
        "1-shard keeps pace with 4-shard at 1 thread (one force each)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rvm

int main(int argc, char** argv) { return rvm::Main(argc, argv); }
