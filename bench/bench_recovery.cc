// Recovery time as a function of live log size (§5.1.2's crash recovery
// procedure: one forward read of the live log that validates it and builds
// the newest-wins image, apply, idempotent status update).
//
// Recovery work should scale with the amount of un-truncated log, not with
// segment size — that is the point of keeping recoverable memory small and
// letting truncation run: the log, not the data, bounds restart time.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_args.h"
#include "src/rvm/rvm.h"
#include "src/sim/sim_clock.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_env.h"
#include "src/util/random.h"

namespace rvm {
namespace {

struct RecoveryPoint {
  uint64_t txns_in_log = 0;
  double log_mb = 0;
  double recovery_ms = 0;
  double bytes_applied_mb = 0;
  RvmStatistics stats;  // from the recovered instance (recovery histograms)
};

RecoveryPoint Run(uint64_t txns) {
  SimClock clock;
  SimDisk log_disk(&clock, "log");
  SimDisk data_disk(&clock, "data");
  SimEnv env(&clock);
  env.Mount("/log", &log_disk);
  env.Mount("/data", &data_disk);

  (void)RvmInstance::CreateLog(&env, "/log/rvm", 64ull << 20);
  Xoshiro256 rng(3);
  {
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log/rvm";
    options.runtime.truncation_threshold = 1.0;  // never truncate: fill the log
    auto rvm = RvmInstance::Initialize(options);
    RegionDescriptor region;
    region.segment_path = "/data/seg";
    region.length = 8 << 20;
    (void)(*rvm)->Map(region);
    auto* base = static_cast<uint8_t*>(region.address);
    for (uint64_t i = 0; i < txns; ++i) {
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kNoRestore);
      uint64_t offset = rng.Below(region.length - 1024);
      (void)(*rvm)->SetRange(*tid, base + offset, 1024);
      base[offset] = static_cast<uint8_t>(i);
      (void)(*rvm)->EndTransaction(*tid, CommitMode::kFlush);
    }
    // Destructor terminates cleanly but leaves the log full (no truncate).
  }

  // "Crash" and recover: a fresh Initialize replays the whole live log.
  RecoveryPoint point;
  point.txns_in_log = txns;
  clock.Reset();
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log/rvm";
  auto recovered = RvmInstance::Initialize(options);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return point;
  }
  point.recovery_ms = clock.now_micros() / 1000.0;
  point.log_mb = static_cast<double>(txns) * 1120.0 / 1048576.0;
  point.stats = (*recovered)->statistics().Snapshot();
  point.bytes_applied_mb =
      static_cast<double>(point.stats.recovery_bytes_applied) / 1048576.0;
  return point;
}

// Verify-on-map cost (DESIGN.md §14): startup time of Initialize+Map over a
// truncated (fully checksummed) segment, with eager page verification off
// vs on. The delta is the per-startup price of catching segment corruption
// before the application ever sees the bytes.
struct VerifyOnMapPoint {
  double startup_ms = 0;
  double region_mb = 0;
  RvmStatistics stats;
};

VerifyOnMapPoint RunVerifyOnMap(bool eager, uint64_t txns) {
  SimClock clock;
  SimDisk log_disk(&clock, "log");
  SimDisk data_disk(&clock, "data");
  SimEnv env(&clock);
  env.Mount("/log", &log_disk);
  env.Mount("/data", &data_disk);

  constexpr uint64_t kRegionLen = 8 << 20;
  (void)RvmInstance::CreateLog(&env, "/log/rvm", 64ull << 20);
  Xoshiro256 rng(5);
  {
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log/rvm";
    auto rvm = RvmInstance::Initialize(options);
    RegionDescriptor region;
    region.segment_path = "/data/seg";
    region.length = kRegionLen;
    (void)(*rvm)->Map(region);
    auto* base = static_cast<uint8_t*>(region.address);
    for (uint64_t i = 0; i < txns; ++i) {
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kNoRestore);
      uint64_t offset = rng.Below(region.length - 1024);
      (void)(*rvm)->SetRange(*tid, base + offset, 1024);
      base[offset] = static_cast<uint8_t>(i);
      (void)(*rvm)->EndTransaction(*tid, CommitMode::kFlush);
    }
    // Truncate applies the log into the segment and records every touched
    // page's checksum — the state an eager map has to verify.
    (void)(*rvm)->Truncate();
  }

  VerifyOnMapPoint point;
  point.region_mb = static_cast<double>(kRegionLen) / 1048576.0;
  clock.Reset();
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log/rvm";
  options.verify_on_map = eager ? RvmOptions::VerifyOnMap::kEager
                                : RvmOptions::VerifyOnMap::kLazy;
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr, "verify-on-map init failed: %s\n",
                 rvm.status().ToString().c_str());
    return point;
  }
  RegionDescriptor region;
  region.segment_path = "/data/seg";
  region.length = kRegionLen;
  if (Status mapped = (*rvm)->Map(region); !mapped.ok()) {
    std::fprintf(stderr, "verify-on-map map failed: %s\n",
                 mapped.ToString().c_str());
    return point;
  }
  point.startup_ms = clock.now_micros() / 1000.0;
  point.stats = (*rvm)->statistics().Snapshot();
  return point;
}

int Main(int argc, char** argv) {
  BenchArgs args;
  if (!ParseBenchArgs(argc, argv, &args)) {
    return 2;
  }
  std::printf("Recovery time vs live log size (§5.1.2)%s\n\n",
              args.quick ? " [quick]" : "");
  std::printf("%12s %10s %14s %16s\n", "txns in log", "log MB", "recovery ms",
              "applied MB");
  std::vector<uint64_t> sizes = {250, 500, 1000, 2000, 4000, 8000};
  if (args.quick) {
    sizes = {250, 500, 1000};
  }
  std::vector<RecoveryPoint> points;
  for (uint64_t txns : sizes) {
    RecoveryPoint point = Run(txns);
    points.push_back(point);
    std::printf("%12llu %10.2f %14.1f %16.2f\n",
                static_cast<unsigned long long>(point.txns_in_log),
                point.log_mb, point.recovery_ms, point.bytes_applied_mb);
  }
  std::printf("\n");

  // Verify-on-map pair: same truncated-and-checksummed state, eager page
  // verification off vs on.
  const uint64_t verify_txns = args.quick ? 256 : 1024;
  VerifyOnMapPoint verify_off = RunVerifyOnMap(false, verify_txns);
  VerifyOnMapPoint verify_on = RunVerifyOnMap(true, verify_txns);
  std::printf("Startup (Initialize+Map, %.0f MB region) vs verify-on-map\n",
              verify_off.region_mb);
  std::printf("%16s %14s\n", "verify-on-map", "startup ms");
  std::printf("%16s %14.1f\n", "off (lazy)", verify_off.startup_ms);
  std::printf("%16s %14.1f\n", "on (eager)", verify_on.startup_ms);
  std::printf("\n");

  if (args.json_requested()) {
    std::vector<std::string> runs;
    for (const RecoveryPoint& point : points) {
      // Recovery throughput (applied MB per wall second) is the gated rate:
      // it catches a replay path that got slower even when the log contents
      // are byte-identical across runs.
      double mb_per_s =
          point.bytes_applied_mb / (point.recovery_ms / 1000.0);
      runs.push_back(StatisticsJsonRun(
          "txns_" + std::to_string(point.txns_in_log), point.stats,
          {{"txns_in_log", point.txns_in_log},
           {"recovery_us", static_cast<uint64_t>(point.recovery_ms * 1000.0)},
           {"throughput_recovery_mb_per_s_milli", MilliRate(mb_per_s)}}));
    }
    for (const auto& [name, point] :
         {std::pair<const char*, const VerifyOnMapPoint&>("verify_on_map_off",
                                                          verify_off),
          std::pair<const char*, const VerifyOnMapPoint&>("verify_on_map_on",
                                                          verify_on)}) {
      // Startup rate (region MB per wall second to Initialize+Map) is the
      // gated metric: it catches the checksum pass getting more expensive
      // as well as the baseline map path regressing.
      double mb_per_s = point.region_mb / (point.startup_ms / 1000.0);
      runs.push_back(StatisticsJsonRun(
          name, point.stats,
          {{"startup_us", static_cast<uint64_t>(point.startup_ms * 1000.0)},
           {"throughput_startup_mb_per_s_milli", MilliRate(mb_per_s)}}));
    }
    if (int rc = EmitTelemetryJson(
            args, TelemetryJsonDocument("bench-recovery", runs));
        rc != 0) {
      return rc;
    }
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
  double growth = points.back().recovery_ms / points.front().recovery_ms;
  double log_growth = static_cast<double>(points.back().txns_in_log) /
                      static_cast<double>(points.front().txns_in_log);
  check(points.back().recovery_ms > 4 * points.front().recovery_ms,
        "recovery time grows with live log size");
  // Sublinear in applied bytes is expected: the newest-record-wins pass
  // deduplicates more aggressively the longer the log.
  check(growth > 0.25 * log_growth && growth < 1.5 * log_growth,
        "growth tracks log size (sublinear from latest-wins dedup)");
  check(points.front().recovery_ms < 2000,
        "small logs recover in well under two seconds");
  check(verify_on.startup_ms >= verify_off.startup_ms,
        "eager verify-on-map costs at least as much as lazy");
  check(verify_on.startup_ms < 4 * verify_off.startup_ms,
        "checksum pass is a bounded fraction of startup");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rvm

int main(int argc, char** argv) { return rvm::Main(argc, argv); }
