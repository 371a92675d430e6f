// Reproduces Table 1 and Figure 8: transactional throughput of RVM vs the
// Camelot baseline on the TPC-A variant, as the ratio of recoverable to
// physical memory grows from 12.5% to 175%, for sequential / random /
// localized account access.
//
// Expected shapes (§7.1.2): both systems flat near the 57.4 tps log-force
// bound for sequential access; RVM's random curve degrades slowly until
// Rmem/Pmem ~ 70% and stays above Camelot's everywhere; Camelot's random
// curve degrades immediately (aggressive Disk Manager truncation) and is
// locality-sensitive even at 12.5%.
#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_args.h"
#include "bench/tpca_machine.h"

namespace rvm {
namespace {

struct PaperRow {
  double rvm_seq, rvm_rand, rvm_loc;
  double cam_seq, cam_rand, cam_loc;
};

// Table 1 of the paper (means over trials).
constexpr PaperRow kPaper[14] = {
    {48.6, 47.9, 47.5, 48.1, 41.6, 44.5}, {48.5, 46.4, 46.6, 48.2, 34.2, 43.1},
    {48.6, 45.5, 46.2, 48.9, 30.1, 41.2}, {48.2, 44.7, 45.1, 48.1, 29.2, 41.3},
    {48.1, 43.9, 44.2, 48.1, 27.1, 40.3}, {47.7, 43.2, 43.4, 48.1, 25.8, 39.5},
    {47.2, 42.5, 43.8, 48.2, 23.9, 37.9}, {46.9, 41.6, 41.1, 48.0, 21.7, 35.9},
    {46.3, 40.8, 39.0, 48.0, 20.8, 35.2}, {46.9, 39.7, 39.0, 48.1, 19.1, 33.7},
    {48.6, 33.8, 40.0, 48.3, 18.6, 33.3}, {46.9, 33.3, 39.4, 48.9, 18.7, 32.4},
    {46.5, 30.9, 38.7, 48.0, 18.2, 32.3}, {46.4, 27.4, 35.4, 47.7, 17.9, 31.6},
};

int Main(int argc, char** argv) {
  BenchArgs args;
  if (!ParseBenchArgs(argc, argv, &args)) {
    return 2;
  }
  MachineConfig machine;
  std::vector<int> row_ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  if (args.quick) {
    // Three sizes spanning the Rmem/Pmem range, short measurement windows.
    row_ids = {0, 6, 13};
    machine.warmup_txns = 500;
    machine.measured_txns = 1500;
  }
  std::printf("Table 1: Transactional Throughput (TPC-A variant, §7.1)%s\n",
              args.quick ? " [quick]" : "");
  std::printf("DECstation 5000/200 model: 64 MB memory, separate log/data/"
              "paging disks, ~17.4 ms log force\n");
  std::printf("Values: transactions/sec, measured (paper) — paper values from "
              "Table 1.\n\n");
  std::printf("%9s %10s | %21s %21s %21s | %21s %21s %21s\n", "Accounts",
              "Rmem/Pmem", "RVM Seq", "RVM Rand", "RVM Local", "Camelot Seq",
              "Camelot Rand", "Camelot Local");

  std::vector<std::array<double, 7>> series;
  std::vector<std::string> json_runs;
  for (int row : row_ids) {
    uint64_t accounts = 32768ull * (row + 1);
    double measured[6];
    int column = 0;
    double ratio = 0;
    for (bool camelot : {false, true}) {
      for (TpcaPattern pattern : {TpcaPattern::kSequential, TpcaPattern::kRandom,
                                  TpcaPattern::kLocalized}) {
        TpcaConfig config;
        config.num_accounts = accounts;
        config.pattern = pattern;
        TpcaRunResult result = camelot ? RunCamelotTpca(config, machine)
                                       : RunRvmTpca(config, machine);
        if (args.json_requested()) {
          std::string run_name = std::string(camelot ? "camelot" : "rvm") +
                                 "_" + PatternName(pattern) + "_accounts_" +
                                 std::to_string(accounts);
          std::vector<std::pair<std::string, uint64_t>> extras = {
              {"accounts", accounts},
              {"rmem_pmem_pct_milli", MilliRate(result.rmem_pmem_pct)},
              {"throughput_tps_milli", MilliRate(result.tps)}};
          json_runs.push_back(camelot
                                  ? PlainJsonRun(run_name, extras)
                                  : StatisticsJsonRun(run_name, result.stats,
                                                      extras));
        }
        measured[column++] = result.tps;
        ratio = result.rmem_pmem_pct;
      }
    }
    const PaperRow& paper = kPaper[row];
    std::printf(
        "%9llu %9.1f%% | %8.1f (%4.1f)%6s %8.1f (%4.1f)%6s %8.1f (%4.1f)%6s | "
        "%8.1f (%4.1f)%6s %8.1f (%4.1f)%6s %8.1f (%4.1f)%6s\n",
        static_cast<unsigned long long>(accounts), ratio, measured[0],
        paper.rvm_seq, "", measured[1], paper.rvm_rand, "", measured[2],
        paper.rvm_loc, "", measured[3], paper.cam_seq, "", measured[4],
        paper.cam_rand, "", measured[5], paper.cam_loc, "");
    series.push_back({ratio, measured[0], measured[1], measured[2], measured[3],
                      measured[4], measured[5]});
  }

  std::printf("\nFigure 8 series (CSV): rmem_pmem_pct,rvm_seq,rvm_rand,"
              "rvm_loc,camelot_seq,camelot_rand,camelot_loc\n");
  for (const auto& row : series) {
    std::printf("fig8,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n", row[0], row[1],
                row[2], row[3], row[4], row[5], row[6]);
  }

  // Sharded leg (DESIGN.md §12): the TPC-A working set is a single region,
  // so a 4-shard log keeps every commit on the single-shard fast path —
  // exactly one log force per transaction, checked against the simulated
  // disk's sync accounting. Throughput must match the 1-shard run's: both
  // pay one force per commit, and striping must not cost anything here.
  TpcaConfig sharded_config;
  sharded_config.num_accounts = 32768;
  sharded_config.pattern = TpcaPattern::kSequential;
  MachineConfig sharded_machine = machine;
  sharded_machine.log_shards = 4;
  // Same TOTAL log space as the 1-shard run (log_size is per shard file),
  // so epoch-truncation cadence — a first-order throughput effect on this
  // machine — is comparable and the parity check isolates the commit path.
  sharded_machine.log_size = machine.log_size / 4;
  TpcaRunResult sharded = RunRvmTpca(sharded_config, sharded_machine);
  double single_seq = series.front()[1];
  double sharded_forces_per_txn =
      static_cast<double>(sharded.stats.log_forces) /
      static_cast<double>(sharded.stats.transactions_committed);
  std::printf("\n4-shard log, sequential, 32768 accounts: %.1f tps "
              "(1-shard: %.1f), %.3f forces/txn\n",
              sharded.tps, single_seq, sharded_forces_per_txn);
  if (args.json_requested()) {
    json_runs.push_back(StatisticsJsonRun(
        "rvm_sharded_Sequential_accounts_32768", sharded.stats,
        {{"accounts", uint64_t{32768}},
         {"shards", uint64_t{4}},
         {"throughput_tps_milli", MilliRate(sharded.tps)}}));
  }

  if (int rc = EmitTelemetryJson(
          args, TelemetryJsonDocument("bench-table1-throughput", json_runs));
      rc != 0) {
    return rc;
  }
  if (args.quick) {
    std::printf("shape checks skipped in --quick mode\n");
    return 0;
  }

  // Shape assertions: who wins, where the knees are.
  const auto& first = series.front();
  const auto& last = series.back();
  bool ok = true;
  auto check = [&](bool condition, const char* what) {
    std::printf("shape: %-64s %s\n", what, condition ? "OK" : "VIOLATED");
    ok = ok && condition;
  };
  std::printf("\n");
  // The paper's own best case (48.6) is 15.3% below the bound; allow 20%.
  check(first[1] > 0.80 * 57.4 && first[4] > 0.80 * 57.4,
        "sequential within ~15%% of the 57.4 tps log-force bound");
  check(last[1] > 0.9 * first[1] && last[4] > 0.9 * first[4],
        "sequential stays flat out to 175%%");
  check(last[2] < 0.75 * first[2], "RVM random degrades substantially by 175%");
  for (const auto& row : series) {
    if (row[2] < row[5] || row[3] < row[6]) {
      ok = false;
    }
  }
  check(ok, "RVM >= Camelot for random and localized at every ratio");
  check(first[5] < 0.92 * first[4],
        "Camelot random already degraded at Rmem/Pmem = 12.5%");
  // RVM random: "the drop does not become serious until recoverable memory
  // size exceeds about 70% of physical memory size".
  double rvm_rand_at_50 = series[3][2];
  check(rvm_rand_at_50 > 0.85 * first[2],
        "RVM random still close to sequential at Rmem/Pmem = 50%");
  check(sharded.tps > 0.95 * single_seq,
        "4-shard single-region TPC-A at least matches 1-shard throughput");
  check(sharded_forces_per_txn <= 1.0,
        "sharded single-region commits force the log at most once");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rvm

int main(int argc, char** argv) { return rvm::Main(argc, argv); }
