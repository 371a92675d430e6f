// The benchmark's workloads and the figures it reports for them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // Traced run: per-layer figures instead of end-to-end ones.
  bool trace = false;
  // Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  // Transactions and restarts attempted, and how many of them failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines: round counts, sample sizes, why a check failed.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

// Runs whole rounds of one workload until `seconds` have passed.
Outcome RunWorkload(const RunOptions& options);

// Shows that each correctness check fails on a wrong input and that a write
// issued after a power cut is absent after the restart.
Outcome RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
