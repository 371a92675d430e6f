// perfbench: the repository's benchmark. Runs one workload against
// RvmInstance on the simulated 1993 machine, prints each metric by name and
// unit, and ends with one JSON line:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}}}
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//        perfbench --self-test
#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

std::string Number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

std::string Json(const Outcome& outcome) {
  std::string out = std::string("{\"correct\": ") +
                    (outcome.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(outcome.attempted) +
                    ", \"failed\": " + std::to_string(outcome.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void Print(const std::string& title, const Outcome& outcome) {
  std::printf("== %s\n", title.c_str());
  for (const std::string& note : outcome.notes) {
    std::printf("   %s\n", note.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("   %-48s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("   attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? "true" : "false");
}

// A metric that is not finite cannot be compared; report it as a fault.
void RejectNonFinite(Outcome* outcome) {
  for (Metric& m : outcome->metrics) {
    if (!std::isfinite(m.value)) {
      outcome->correct = false;
      outcome->notes.push_back(m.name + " is not finite");
      m.value = 0;
    }
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // whether a freed round's buffers return to the system depends on
  // allocation history; peak_rss_mb then follows the live memory.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  perfbench::RunOptions options;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage(("bad number for " + flag).c_str());
    }
  }

  // The self-test runs before every measurement, so every result line also
  // vouches that its checks can fail.
  Outcome self_test = perfbench::RunSelfTest();
  Print("self-test", self_test);
  if (self_test_only) {
    std::printf("%s\n", Json(self_test).c_str());
    return self_test.correct ? 0 : 1;
  }

  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!(options.seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  Outcome outcome = perfbench::RunWorkload(options);
  RejectNonFinite(&outcome);
  Print(options.workload + " (seed " + std::to_string(options.seed) +
            (options.trace ? ", traced)" : ")"),
        outcome);
  outcome.correct = outcome.correct && self_test.correct;
  std::printf("%s\n", Json(outcome).c_str());
  return 0;
}
