// StatsSampler: the continuous half of the telemetry subsystem. Where the
// histograms summarize a whole run and the trace ring captures the last few
// hundred events, the sampler records a bounded ring of periodic state
// samples — gauges plus counters — and renders them as an
// "rvm-timeseries-v3" JSONL document (header line + one sample per line;
// schema and validator in src/telemetry/json.h).
//
// The sampler is deliberately ignorant of RvmInstance (src/telemetry must
// not depend on src/rvm): it pulls samples through a caller-provided
// callback. RvmInstance wires the callback to Introspect() + a statistics
// snapshot and owns the lifecycle — thread start after recovery, stop and
// flush on Terminate, ring dump (no callback, so safe under any lock) on
// poison.
//
// Knobs: `sample_capacity` bounds the ring (0 disables the sampler
// entirely); `sample_interval_us` is the background thread's period (0 means
// no thread — samples are taken only by explicit SampleNow() calls, the mode
// deterministic tests and simulated environments use).
#ifndef RVM_TELEMETRY_SAMPLER_H_
#define RVM_TELEMETRY_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rvm {

// One time-series sample. `body` is the pre-rendered JSON members of the
// sample line minus the timestamp — e.g. `"gauges":{...},"counters":{...}`
// — so the sampler never needs to understand what it stores.
struct TimeseriesSample {
  uint64_t timestamp_us = 0;
  std::string body;
};

class StatsSampler {
 public:
  struct Options {
    uint64_t sample_interval_us = 0;  // background period; 0 = manual only
    uint64_t sample_capacity = 0;     // ring bound; 0 = disabled
    std::string source;               // header "source" field
    uint64_t shard_count = 1;         // header "shards" field (DESIGN.md §12)
  };
  using SampleFn = std::function<TimeseriesSample()>;

  StatsSampler(Options options, SampleFn sample_fn);
  ~StatsSampler();  // stops the thread

  bool enabled() const { return options_.sample_capacity != 0; }

  // Spawns the background thread when enabled and sample_interval_us > 0;
  // otherwise a no-op. Idempotent.
  void Start();
  // Stops and joins the thread. Idempotent; also called by the destructor.
  void Stop();

  // Takes one sample synchronously via the callback and records it. The
  // callback may acquire instance locks, so never call this while holding
  // them. No-op when disabled.
  void SampleNow();

  // Oldest-first copy of the ring.
  std::vector<TimeseriesSample> Samples() const;
  // Samples recorded / evicted by the capacity bound since construction.
  uint64_t recorded() const;
  uint64_t dropped() const;

  // The full rvm-timeseries-v3 JSONL document: header line followed by one
  // line per retained sample. Touches only the ring (own mutex, no
  // callback), so callable from any lock state — the poison path relies on
  // this.
  std::string DumpJsonl() const;

 private:
  void ThreadMain();
  void Record(TimeseriesSample sample);

  const Options options_;
  const SampleFn sample_fn_;

  mutable std::mutex mu_;  // ring + counters; a leaf lock
  std::deque<TimeseriesSample> ring_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;

  std::mutex thread_mu_;  // thread lifecycle + stop flag
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stop_requested_ = false;
};

}  // namespace rvm

#endif  // RVM_TELEMETRY_SAMPLER_H_
