// Per-transaction span tracing (DESIGN.md §15).
//
// Spans answer the question the paper's Figure 9 answers in aggregate —
// where does a transaction's time go? — but for one specific transaction:
// each commit that is sampled (1-in-N by tid) or slower than the outlier
// threshold leaves a small tree of intervals (queue-wait, append, dwell,
// force, ack, and for cross-shard commits the per-participant 2PC prepare
// and coordinator decision legs), all keyed by the transaction id so the
// decision force on the coordinator shard can be correlated with the
// prepare forces on the participant shards. Truncation passes and the
// per-shard recovery phases emit standalone spans with tid 0.
//
// Spans are stamped with the owning Env's clock, so a run under SimEnv or
// CrashSimEnv produces bit-identical traces. Collection is a per-shard
// lock-free ring (SpanRing) safe to write from any commit thread; readers
// take a point-in-time snapshot without stopping writers.
//
// This layer must not depend on src/rvm — the instance owns a
// SpanCollector and pushes fully-formed Span values into it.
#ifndef RVM_TELEMETRY_SPAN_H_
#define RVM_TELEMETRY_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rvm {

enum class SpanKind : uint8_t {
  kCommit = 0,     // root of a commit tree; arg = end-to-end latency (µs)
  kQueueWait,      // waiting for the state lock; arg = wait (µs)
  kAppend,         // bookkeeping + log append under the state lock
  kDwell,          // group-commit leader dwell window
  kForce,          // the log fsync itself; arg = sync (µs)
  kAck,            // from the last durable point to the commit ack
  kTwoPcPrepare,   // 2PC participant prepare append + force (one per shard)
  kTwoPcDecision,  // 2PC coordinator decision force — the commit point
  kTruncation,     // one truncation pass; arg = 0 epoch, 1 incremental
  kRecoveryScan,   // per-shard tail scan at recovery
  kRecoveryApply,  // per-shard log-to-segment replay at recovery
};

// Stable lowercase-dash name, the "kind" field of rvm-spans-v1.
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t span_id = 0;    // nonzero, unique within one collector
  uint64_t parent_id = 0;  // 0 = root
  uint64_t tid = 0;        // owning transaction; 0 for maintenance spans
  SpanKind kind = SpanKind::kCommit;
  uint32_t shard = 0;      // log shard the work ran against
  uint64_t start_us = 0;   // owning Env's clock
  uint64_t end_us = 0;     // >= start_us
  uint64_t arg = 0;        // kind-specific payload (see SpanKind)
};

// One rvm-spans-v1 line: {"span_id":..,"parent_id":..,"tid":..,
// "kind":"commit","shard":..,"start_us":..,"end_us":..,"arg":..}
std::string SpanJson(const Span& span);

// Full rvm-spans-v1 JSONL document: a header line naming the schema,
// source, and shard count, then one span per line.
std::string SpansJsonl(const std::vector<Span>& spans,
                       const std::string& source, uint32_t shards);

// The same spans as a Chrome trace-event JSON object loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: one "X" complete event per span on
// a per-shard track (pid 1, tid = shard), thread_name metadata per shard,
// and "s"/"f" flow events drawing an arrow from each 2PC participant
// prepare to its coordinator decision (matched by transaction id).
std::string SpansToChromeTrace(const std::vector<Span>& spans,
                               uint32_t shards);

// Fixed-capacity lock-free span ring. Writers claim a slot with one
// fetch_add and publish through a per-slot sequence word (odd while a write
// is in flight, even once complete); every payload field is a relaxed
// atomic, so concurrent wrap-around is a stale read, never a data race.
// Snapshot() drops slots it observes mid-overwrite.
class SpanRing {
 public:
  explicit SpanRing(size_t capacity);

  void Record(const Span& span);
  // Completed slots, ordered by (start_us, span_id). Does not clear.
  std::vector<Span> Snapshot() const;

  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  // Spans overwritten by wrap-around, or dropped because a newer ticket
  // already held their slot (recorded minus what a snapshot can still
  // observe).
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    // 0 = never written; 2t+1 while ticket t's write is in flight; 2t+2
    // once its payload is complete.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> tid{0};
    std::atomic<uint64_t> kind_shard{0};  // kind | shard << 8
    std::atomic<uint64_t> start_us{0};
    std::atomic<uint64_t> end_us{0};
    std::atomic<uint64_t> arg{0};
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

// Owns one SpanRing per log shard plus the slow-commit outlier store. The
// two capture policies run simultaneously: SampleTid implements the 1-in-N
// sampling knob, and RecordTree(tree, /*outlier=*/true) additionally
// retains the whole tree of a commit that blew the latency threshold
// (most recent `outlier_capacity` trees, embedded in the poison sidecar).
class SpanCollector {
 public:
  struct Options {
    uint32_t shards = 1;
    size_t ring_capacity = 1024;     // per shard
    uint32_t sample_rate = 0;        // sample 1-in-N tids; 0 = off
    uint64_t slow_threshold_us = 0;  // outlier recorder; 0 = off
    size_t outlier_capacity = 4;     // most recent K slow-commit trees
  };
  explicit SpanCollector(const Options& options);

  // True when tid falls in the 1-in-N sample.
  bool SampleTid(uint64_t tid) const {
    return sample_rate_ != 0 && tid % sample_rate_ == 0;
  }
  uint64_t slow_threshold_us() const { return slow_threshold_us_; }

  // Allocates the next span id (starts at 1; 0 means "no parent").
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Records one standalone span into its shard's ring.
  void Record(const Span& span);
  // Records a whole commit tree; when `outlier`, also retains the tree in
  // the bounded most-recent-outliers store.
  void RecordTree(const std::vector<Span>& tree, bool outlier);

  // Point-in-time merge of every shard's ring, ordered (start_us, span_id).
  std::vector<Span> Snapshot() const;
  // The retained slow-commit trees, oldest first.
  std::vector<std::vector<Span>> OutlierTrees() const;

  uint64_t recorded() const;
  uint64_t dropped() const;
  uint64_t slow_commits() const {
    return slow_commits_.load(std::memory_order_relaxed);
  }
  uint32_t shards() const { return shards_; }

 private:
  const uint32_t shards_;
  const uint32_t sample_rate_;
  const uint64_t slow_threshold_us_;
  const size_t outlier_capacity_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> slow_commits_{0};
  mutable std::mutex outlier_mu_;
  std::deque<std::vector<Span>> outliers_;  // outlier_mu_
};

}  // namespace rvm

#endif  // RVM_TELEMETRY_SPAN_H_
