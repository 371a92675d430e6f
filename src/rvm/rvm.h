// RVM: lightweight recoverable virtual memory.
//
// This is the library's public interface, a C++ rendering of the primitives
// in Figure 4 of "Lightweight Recoverable Virtual Memory" (Satyanarayanan et
// al., SOSP '93). One RvmInstance corresponds to one process using RVM: it
// owns a write-ahead log — optionally striped across several independent log
// shards (RvmOptions::log_shards, DESIGN.md §12) — and any number of mapped
// regions of external data segments.
//
// Guarantees (§1, §3.1):
//   - Atomicity: a transaction's changes apply all-or-nothing across
//     crashes.
//   - Permanence: after a kFlush commit the changes survive process and
//     machine failure; after a kNoFlush commit they survive once Flush()
//     returns ("bounded persistence").
//   - Serializability is NOT provided: concurrency control is the layer
//     above (the library is internally thread-safe, but transactions see
//     each other's in-memory writes immediately).
//
// Internally the instance runs a staged commit pipeline (see DESIGN.md,
// "Locking & group commit"): a state lock guards the in-memory bookkeeping,
// a log lock serializes appends and assigns each commit a durable sequence
// point, and flush committers then share log forces in a group-commit stage
// — one leader syncs once for every transaction appended before the force,
// so N concurrent flush commits cost far fewer than N forces and no thread
// holds the state lock across disk I/O.
//
// Typical use:
//
//   RvmInstance::CreateLog(env, "app.log", 8 << 20, /*overwrite=*/false);
//   RvmOptions options;
//   options.log_path = "app.log";
//   auto rvm = RvmInstance::Initialize(options);      // runs crash recovery
//   RegionDescriptor region{.segment_path = "app.seg", .length = 1 << 20};
//   rvm->Map(region);                                  // committed image
//   auto* data = static_cast<MyRoot*>(region.address);
//
//   TransactionId tid = rvm->BeginTransaction(RestoreMode::kRestore).value();
//   rvm->SetRange(tid, &data->counter, sizeof(data->counter));
//   data->counter++;
//   rvm->EndTransaction(tid, CommitMode::kFlush);
#ifndef RVM_RVM_RVM_H_
#define RVM_RVM_RVM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/os/file.h"
#include "src/os/http.h"
#include "src/rvm/checksum_map.h"
#include "src/rvm/cpu_model.h"
#include "src/rvm/gauges.h"
#include "src/rvm/log_device.h"
#include "src/rvm/log_image.h"
#include "src/rvm/options.h"
#include "src/rvm/page_vector.h"
#include "src/rvm/statistics.h"
#include "src/rvm/types.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/slo.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace.h"
#include "src/util/interval_set.h"
#include "src/util/status.h"

namespace rvm {

class RvmInstance {
 public:
  // create_log (§4.2): formats a fresh write-ahead log of `log_size` bytes.
  // With log_shards > 1 (DESIGN.md §12) it instead writes a shard manifest at
  // `path` and formats `log_shards` independent logs of `log_size` bytes each
  // at "<path>.shard<K>"; Initialize must then be called with a matching
  // RvmOptions::log_shards.
  static Status CreateLog(Env* env, const std::string& path,
                          uint64_t log_size, bool overwrite = false,
                          uint32_t log_shards = 1);

  // Shard count a log at `path` was created with: 1 for an ordinary log,
  // the manifest's count for a shard set. Tools use this to auto-configure.
  static StatusOr<uint32_t> DetectLogShards(Env* env, const std::string& path);

  // initialize (§4.2): opens the log named in `options` and performs crash
  // recovery (§5.1.2), bringing every external data segment named in the log
  // to its last committed state.
  static StatusOr<std::unique_ptr<RvmInstance>> Initialize(
      const RvmOptions& options);

  // terminate: flushes spooled no-flush transactions and writes a clean
  // status block. Fails if transactions are still uncommitted. Also invoked
  // (best-effort) by the destructor.
  Status Terminate();

  ~RvmInstance();
  RvmInstance(const RvmInstance&) = delete;
  RvmInstance& operator=(const RvmInstance&) = delete;

  // map (§4.1): maps [segment_offset, segment_offset+length) of the named
  // external data segment. On success region.address holds the base (RVM
  // allocates page-aligned memory when region.address is null; a caller-
  // provided address must be page-aligned). The mapped bytes are the
  // committed image. Restrictions per the paper: offsets and lengths are
  // multiples of the page size; no byte of a segment may be mapped twice;
  // mappings cannot overlap in memory.
  Status Map(RegionDescriptor& region);

  // unmap (§4.1): requires no uncommitted transactions on the region.
  // Flushes and truncates so the external data segment is current, then
  // releases the mapping. The region may afterwards be mapped elsewhere.
  Status Unmap(const RegionDescriptor& region);

  // begin_transaction (§4.2).
  StatusOr<TransactionId> BeginTransaction(RestoreMode mode);

  // set_range (§4.2): declares that [base, base+length) — which must lie
  // within a single mapped region — is about to be modified by `tid`.
  // Duplicate, overlapping, and adjacent ranges are coalesced (§5.2).
  Status SetRange(TransactionId tid, void* base, uint64_t length);

  // Convenience: SetRange followed by copying `value` into place.
  Status Modify(TransactionId tid, void* dest, const void* value,
                uint64_t length);

  // end_transaction (§4.2).
  Status EndTransaction(TransactionId tid, CommitMode mode);

  // §8 extension for distributed transactions: commits like EndTransaction
  // but also returns the transaction's old-value records, which a two-phase
  // commit library can preserve to build a compensating transaction if the
  // coordinator later aborts. Requires a kRestore transaction.
  struct OldValueRecord {
    std::string segment_path;
    uint64_t segment_offset = 0;
    std::vector<uint8_t> bytes;
  };
  Status EndTransactionWithUndo(TransactionId tid, CommitMode mode,
                                std::vector<OldValueRecord>* undo);

  // Translates a (segment, offset) location into its current mapped address,
  // or kNotFound if that part of the segment is not mapped. Used when
  // replaying preserved old-value records after a restart.
  StatusOr<void*> ResolveSegmentAddress(const std::string& segment_path,
                                        uint64_t segment_offset);

  // Inverse translation: the (segment, offset) a mapped address corresponds
  // to. kNotFound if the address is not in any mapped region.
  StatusOr<std::pair<std::string, uint64_t>> TranslateAddress(
      const void* address);

  // abort_transaction (§4.2): restores every set_range'd byte to its value
  // at the time of the set_range. Illegal for kNoRestore transactions.
  Status AbortTransaction(TransactionId tid);

  // flush (§4.2): blocks until all committed no-flush transactions are
  // forced to the log.
  Status Flush();

  // truncate (§4.2): blocks until all committed changes in the log have been
  // reflected to external data segments and the log is empty.
  Status Truncate();

  // query (§4.2): information about the region containing `address`.
  StatusOr<RegionQuery> Query(const void* address);

  // set_options (§4.2).
  void SetOptions(const RuntimeOptions& runtime);
  RuntimeOptions GetOptions();

  const RvmStatistics& statistics() const { return stats_; }

  // Continuous observability (DESIGN.md §11): a structured snapshot of the
  // instance's current log-space and pipeline state — log geometry and
  // utilization, reclaimable bytes, page-queue/spool/group-stage depths,
  // per-region page-vector counts, poison state — taken under the staged
  // locks (state, then log, then the group leaf), so the gauges within one
  // snapshot are mutually consistent. Works on a poisoned instance: gauges
  // are reads, not I/O.
  RvmGauges Introspect();

  // Records one gauges+counters sample into the StatsSampler ring (no-op
  // when RvmOptions::sample_capacity is 0). The background thread calls the
  // same path every sample_interval_us; explicit calls are how simulated
  // and deterministic-test runs build a time series.
  void SampleNow();

  // Writes the sampler ring as an rvm-timeseries-v3 JSONL document to
  // `path`. kFailedPrecondition when sampling is disabled or no samples have
  // been recorded. Terminate writes the same document to
  // "<log_path>.timeseries.jsonl" automatically; poison does so best-effort.
  Status DumpTimeseries(const std::string& path);

  // Live metrics export and health (DESIGN.md §16).
  //
  // The full OpenMetrics exposition — every counter, histogram, gauge, and
  // labeled per-shard/per-region series — rendered from a fresh snapshot.
  // This is the body a GET /metrics scrape returns and the text the
  // metrics_export_path file holds; callable any time, including on a
  // poisoned instance (gauges are reads, not I/O).
  std::string RenderMetrics();
  // Health evaluation: writes a small JSON body into `*body` and returns the
  // HTTP status a /healthz probe should serve — 200 when the instance is
  // healthy, 503 when it is poisoned or any SLO rule is currently firing.
  // The body carries "status", "poisoned", and (when the engine is
  // configured) the per-rule "slo" state array.
  int Healthz(std::string* body);
  // True while at least one SLO rule is firing (always false when
  // RvmOptions::slo_rules is empty).
  bool slo_firing() const { return slo_ != nullptr && slo_->any_firing(); }
  // The port the embedded HTTP listener is bound to, or -1 when the listener
  // is disabled. With metrics_http_port = 0 this is how tests learn the
  // ephemeral port the kernel picked.
  int metrics_port() const {
    return http_ != nullptr ? static_cast<int>(http_->port()) : -1;
  }

  // Flight recorder (DESIGN.md §10): the newest trace events, oldest first
  // (up to RvmOptions::trace_capacity). Dumping does not clear the ring.
  std::vector<TraceEvent> DumpTrace() const { return trace_.Events(); }
  // The same events rendered as JSONL, one event per line (the format
  // `rvmutl LOG trace` prints and the poison sidecar embeds).
  std::string DumpTraceJsonl() const { return TraceJsonl(trace_.Events()); }

  // Per-transaction span tracing (DESIGN.md §15). Enabled when either
  // RvmOptions::span_sample_rate or slow_commit_threshold_us is nonzero;
  // disabled, the layer does not exist (no memory, no clock reads, commit
  // behavior bit-identical).
  bool spans_enabled() const { return spans_ != nullptr; }
  // Point-in-time merge of every shard's span ring, ordered by
  // (start_us, span_id). Empty when spans are disabled.
  std::vector<Span> SpanSnapshot() const {
    return spans_ != nullptr ? spans_->Snapshot() : std::vector<Span>();
  }
  // The most recent slow-commit outlier trees, oldest first (also embedded
  // in the poison sidecar).
  std::vector<std::vector<Span>> SlowCommitSpans() const {
    return spans_ != nullptr ? spans_->OutlierTrees()
                             : std::vector<std::vector<Span>>();
  }
  // The span snapshot as an rvm-spans-v1 JSONL document / a Chrome
  // trace-event JSON object loadable in Perfetto (one track per shard, 2PC
  // flow arrows). kFailedPrecondition when spans are disabled.
  StatusOr<std::string> DumpSpansJsonl() const;
  StatusOr<std::string> DumpSpansChromeTrace() const;

  uint64_t log_bytes_in_use();
  uint64_t log_capacity();
  uint64_t spooled_bytes();

  // Fail-stop containment (DESIGN.md, "Failure model and error
  // containment" and §13). The instance is poisoned by the first
  // non-transient failure of a log append, force, or status write on shard 0
  // (the segment dictionary's allocation source of truth) or on the only
  // shard of a single-log instance: subsequent Begin/End/Flush/Truncate/
  // Map/Unmap fail fast with the original status and issue no further I/O.
  // Mapped regions stay readable and Abort/Query keep working — graceful
  // degradation to read-only. The same failure on shard k > 0 of a
  // multi-shard instance is contained to that shard (see shard_health);
  // the instance as a whole is NOT poisoned and healthy shards keep
  // committing. kLogFull and kUnavailable are transient and never poison.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire) ||
           shards_.front()->log->poisoned();
  }
  // The original failure, or OK if not poisoned.
  Status poison_status() const;

  uint32_t log_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  // Shard fault domains (DESIGN.md §13). Each log shard is an independent
  // fault domain: a permanent I/O failure on shard k > 0 quarantines that
  // shard alone. Regions striped to a quarantined shard fail SetRange /
  // commit fast with the original cause and stay readable; regions on the
  // other shards commit normally; cross-shard 2PC touching a quarantined
  // participant aborts cleanly before writing anything (presumed abort).
  enum class ShardHealth : uint32_t {
    kOk = 0,
    kRetrying = 1,     // a transient-error retry loop is in flight right now
    kQuarantined = 2,  // permanent failure contained to this shard
    kRepairing = 3,    // RepairShard() is rebuilding it
  };
  ShardHealth shard_health(uint32_t shard) const;
  // The failure that quarantined `shard`, or OK when it is healthy.
  Status shard_status(uint32_t shard) const;
  // Online repair of a quarantined shard (surfaced as `rvmutl repair`):
  // re-runs single-shard recovery against the healed or replaced
  // "<log_path>.shard<K>" file — forward tail scan, 2PC decision union with
  // the live sibling logs, newest-record-wins apply to the segments — then
  // reloads the shard's mapped regions from their now-current segments,
  // re-applies its spooled no-flush commits to memory, and re-attaches the
  // fresh device live. The instance stays open throughout; no transactions
  // may be uncommitted on the shard's regions. kFailedPrecondition when the
  // shard is not quarantined.
  Status RepairShard(uint32_t shard);

  // Data-segment integrity (DESIGN.md §14). Outcome of one scrub pass:
  // every page verified counts in pages_scrubbed; a page whose segment-file
  // image disagrees with the checksum sidecar counts in mismatches and then
  // in exactly one of repaired (its newest committed image was re-derived
  // from live log records and written back) or quarantined (no live
  // coverage — the owning shard was quarantined / the instance poisoned).
  // Pages with no recorded checksum are adopted as the baseline
  // (trust-on-first-read) and count only in pages_scrubbed.
  struct ScrubReport {
    uint64_t pages_scrubbed = 0;
    uint64_t mismatches = 0;
    uint64_t repaired = 0;
    uint64_t quarantined = 0;

    void Merge(const ScrubReport& other) {
      pages_scrubbed += other.pages_scrubbed;
      mismatches += other.mismatches;
      repaired += other.repaired;
      quarantined += other.quarantined;
    }
  };
  // Online scrub of every segment striped to `shard`, walking the segment
  // files (never the mapped memory, which may hold uncommitted changes) in
  // small batches under the staged locks, releasing them between batches so
  // commits are never stalled for more than one batch. A quarantined or
  // repairing shard is skipped (empty report). No-op when
  // RvmOptions::enable_page_checksums is false.
  StatusOr<ScrubReport> ScrubShard(uint32_t shard);
  // Scrubs just the segment-file range backing the mapped region containing
  // `address`.
  StatusOr<ScrubReport> ScrubRegion(const void* address);

 private:
  struct RegionState {
    SegmentId segment_id = kInvalidSegmentId;
    std::string segment_path;
    uint64_t segment_offset = 0;
    uint64_t length = 0;
    uint8_t* base = nullptr;
    bool owns_memory = false;
    PageVector pages;
    uint64_t active_transactions = 0;
    // The log shard this region's commits append to (DESIGN.md §12):
    // segment_id % log_shards, fixed for the life of the mapping.
    uint32_t shard = 0;

    RegionState(uint64_t num_pages) : pages(num_pages) {}
  };

  struct OldValue {
    RegionState* region;
    uint64_t offset;  // within the region
    std::vector<uint8_t> bytes;
  };

  struct TxnState {
    TransactionId tid = kInvalidTransactionId;
    RestoreMode mode = RestoreMode::kRestore;
    // Per-region coalesced modification ranges (region-relative offsets).
    std::map<RegionState*, IntervalSet> covered;
    // Verbatim ranges, kept only when intra-transaction optimization is
    // disabled (ablation benchmarks).
    std::map<RegionState*, std::vector<Interval>> raw_ranges;
    // Pages referenced, for uncommitted-reference accounting.
    std::map<RegionState*, std::set<uint64_t>> pages_touched;
    std::vector<OldValue> old_values;
  };

  // A committed no-flush transaction whose record has not reached the log.
  struct SpoolEntry {
    TransactionId tid;
    struct SegRange {
      SegmentId segment;
      uint64_t offset;       // within the segment
      uint64_t length;
      uint64_t data_offset;  // into `data`
    };
    std::vector<SegRange> ranges;
    std::vector<uint8_t> data;  // new values, concatenated
    // Pages holding this entry's changes (unflushed refs to release, dirty
    // bits to set at append time).
    std::vector<std::pair<RegionState*, uint64_t>> pages;
    uint64_t encoded_size = 0;
  };

  struct QueuedPage {
    RegionState* region;
    uint64_t page;
    uint64_t log_offset;  // first record referencing the page
  };

  // One log shard (DESIGN.md §12): an independent LogDevice with its own
  // append lock, group-commit stage, no-flush spool, and incremental-
  // truncation page queue. Regions stripe across shards by segment id, so
  // every structure keyed by a region's pages or records lives here. The
  // spool and page queue are guarded by state_mu_ (forward processing is
  // instance-wide); log_mu and the group fields follow the same discipline
  // their instance-wide predecessors did.
  struct LogShard {
    uint32_t index = 0;
    std::string path;
    std::unique_ptr<LogDevice> log;
    // Log lock: every LogDevice call on this shard; serializes appends (the
    // durable sequence point) and excludes truncation from in-flight group
    // forces. Acquired after state_mu_, in ascending shard order when more
    // than one is held.
    mutable std::mutex log_mu;
    // Group-commit stage (leaf lock; durable progress lives in the
    // LogDevice's atomic durable_lsn).
    std::mutex group_mu;
    std::condition_variable group_cv;
    bool group_leader_active = false;
    uint64_t group_waiters = 0;
    // Committed no-flush transactions not yet appended (state_mu_).
    std::deque<SpoolEntry> spool;
    uint64_t spool_bytes = 0;
    // Incremental-truncation queue, ordered by log offset (state_mu_).
    std::deque<QueuedPage> page_queue;
    // Checksum maps of the segments striped to this shard (DESIGN.md §14),
    // loaded from their "<segment>.chk" sidecars on first use and kept equal
    // to them by every in-process sidecar writer (log_mu).
    std::map<SegmentId, SegmentChecksumMap> checksum_maps;
    // Pages recovery applied whose checksums Map takes from the bytes it
    // copies in (DESIGN.md §14), per segment; each is unknown in
    // checksum_maps until then (log_mu).
    std::map<SegmentId, std::set<uint64_t>> pending_baselines;
    // True when the live log holds 2PC decision records (state_mu_). A
    // decision may be the only durable evidence that a cross-shard
    // transaction committed — participants' markers are appended unforced —
    // so truncation must force the sibling logs before discarding it.
    bool holds_decisions = false;
    // Per-shard activity counters surfaced through ShardGauges; the
    // instance-wide RvmStatistics aggregates across shards.
    std::atomic<uint64_t> records_appended{0};
    std::atomic<uint64_t> forces{0};
    std::atomic<uint64_t> prepares{0};
    std::atomic<uint64_t> truncations{0};
    // Fault-domain state (DESIGN.md §13): a ShardHealth value. kRetrying is
    // never stored here (it is derived from the device's retrying() flag);
    // quarantine entry is first-wins under poison_mu_, repair transitions
    // happen under state_mu_. The atomic lets commit gates and gauges read
    // it lock-free. quarantine_cause is written once before the release
    // store of kQuarantined (and rewritten only under poison_mu_ by a
    // failed repair).
    std::atomic<uint32_t> health{0};
    Status quarantine_cause;
  };

  RvmInstance(const RvmOptions& options,
              std::vector<std::unique_ptr<LogShard>> shards);

  // Locking discipline (see DESIGN.md, "Locking & group commit" and §12):
  //   state_mu_      — transactions, regions, every shard's spool and page
  //                    queue, segment files, runtime options.
  //   shard.log_mu   — every LogDevice call on that shard. Acquired after
  //                    state_mu_; multiple shard log locks are acquired in
  //                    ascending shard order.
  //   shard.group_mu — leader/follower coordination only; a leaf lock,
  //                    never held while acquiring the others.
  // Methods suffixed `Locked` require state_mu_; those suffixed
  // `BothLocked` require state_mu_ plus the named shard's log_mu.

  LogShard& ShardFor(SegmentId id) {
    return *shards_[id % shards_.size()];
  }
  LogShard& ShardFor(const RegionState& region) {
    return *shards_[region.shard];
  }

  // --- recovery & truncation (rvm_truncation.cc) ---
  Status RecoverLocked();
  // How a log apply records the checksums of the pages it wrote
  // (DESIGN.md §14).
  enum class ApplyBaselines {
    // Read the pages back: their segments may be mapped, so only the file
    // says what is durable (epoch truncation, RepairShard).
    kReadBack,
    // Forget them and leave them pending: nothing is mapped yet, and Map
    // takes each page's checksum from the bytes it copies in (recovery at
    // Initialize).
    kAtMap,
  };
  // Applies one shard's image to its segments under the recovery counters
  // (no status change; the caller empties the log only after every shard's
  // apply is durable).
  Status RecoverShardBothLocked(LogShard& shard, const LogImage& image,
                                ApplyBaselines baselines,
                                std::map<SegmentId, std::unique_ptr<File>>& files);
  // Reads one shard's live log forward into `image` (LogDevice::
  // ScanLiveForward); with `extend_tail` (recovery) the read goes on past
  // the status block's tail and `found` receives the number of records it
  // discovered there. A failed read fail-stops the shard.
  Status ScanLogImageBothLocked(LogShard& shard, bool extend_tail,
                                LogImage* image, uint64_t* found = nullptr);
  Status TruncateEpochLocked(LogShard& shard);
  Status TruncateEpochBothLocked(LogShard& shard);
  // Forces every sibling shard's log if this shard's live log holds 2PC
  // decision records. A coordinator must not durably forget an outcome
  // while a participant's only evidence (its unforced commit marker) is
  // still volatile; truncation calls this before MarkEmpty/head moves.
  // Takes each sibling's log_mu one at a time; safe because every
  // multi-log-lock path runs under state_mu_ (held here).
  Status ForceSiblingEvidenceBothLocked(LogShard& shard);
  // Epoch-truncates every shard (Truncate(), Unmap()).
  Status TruncateAllEpochLocked();
  Status MaybeTruncateLocked();
  Status IncrementalTruncateLocked(LogShard& shard);
  Status IncrementalTruncateBothLocked(LogShard& shard, bool* epoch_fallback);
  bool NeedsTruncationLocked(const LogShard& shard) const;
  bool AnyNeedsTruncationLocked() const;
  void TruncationThreadMain();
  void StopTruncationThread();
  // Writes one shard's newest-wins image of its live log to the external
  // data segments in offset order, syncs them and updates their checksum
  // maps as `baselines` says: the shared core of recovery, epoch truncation
  // and shard repair. Counters and the apply histogram (one sample per
  // pass) distinguish the callers. `files` is the segment-file cache to use
  // — segment_files_ normally, a thread-private cache during parallel
  // recovery.
  Status ApplyLogToSegmentsBothLocked(
      LogShard& shard, const LogImage& image, ApplyBaselines baselines,
      StatCounter* records_applied, StatCounter* bytes_applied,
      LatencyHistogram* apply_us,
      std::map<SegmentId, std::unique_ptr<File>>& files);
  // Copies one shard's live records into a fresh, rvmutl-readable log (§6).
  Status ArchiveLiveLogBothLocked(LogShard& shard);

  // Stack-side commit span context (DESIGN.md §15), filled along the commit
  // path only when the span layer is enabled (`active`). Every field reuses
  // a timestamp the path already takes for the phase histograms; the scope
  // is materialized into a span tree at ack time when the commit is sampled
  // or slower than the outlier threshold, and simply discarded otherwise.
  // An inactive scope costs one branch per site.
  struct CommitSpanScope {
    bool active = false;
    uint64_t tid = 0;
    uint64_t start_us = 0;      // EndTransaction entry
    uint64_t locked_us = 0;     // state lock acquired
    uint64_t append_end_us = 0; // bookkeeping + append done
    uint32_t shard = 0;         // single-shard commit: the target shard
    // One per group-commit force this commit led (dwell may be absent).
    struct ForceLeg {
      uint32_t shard = 0;
      uint64_t dwell_start_us = 0;
      uint64_t dwell_end_us = 0;
      uint64_t sync_start_us = 0;
      uint64_t sync_end_us = 0;
    };
    std::vector<ForceLeg> forces;
    // Cross-shard 2PC intervals: per-participant prepare (append through
    // its force) and the coordinator decision (append through the decision
    // force — the commit point).
    struct TwoPcLeg {
      uint32_t shard = 0;
      bool decision = false;
      uint64_t start_us = 0;
      uint64_t end_us = 0;
    };
    std::vector<TwoPcLeg> two_pc;
  };
  // Builds and records the span tree for one acked commit. Call only with
  // spans_ non-null and `scope.active`; `outlier` decides retention in the
  // slow-commit store.
  void EmitCommitSpans(const CommitSpanScope& scope, uint64_t end_us,
                       uint64_t elapsed_us);
  // Records one standalone maintenance span (truncation passes, recovery
  // phases; tid 0). No-op when spans are disabled.
  void EmitMaintenanceSpan(SpanKind kind, uint32_t shard, uint64_t start_us,
                           uint64_t end_us, uint64_t arg);

  // --- commit path (rvm.cc) ---
  // Shared body of EndTransaction and EndTransactionWithUndo: bookkeeping
  // and appends under state_mu_, then the group-commit stage with no locks.
  Status EndTransactionInternal(TransactionId tid, CommitMode mode,
                                std::vector<OldValueRecord>* undo);
  // On return *flush_targets holds the (shard, LSN) pairs the caller must
  // take through the group-commit stage. *durable_inline reports a
  // cross-shard commit, which is already durable on return (the 2PC forces
  // run under the locks) and leaves flush_targets empty.
  Status EndTransactionLocked(
      TxnState& txn, CommitMode mode,
      std::vector<std::pair<LogShard*, uint64_t>>* flush_targets,
      bool* durable_inline, CommitSpanScope* span_scope);
  // Builds one spool entry per participating shard, ascending shard order.
  std::vector<std::pair<uint32_t, SpoolEntry>> BuildSpoolEntriesLocked(
      TxnState& txn);
  void ReleaseUncommittedLocked(TxnState& txn);
  Status InterTransactionOptimizeLocked(LogShard& shard, const TxnState& txn);
  Status AppendSpoolEntryLocked(LogShard& shard, SpoolEntry& entry,
                                uint8_t flags = 0);
  // Appends a zero-range 2PC control record (decision / commit marker),
  // with the same log-full reclaim-and-retry policy as data appends.
  Status AppendControlRecordLocked(LogShard& shard, TransactionId tid,
                                   uint8_t flags);
  // Commits a transaction spanning several shards through the internal
  // two-phase protocol (src/dtx/shard_2pc.h). Durable on success.
  Status CommitCrossShardLocked(
      TxnState& txn, std::vector<std::pair<uint32_t, SpoolEntry>>& entries,
      CommitSpanScope* span_scope);
  // Forces one shard synchronously under its log lock (2PC, direct flush).
  Status ForceShardBothLocked(LogShard& shard);
  // Appends every spooled no-flush record on `shard` and reports the LSN
  // the caller must make durable (the appended LSN even when the spool was
  // empty, so Flush also waits out commits still in the group stage).
  Status DrainSpoolLocked(LogShard& shard, uint64_t* target_lsn);
  // Drain + synchronous force of every shard under the locks, for paths
  // that must leave everything durable before continuing (Terminate, Unmap,
  // Truncate).
  Status FlushDirectLocked();

  // --- group-commit stage (no locks held on entry) ---
  // Blocks until the shard's durable_lsn >= target_lsn. Whoever finds no
  // force in flight becomes leader, optionally dwells for more arrivals
  // (max_batch / max_wait_us), and issues one Sync for the whole batch —
  // the commit's only log force, at every shard count; everyone else waits
  // on the shard's group_cv. No status write: recovery forward-scans past
  // the last written status block (§5.1.1).
  Status CommitDurable(LogShard& shard, uint64_t target_lsn,
                       uint64_t max_batch, uint64_t max_wait_us,
                       CommitSpanScope* span_scope = nullptr);
  // Wakes group-stage waiters after a log force outside the leader protocol
  // (truncation, direct flush) advanced the durable LSN.
  void NotifyDurableWaiters(LogShard& shard);
  Status MaybeTruncate();

  // --- observability (rvm.cc) ---
  // The body of Introspect once state_mu_ is held; acquires every shard's
  // log lock (ascending) itself.
  RvmGauges IntrospectLocked();
  // Renders one sampler entry: gauges (via Introspect) plus a statistics
  // snapshot. Acquires the staged locks; never call it while holding them.
  TimeseriesSample TakeTimeseriesSample();
  // Writes the sampler ring to `path`; shared by DumpTimeseries, Terminate,
  // and the poison path. Touches only the sampler ring and env_, so callable
  // from any lock state.
  Status WriteTimeseriesFile(const std::string& path);
  // Request router for the embedded HTTP listener (DESIGN.md §16): /metrics
  // and /healthz. Runs on the listener thread; takes the staged locks via
  // Introspect, never the listener's own state.
  HttpResponse HandleHttp(const HttpRequest& request);

  // --- failure containment ---
  // Enters fail-stop mode with `cause` (first call wins; later calls are
  // no-ops). Callable from any thread with any lock state: it synchronizes
  // on its own leaf mutex and publishes the cause with a release store.
  void Poison(const Status& cause);
  // Counts an observed kIoError/kCorruption in stats_.io_errors.
  void NoteIoError(const Status& status);
  // Best-effort flight-recorder dump to "<log_path>.poison.json" (trace tail
  // plus a statistics snapshot in the telemetry schema). Called once from
  // Poison; write failures are swallowed — the instance is already dying and
  // the sidecar must never mask the original cause.
  void DumpPoisonSidecar(const Status& cause);
  // Renders the retained slow-commit outlier trees (DESIGN.md §15) as extra
  // sidecar fields (",\"spans_schema\":...,\"slow_commit_spans\":[[...]]"),
  // or an empty string when spans are disabled. Lock-free like the rest of
  // the sidecar path.
  std::string OutlierSpansJson() const;
  // Entry gate: returns the poison cause if the instance is poisoned,
  // adopting a self-poisoned device's cause on first observation — shard 0's
  // as instance death, any other shard's as a quarantine (which does NOT
  // fail the call: healthy shards keep serving). Shards are scanned in
  // ascending order, so when several fail concurrently the lowest failed
  // shard's cause deterministically wins. Lock-free.
  Status FailIfPoisoned();

  // --- shard fault domains (DESIGN.md §13) ---
  // Contains a permanent failure to `shard`: shard 0 (home of the segment
  // dictionary's source of truth) and the only shard of a single-log
  // instance escalate to instance Poison; any other shard is quarantined —
  // its device poisons, its regions fail fast, the siblings keep committing.
  // First failure wins. Callable from any thread with any lock state.
  void PoisonShard(LogShard& shard, const Status& cause);
  // Best-effort "<shard path>.quarantine.json" sidecar in the telemetry
  // schema (the shard-scoped analogue of DumpPoisonSidecar).
  void DumpQuarantineSidecar(const LogShard& shard, const Status& cause);
  // Lock-free per-shard counter rows embedded in both sidecars.
  std::string ShardRowsJson() const;
  // Commit-path gate: the quarantine cause when `shard` is quarantined or
  // under repair, OK otherwise. Lock-free.
  Status FailIfShardUnusable(const LogShard& shard);
  // RepairShard body; requires state_mu_ (rvm_truncation.cc).
  Status RepairShardLocked(uint32_t index);
  // The device retry policy derived from runtime_ (io_retry_* knobs), with
  // an on_retry hook that counts into stats_.io_retries.
  LogDevice::RetryPolicy RetryPolicyFromRuntime();

  // --- data-segment integrity (rvm_integrity.cc, DESIGN.md §14) ---
  // Segment path for `id` from the shard's mirrored dictionary, falling
  // back to shard 0's (the allocation source of truth).
  StatusOr<std::string> SegmentPathBothLocked(LogShard& shard, SegmentId id);
  // The shard-owned checksum map of segment `id` (one of the shard's own
  // segments), loaded from its sidecar on first use.
  StatusOr<SegmentChecksumMap*> ChecksumMapBothLocked(LogShard& shard,
                                                      SegmentId id);
  // Persists the cached map of segment `id`. A failed save drops the cached
  // map (the sidecar's durable state is unknown; the next user reloads it)
  // and fail-stops the shard.
  Status SaveChecksumMapBothLocked(LogShard& shard, SegmentId id);
  // Records and persists the checksum-map entries for pages of segment `id`
  // that a truncation or repair pass just wrote: `page_crcs` holds CRCs
  // taken from the exact page images handed to WriteAt (whole-page
  // incremental writeback); the pages overlapped by `written` (file-absolute
  // byte intervals of partial-page log apply) are read back from `file`, one
  // read per run of consecutive pages, so their entries describe the
  // durable bytes. Callers invoke it after the segment writes are synced
  // and before the log head advances — the ordering the §14 atomicity
  // argument rests on. No-op when checksums are disabled or nothing was
  // written.
  Status RefreshPageChecksumsBothLocked(
      LogShard& shard, SegmentId id, File& file,
      const std::vector<Interval>& written,
      const std::map<uint64_t, uint32_t>& page_crcs);
  // Recovery's half of the same step: marks the pages overlapped by
  // `written` unknown, persists that, and leaves them pending for Map
  // (ApplyLogToSegmentsBothLocked with ApplyBaselines::kAtMap). Same
  // ordering: after the segment syncs, before the head moves.
  Status DeferPageChecksumsBothLocked(LogShard& shard, SegmentId id,
                                      const std::vector<Interval>& written);
  // Reads back the pages still pending on this shard's segments (recovered,
  // never mapped since) and records them, so a clean shutdown leaves every
  // applied page known (Terminate).
  Status RecordPendingChecksumsBothLocked(LogShard& shard);
  // Re-derives the newest committed image of `page` of segment `id` from
  // the shard's live log records (newest record wins, with the prepare
  // filter of live truncation: what ApplyLogToSegmentsBothLocked writes).
  // When live records cover the whole page, the image is written back,
  // synced, and recorded in `chk`; returns true. Returns false when
  // coverage is partial or absent (the page's newest image predates the
  // last truncation).
  StatusOr<bool> TryRepairPageFromLogBothLocked(LogShard& shard, SegmentId id,
                                                File& file, uint64_t page,
                                                uint64_t page_len,
                                                SegmentChecksumMap* chk);
  // Scrub core shared by ScrubShard and ScrubRegion: verifies the page
  // range [first_page, page_end) of segment `id` (page_end = 0 means to
  // the end of the file) in bounded batches, taking state_mu_ + the
  // owning shard's log_mu per batch and releasing them in between.
  // Mismatched pages go through TryRepairPageFromLogBothLocked, then
  // PoisonShard escalation; the scrub of this segment stops at the first
  // escalation.
  Status ScrubSegmentPages(uint32_t shard_index, SegmentId id,
                           const std::string& segment_path,
                           uint64_t first_page, uint64_t page_end,
                           ScrubReport* report);
  // Map's checksum step over the just-copied region image in `base`. With
  // RvmOptions::VerifyOnMap::kEager it first verifies every known page
  // against the sidecar, repairing from the log (file, memory, and sidecar
  // all patched) or escalating. Then every page recovery left pending and
  // still unknown takes the CRC of its copied-in bytes, and the map is
  // saved once. Runs under state_mu_ before the region is registered.
  Status ChecksumRegionOnMapLocked(SegmentId id, const std::string& seg_path,
                                   File& file, uint64_t segment_offset,
                                   uint64_t length, uint8_t* base);

  // --- mapping helpers ---
  StatusOr<RegionState*> FindRegionLocked(const void* address,
                                          uint64_t length);
  // Looks up or allocates the id for `path`. The segment dictionary is
  // mirrored into every shard's status block (shard 0's next_segment_id is
  // the allocation source of truth); acquires each shard's log_mu itself.
  StatusOr<SegmentId> SegmentIdForLocked(const std::string& path);
  // Opens the segment named `id` in the given shard's mirrored dictionary
  // (the caller holds that shard's log_mu), falling back to shard 0's —
  // the allocation source of truth — and healing this shard's mirror when
  // a crash between Map's per-shard status writes left it behind.
  StatusOr<std::unique_ptr<File>> OpenSegmentBothLocked(LogShard& shard,
                                                        SegmentId id);

  // Records a trace event stamped with env_->NowMicros(). Callable with any
  // lock state (the recorder has its own leaf mutex); a no-op when tracing
  // is disabled.
  void Trace(TraceEventType type, uint64_t arg0 = 0, uint64_t arg1 = 0,
             uint32_t shard = 0) {
    if (trace_.capacity() != 0) {
      trace_.Record(env_->NowMicros(), type, arg0, arg1, shard);
    }
  }

  Env* env_;
  CpuMeter cpu_;
  uint64_t page_size_;
  // The log shards (DESIGN.md §12). Size is fixed at Initialize; a size of 1
  // is the original single-log instance (shard 0's path is log_path_ itself
  // and its on-disk format is unchanged). The vector itself is immutable
  // after construction; each element's mutable state follows the locking
  // discipline above.
  std::vector<std::unique_ptr<LogShard>> shards_;
  // Immutable after construction, so Poison (which may run under any lock
  // combination) can read them without state_mu_.
  const std::string log_path_;
  const bool poison_dump_enabled_;
  // Data-segment integrity configuration (DESIGN.md §14), fixed at
  // Initialize.
  const bool checksums_enabled_;
  const RvmOptions::VerifyOnMap verify_on_map_;

  // State lock: in-memory bookkeeping (fields below it, plus runtime_ and
  // every shard's spool / page queue).
  std::mutex state_mu_;

  RuntimeOptions runtime_;
  bool terminated_ = false;
  // Background truncation thread state (TruncationMode::kBackground).
  TruncationMode truncation_mode_;
  std::thread truncation_thread_;
  std::condition_variable truncation_cv_;
  bool stop_truncation_ = false;
  TransactionId next_tid_ = 1;
  std::map<TransactionId, TxnState> transactions_;
  // Regions ordered by base address for containment lookup.
  std::map<uintptr_t, std::unique_ptr<RegionState>> regions_;
  // Cross-shard transactions aborted after their prepare records were
  // appended (presumed abort, DESIGN.md §12). Live truncation skips prepare
  // records whose tid is in this set; recovery empties every shard's log, so
  // the set never needs to persist. Ids are per-lifetime (next_tid_ restarts
  // at 1 after recovery has discarded all old records).
  std::set<TransactionId> aborted_gtids_;
  // Segment files kept open for truncation/recovery writes.
  std::map<SegmentId, std::unique_ptr<File>> segment_files_;

  // Fail-stop state. The cause is written once under poison_mu_ and then
  // published by the release store of poisoned_; readers pair with an
  // acquire load, so no lock is needed to read it afterwards.
  std::mutex poison_mu_;
  std::atomic<bool> poisoned_{false};
  Status poison_cause_;

  RvmStatistics stats_;
  // Trace ring (leaf mutex of its own; safe from any thread / lock state).
  TraceRecorder trace_;
  // Time-series sampler (DESIGN.md §11); null when sample_capacity is 0.
  // Owns its ring behind a leaf mutex; its background thread (when
  // sample_interval_us > 0) pulls samples through TakeTimeseriesSample and
  // is stopped before Terminate takes the state lock.
  std::unique_ptr<StatsSampler> sampler_;
  // Span collector (DESIGN.md §15); null unless span_sample_rate or
  // slow_commit_threshold_us is set. Lock-free per-shard rings, safe from
  // any thread / lock state.
  std::unique_ptr<SpanCollector> spans_;
  // SLO engine (DESIGN.md §16); null when RvmOptions::slo_rules is empty.
  // Evaluated on every sampler tick; its own leaf mutex makes StateJson
  // callable from the poison path.
  std::unique_ptr<SloEngine> slo_;
  // Exposition file path (RvmOptions::metrics_export_path); empty disables
  // the file export. Immutable after construction, read on the sampler tick.
  const std::string metrics_export_path_;
  // Embedded HTTP listener (DESIGN.md §16); null unless
  // RvmOptions::metrics_http_port >= 0. Started after recovery, stopped at
  // the top of Terminate (before teardown invalidates what handlers read).
  std::unique_ptr<HttpServer> http_;
};

// RAII transaction helper. Aborts on destruction unless committed.
class Transaction {
 public:
  Transaction(RvmInstance& rvm, RestoreMode mode = RestoreMode::kRestore)
      : rvm_(rvm) {
    StatusOr<TransactionId> tid = rvm.BeginTransaction(mode);
    if (tid.ok()) {
      tid_ = *tid;
    } else {
      status_ = tid.status();
    }
  }

  ~Transaction() {
    if (tid_ != kInvalidTransactionId && !finished_) {
      (void)rvm_.AbortTransaction(tid_);
    }
  }
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  TransactionId id() const { return tid_; }

  Status SetRange(void* base, uint64_t length) {
    return rvm_.SetRange(tid_, base, length);
  }
  template <typename T>
  Status SetRange(T* object) {
    return rvm_.SetRange(tid_, object, sizeof(T));
  }

  Status Commit(CommitMode mode = CommitMode::kFlush) {
    finished_ = true;
    return rvm_.EndTransaction(tid_, mode);
  }
  Status Abort() {
    finished_ = true;
    return rvm_.AbortTransaction(tid_);
  }

 private:
  RvmInstance& rvm_;
  TransactionId tid_ = kInvalidTransactionId;
  bool finished_ = false;
  Status status_;
};

}  // namespace rvm

#endif  // RVM_RVM_RVM_H_
