#include "src/rvm/rvm.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/dtx/shard_2pc.h"
#include "src/rvm/exposition.h"
#include "src/util/logging.h"

namespace rvm {

namespace {
// Newest trace events embedded in a poison sidecar; the full ring would
// bloat the dump without adding postmortem value past a few dozen txns.
constexpr size_t kPoisonDumpTraceEvents = 64;
}  // namespace

Status RvmInstance::CreateLog(Env* env, const std::string& path,
                              uint64_t log_size, bool overwrite,
                              uint32_t log_shards) {
  if (env == nullptr) {
    env = GetRealEnv();
  }
  if (log_shards == 1) {
    // Unchanged single-log format: `path` is the log itself.
    return LogDevice::Create(env, path, log_size, overwrite);
  }
  if (log_shards < 1 || log_shards > kMaxLogShards) {
    return InvalidArgument("log_shards out of range [1, " +
                           std::to_string(kMaxLogShards) + "]");
  }
  // Multi-shard (DESIGN.md §12): a manifest block at `path` names the shard
  // count; the shards themselves are ordinary logs at "<path>.shard<K>".
  // The manifest goes first so a crash mid-create leaves either no manifest
  // (nothing to open) or a manifest whose shard opens fail cleanly.
  LogManifest manifest;
  manifest.shard_count = log_shards;
  manifest.shard_log_size = log_size;
  RVM_RETURN_IF_ERROR(LogDevice::WriteManifest(env, path, manifest, overwrite));
  for (uint32_t shard = 0; shard < log_shards; ++shard) {
    RVM_RETURN_IF_ERROR(
        LogDevice::Create(env, ShardLogPath(path, shard), log_size, overwrite));
  }
  return OkStatus();
}

StatusOr<uint32_t> RvmInstance::DetectLogShards(Env* env,
                                                const std::string& path) {
  if (env == nullptr) {
    env = GetRealEnv();
  }
  return LogDevice::DetectShardCount(env, path);
}

StatusOr<std::unique_ptr<RvmInstance>> RvmInstance::Initialize(
    const RvmOptions& options) {
  RVM_RETURN_IF_ERROR(ValidateOptions(options));
  Env* env = options.env != nullptr ? options.env : GetRealEnv();
  // The shard count is a property of the on-disk log, not a tunable: the
  // requested count must match what CreateLog wrote or striping (segment_id
  // mod shard count) would scatter records into the wrong logs.
  RVM_ASSIGN_OR_RETURN(uint32_t on_disk_shards,
                       LogDevice::DetectShardCount(env, options.log_path));
  if (on_disk_shards != options.log_shards) {
    return InvalidArgument(
        "log at " + options.log_path + " was created with " +
        std::to_string(on_disk_shards) + " shard(s) but options.log_shards is " +
        std::to_string(options.log_shards));
  }
  std::vector<std::unique_ptr<LogShard>> shards;
  shards.reserve(options.log_shards);
  for (uint32_t index = 0; index < options.log_shards; ++index) {
    auto shard = std::make_unique<LogShard>();
    shard->index = index;
    shard->path = options.log_shards == 1 ? options.log_path
                                          : ShardLogPath(options.log_path, index);
    RVM_ASSIGN_OR_RETURN(shard->log, LogDevice::Open(env, shard->path));
    shards.push_back(std::move(shard));
  }
  RvmOptions resolved = options;
  resolved.env = env;
  std::unique_ptr<RvmInstance> instance(
      new RvmInstance(resolved, std::move(shards)));
  {
    std::lock_guard<std::mutex> lock(instance->state_mu_);
    RVM_RETURN_IF_ERROR(instance->RecoverLocked());
  }
  if (instance->truncation_mode_ == TruncationMode::kBackground) {
    instance->truncation_thread_ =
        std::thread([raw = instance.get()] { raw->TruncationThreadMain(); });
  }
  // The sampler thread (if any) starts only after recovery: a sample taken
  // mid-recovery would show half-applied state under locks recovery holds.
  if (instance->sampler_ != nullptr) {
    instance->sampler_->Start();
  }
  // The HTTP listener likewise starts only once recovery has produced a
  // consistent instance; its handlers snapshot through the staged locks.
  if (resolved.metrics_http_port >= 0) {
    RVM_ASSIGN_OR_RETURN(
        instance->http_,
        HttpServer::Start(static_cast<uint16_t>(resolved.metrics_http_port),
                          [raw = instance.get()](const HttpRequest& request) {
                            return raw->HandleHttp(request);
                          }));
  }
  return instance;
}

// ---------------------------------------------------------------------------
// Failure containment
// ---------------------------------------------------------------------------

void RvmInstance::NoteIoError(const Status& status) {
  if (status.code() == ErrorCode::kIoError ||
      status.code() == ErrorCode::kCorruption) {
    ++stats_.io_errors;
    Trace(TraceEventType::kIoError, static_cast<uint64_t>(status.code()));
  }
}

void RvmInstance::Poison(const Status& cause) {
  std::lock_guard<std::mutex> lock(poison_mu_);
  if (poisoned_.load(std::memory_order_relaxed)) {
    return;  // first failure wins; keep the original cause
  }
  NoteIoError(cause);
  ++stats_.poisoned;
  poison_cause_ = cause;
  poisoned_.store(true, std::memory_order_release);
  RVM_LOG_WARN("rvm instance poisoned (fail-stop): %s",
               cause.ToString().c_str());
  Trace(TraceEventType::kPoison, static_cast<uint64_t>(cause.code()));
  if (poison_dump_enabled_) {
    DumpPoisonSidecar(cause);
  }
  if (sampler_ != nullptr && sampler_->recorded() > 0) {
    // Best-effort like the sidecar: flush whatever the ring already holds.
    // No new sample is taken — Poison may run under any lock combination
    // and Introspect needs the staged locks, whereas the ring dump touches
    // only the sampler's own leaf mutex.
    (void)WriteTimeseriesFile(log_path_ + ".timeseries.jsonl");
  }
}

// Lock-free per-shard counter rows for a poison or quarantine sidecar.
// Touches only LogShard atomics and the device's own atomics, so it is
// callable from any lock state like its callers.
std::string RvmInstance::ShardRowsJson() const {
  std::string rows = "\"shards\":[";
  for (size_t k = 0; k < shards_.size(); ++k) {
    const auto& shard = *shards_[k];
    if (k > 0) {
      rows += ',';
    }
    char row[224];
    std::snprintf(
        row, sizeof(row),
        "{\"shard\":%u,\"records\":%llu,\"forces\":%llu,\"prepares\":%llu,"
        "\"truncations\":%llu,\"retries\":%llu,\"poisoned\":%u,\"health\":%u}",
        shard.index,
        static_cast<unsigned long long>(
            shard.records_appended.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            shard.forces.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            shard.prepares.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            shard.truncations.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(shard.log->retries()),
        shard.log->poisoned() ? 1u : 0u,
        shard.health.load(std::memory_order_acquire));
    rows += row;
  }
  rows += ']';
  return rows;
}

std::string RvmInstance::OutlierSpansJson() const {
  if (spans_ == nullptr) {
    return "";
  }
  std::string out = ",\"spans_schema\":\"";
  out += kSpansSchemaVersion;
  out += "\",\"slow_commit_spans\":[";
  const std::vector<std::vector<Span>> trees = spans_->OutlierTrees();
  for (size_t t = 0; t < trees.size(); ++t) {
    if (t > 0) {
      out += ',';
    }
    out += '[';
    for (size_t i = 0; i < trees[t].size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += SpanJson(trees[t][i]);
    }
    out += ']';
  }
  out += ']';
  return out;
}

void RvmInstance::DumpPoisonSidecar(const Status& cause) {
  // Flight-recorder dump (DESIGN.md §10). Everything here is best-effort:
  // the instance is entering fail-stop and the sidecar must never mask or
  // compound the original failure, so every error is swallowed. Only trace_
  // (own leaf mutex), stats_ (lock-free), and immutable members are touched,
  // which keeps this callable from any lock state.
  //
  // failed_shard attributes the death to the lowest shard whose device is
  // poisoned (the deterministic winner FailIfPoisoned would adopt), or -1
  // when the poison came from the instance itself (e.g. VM divergence after
  // a failed no-restore commit).
  int failed_shard = -1;
  for (const auto& shard : shards_) {
    if (shard->log->poisoned()) {
      failed_shard = static_cast<int>(shard->index);
      break;
    }
  }
  std::string trace_json = "\"reason\":\"" + JsonEscape(cause.ToString()) +
                           "\",\"failed_shard\":" +
                           std::to_string(failed_shard) + "," +
                           ShardRowsJson() + ",\"trace\":[";
  const std::vector<TraceEvent> tail = trace_.Tail(kPoisonDumpTraceEvents);
  for (size_t i = 0; i < tail.size(); ++i) {
    if (i > 0) {
      trace_json += ',';
    }
    trace_json += TraceEventJson(tail[i]);
  }
  trace_json += ']';
  trace_json += OutlierSpansJson();
  if (slo_ != nullptr) {
    // Live rule state at death (engine lock is a leaf, so this is callable
    // under poison_mu_ like the rest of the sidecar path).
    trace_json += ",\"slo\":" + slo_->StateJson();
  }
  const std::string document = TelemetryJsonDocument(
      "poison-dump", {StatisticsJsonRun("at-poison", stats_.Snapshot())},
      trace_json);
  StatusOr<std::unique_ptr<File>> file =
      env_->Open(log_path_ + ".poison.json", OpenMode::kTruncate);
  if (!file.ok()) {
    return;
  }
  (void)(*file)->WriteAt(
      0, std::span<const uint8_t>(
             reinterpret_cast<const uint8_t*>(document.data()),
             document.size()));
}

void RvmInstance::PoisonShard(LogShard& shard, const Status& cause) {
  if (shard.index == 0 || shards_.size() == 1) {
    // Shard 0 carries the segment dictionary's allocation source of truth
    // and the single shard of a 1-log instance IS the instance; neither can
    // be quarantined around. Escalate to instance death.
    Poison(cause);
    return;
  }
  // Make sure the device itself is poisoned so its own fast paths (and a
  // concurrent group member waiting on the leader) fail-stop too; first
  // failure wins inside the device as well.
  shard.log->Poison(cause);
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    if (shard.health.load(std::memory_order_relaxed) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      return;  // first failure wins; also preserves kRepairing
    }
    NoteIoError(cause);
    ++stats_.shard_quarantines;
    shard.quarantine_cause = cause;
    shard.health.store(static_cast<uint32_t>(ShardHealth::kQuarantined),
                       std::memory_order_release);
  }
  RVM_LOG_WARN("rvm shard %u quarantined (fault contained): %s", shard.index,
               cause.ToString().c_str());
  Trace(TraceEventType::kShardQuarantine, shard.index,
        static_cast<uint64_t>(cause.code()), shard.index);
  if (poison_dump_enabled_) {
    DumpQuarantineSidecar(shard, cause);
  }
}

void RvmInstance::DumpQuarantineSidecar(const LogShard& shard,
                                        const Status& cause) {
  // Shard-scoped analogue of DumpPoisonSidecar: best-effort, swallows every
  // error, callable from any lock state. Lands next to the failed shard's
  // log as "<log_path>.shard<K>.quarantine.json" so operators (and `rvmutl
  // health`) can tell a contained quarantine from instance death at a
  // glance.
  std::string trace_json =
      "\"shard\":" + std::to_string(shard.index) + ",\"reason\":\"" +
      JsonEscape(cause.ToString()) + "\"," + ShardRowsJson() +
      ",\"trace\":[";
  const std::vector<TraceEvent> tail = trace_.Tail(kPoisonDumpTraceEvents);
  for (size_t i = 0; i < tail.size(); ++i) {
    if (i > 0) {
      trace_json += ',';
    }
    trace_json += TraceEventJson(tail[i]);
  }
  trace_json += ']';
  trace_json += OutlierSpansJson();
  const std::string document = TelemetryJsonDocument(
      "quarantine-dump",
      {StatisticsJsonRun("at-quarantine", stats_.Snapshot())}, trace_json);
  StatusOr<std::unique_ptr<File>> file =
      env_->Open(shard.path + ".quarantine.json", OpenMode::kTruncate);
  if (!file.ok()) {
    return;
  }
  (void)(*file)->WriteAt(
      0, std::span<const uint8_t>(
             reinterpret_cast<const uint8_t*>(document.data()),
             document.size()));
}

LogDevice::RetryPolicy RvmInstance::RetryPolicyFromRuntime() {
  LogDevice::RetryPolicy policy;
  policy.limit = runtime_.io_retry_limit;
  policy.backoff_us = runtime_.io_retry_backoff_us;
  policy.backoff_max_us = runtime_.io_retry_backoff_max_us;
  policy.on_retry = [this] { ++stats_.io_retries; };
  return policy;
}

Status RvmInstance::FailIfShardUnusable(const LogShard& shard) {
  uint32_t health = shard.health.load(std::memory_order_acquire);
  if (health == static_cast<uint32_t>(ShardHealth::kOk)) {
    return OkStatus();
  }
  // quarantine_cause is written before the release store of health, so the
  // acquire load above makes it visible here.
  return shard.quarantine_cause;
}

RvmInstance::ShardHealth RvmInstance::shard_health(uint32_t shard) const {
  if (shard >= shards_.size()) {
    return ShardHealth::kOk;
  }
  uint32_t health = shards_[shard]->health.load(std::memory_order_acquire);
  if (health != static_cast<uint32_t>(ShardHealth::kOk)) {
    return static_cast<ShardHealth>(health);
  }
  // kRetrying is derived, never stored: it reflects a retry loop in flight
  // on the device right now.
  return shards_[shard]->log->retrying() ? ShardHealth::kRetrying
                                         : ShardHealth::kOk;
}

Status RvmInstance::shard_status(uint32_t shard) const {
  if (shard >= shards_.size()) {
    return InvalidArgument("shard index out of range");
  }
  if (shards_[shard]->health.load(std::memory_order_acquire) !=
      static_cast<uint32_t>(ShardHealth::kOk)) {
    return shards_[shard]->quarantine_cause;
  }
  return OkStatus();
}

Status RvmInstance::FailIfPoisoned() {
  if (poisoned_.load(std::memory_order_acquire)) {
    return poison_cause_;
  }
  // Ascending scan: when several shards fail concurrently the lowest failed
  // shard's cause deterministically wins (shard 0 escalating to instance
  // death, higher shards quarantining in index order).
  for (const auto& shard : shards_) {
    if (!shard->log->poisoned()) {
      continue;
    }
    if (shard->index == 0 || shards_.size() == 1) {
      // The device poisoned itself (e.g. a failed force from the group
      // leader); adopt its cause so stats_.poisoned records the transition.
      Poison(shard->log->poison_status());
      return poison_cause_;
    }
    // A self-poisoned secondary shard is a quarantine, not instance death:
    // adopt idempotently and keep serving the healthy shards.
    PoisonShard(*shard, shard->log->poison_status());
  }
  return OkStatus();
}

Status RvmInstance::poison_status() const {
  if (poisoned_.load(std::memory_order_acquire)) {
    return poison_cause_;
  }
  if (shards_.front()->log->poisoned()) {
    return shards_.front()->log->poison_status();
  }
  return OkStatus();
}

Status RvmInstance::RepairShard(uint32_t shard) {
  std::lock_guard<std::mutex> lock(state_mu_);
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  return RepairShardLocked(shard);
}

bool RvmInstance::NeedsTruncationLocked(const LogShard& shard) const {
  uint64_t used;
  uint64_t capacity;
  {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    used = shard.log->used();
    capacity = shard.log->capacity();
  }
  uint64_t threshold = static_cast<uint64_t>(
      runtime_.truncation_threshold * static_cast<double>(capacity));
  return used > threshold;
}

bool RvmInstance::AnyNeedsTruncationLocked() const {
  for (const auto& shard : shards_) {
    if (NeedsTruncationLocked(*shard)) {
      return true;
    }
  }
  return false;
}

void RvmInstance::TruncationThreadMain() {
  std::unique_lock<std::mutex> lock(state_mu_);
  // Set when the last pass completed no truncation (e.g. the head page is
  // write-blocked by an open transaction). The next wait then releases the
  // state lock until a notification or the timeout even though a log is
  // still past its threshold: re-checking the predicate at once would keep
  // the lock forever and starve the very commit that unblocks the head. A
  // spurious wakeup costs one more pass, so that wait needs no predicate.
  bool stalled = false;
  while (!stop_truncation_) {
    if (stalled) {
      truncation_cv_.wait_for(lock, std::chrono::milliseconds(100));
    } else {
      truncation_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
        return stop_truncation_ || AnyNeedsTruncationLocked();
      });
    }
    if (stop_truncation_) {
      return;
    }
    if (poisoned()) {
      stalled = true;
      continue;  // fail-stop: no further maintenance I/O
    }
    // Incremental steps are bounded, so the lock is released between bursts
    // and forward processing interleaves — the paper's "concurrent forward
    // processing" discipline. Epoch truncation (when configured or as the
    // §5.1.2 fallback) holds the lock for the full pass. Shards truncate
    // independently: only the ones past threshold pay anything.
    const uint64_t completed_before = stats_.truncations_completed.load();
    for (const auto& shard : shards_) {
      if (stop_truncation_ || !NeedsTruncationLocked(*shard)) {
        continue;
      }
      if (shard->health.load(std::memory_order_acquire) !=
          static_cast<uint32_t>(ShardHealth::kOk)) {
        continue;  // quarantined: no maintenance I/O until repaired
      }
      Status status = runtime_.use_incremental_truncation
                          ? IncrementalTruncateLocked(*shard)
                          : TruncateEpochLocked(*shard);
      if (!status.ok()) {
        NoteIoError(status);
        ++stats_.swallowed_truncation_failures;
        RVM_LOG_ERROR("background truncation failed (shard %u): %s",
                      shard->index, status.ToString().c_str());
      }
    }
    stalled = stats_.truncations_completed.load() == completed_before;
  }
}

void RvmInstance::StopTruncationThread() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_truncation_ = true;
  }
  truncation_cv_.notify_all();
  if (truncation_thread_.joinable()) {
    truncation_thread_.join();
  }
}

RvmInstance::RvmInstance(const RvmOptions& options,
                         std::vector<std::unique_ptr<LogShard>> shards)
    : env_(options.env),
      cpu_(options.env, options.cpu_model),
      page_size_(options.page_size),
      shards_(std::move(shards)),
      log_path_(options.log_path),
      poison_dump_enabled_(options.enable_poison_dump),
      checksums_enabled_(options.enable_page_checksums),
      verify_on_map_(options.verify_on_map),
      runtime_(options.runtime),
      truncation_mode_(options.truncation_mode),
      trace_(options.trace_capacity),
      metrics_export_path_(options.metrics_export_path) {
  // Single-threaded here (pre-recovery), so touching the devices without
  // their log_mu is fine.
  for (const auto& shard : shards_) {
    shard->log->set_retry_policy(RetryPolicyFromRuntime());
  }
  if (options.sample_capacity > 0) {
    StatsSampler::Options sampler_options;
    sampler_options.sample_interval_us = options.sample_interval_us;
    sampler_options.sample_capacity = options.sample_capacity;
    sampler_options.source = "rvm-sampler";
    sampler_options.shard_count = shards_.size();
    sampler_ = std::make_unique<StatsSampler>(
        sampler_options, [this] { return TakeTimeseriesSample(); });
  }
  if (options.span_sample_rate > 0 || options.slow_commit_threshold_us > 0) {
    SpanCollector::Options span_options;
    span_options.shards = static_cast<uint32_t>(shards_.size());
    span_options.ring_capacity = options.span_ring_capacity;
    span_options.sample_rate = options.span_sample_rate;
    span_options.slow_threshold_us = options.slow_commit_threshold_us;
    span_options.outlier_capacity = options.span_outlier_capacity;
    spans_ = std::make_unique<SpanCollector>(span_options);
  }
  if (!options.slo_rules.empty()) {
    // ValidateOptions already parsed this text; a failure here would mean
    // the options changed between validation and construction, which the
    // Initialize flow makes impossible.
    StatusOr<std::vector<SloRule>> rules = ParseSloRules(options.slo_rules);
    if (rules.ok()) {
      slo_ = std::make_unique<SloEngine>(std::move(*rules));
    }
  }
}

RvmInstance::~RvmInstance() {
  StopTruncationThread();
  if (!terminated_) {
    Status status = Terminate();
    if (!status.ok()) {
      RVM_LOG_WARN("terminate on destruction failed: %s",
                   status.ToString().c_str());
    }
  }
  for (auto& [base, region] : regions_) {
    if (region->owns_memory) {
      std::free(region->base);
    }
  }
}

Status RvmInstance::Terminate() {
  StopTruncationThread();
  // The HTTP listener's handlers walk the same staged locks the sampler
  // does; stop it first so no scrape can race the teardown below.
  if (http_ != nullptr) {
    http_->Stop();
  }
  // The sampler thread pulls samples through the staged locks; stop it
  // before taking state_mu_ so shutdown cannot race a sample. The final
  // explicit sample captures the instance's terminal state in the series.
  if (sampler_ != nullptr) {
    sampler_->Stop();
    sampler_->SampleNow();
  }
  Status result = [&]() -> Status {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (terminated_) {
      return OkStatus();
    }
    if (!transactions_.empty()) {
      return FailedPrecondition("uncommitted transactions outstanding");
    }
    RVM_RETURN_IF_ERROR(FailIfPoisoned());
    RVM_RETURN_IF_ERROR(FlushDirectLocked());
    // Persist the exact tail of every shard so the next Initialize has no
    // forward scanning to do; not required for correctness, recovery would
    // find the tails itself. Checksum the pages recovery applied to segments
    // never mapped since, so the sidecars end as complete as the log apply
    // left them. Quarantined shards are skipped — their device is poisoned
    // and the next Initialize (or RepairShard) recovers them by scanning
    // anyway.
    for (const auto& shard : shards_) {
      if (shard->health.load(std::memory_order_acquire) !=
          static_cast<uint32_t>(ShardHealth::kOk)) {
        continue;
      }
      std::lock_guard<std::mutex> log_lock(shard->log_mu);
      RVM_RETURN_IF_ERROR(RecordPendingChecksumsBothLocked(*shard));
      RVM_RETURN_IF_ERROR(shard->log->WriteStatus());
    }
    terminated_ = true;
    return OkStatus();
  }();
  if (result.ok() && sampler_ != nullptr && sampler_->recorded() > 0) {
    // The time series outlives the instance next to its log. A dump failure
    // must not fail a Terminate whose durability work already succeeded.
    Status dumped = WriteTimeseriesFile(log_path_ + ".timeseries.jsonl");
    if (!dumped.ok()) {
      RVM_LOG_WARN("timeseries dump on terminate failed: %s",
                   dumped.ToString().c_str());
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Mapping
// ---------------------------------------------------------------------------

StatusOr<SegmentId> RvmInstance::SegmentIdForLocked(const std::string& path) {
  // The dictionary is mirrored into every shard's status block so each
  // shard's log is self-describing for recovery and rvmutl; shard 0's
  // next_segment_id is the allocation source of truth (the mirrors advance
  // in lockstep below).
  SegmentId id = 0;
  bool found = false;
  {
    std::lock_guard<std::mutex> log_lock(shards_[0]->log_mu);
    for (const SegmentDictEntry& entry : shards_[0]->log->status().segments) {
      if (entry.path == path) {
        id = entry.id;
        found = true;
        break;
      }
    }
  }
  if (found) {
    // Heal lagging mirrors before handing the id out: a crash between two
    // shards' status writes in the allocation loop below leaves later
    // shards' dictionaries behind shard 0's, and the entry must be durable
    // in a shard's own status block before any of that shard's log records
    // can name the id (each shard's log is replayed self-describingly).
    for (size_t k = 1; k < shards_.size(); ++k) {
      if (shards_[k]->health.load(std::memory_order_acquire) !=
          static_cast<uint32_t>(ShardHealth::kOk)) {
        // Quarantined mirrors can't be written; RepairShard copies the whole
        // dictionary from shard 0 (the source of truth) when re-attaching.
        continue;
      }
      LogDevice& log = *shards_[k]->log;
      std::lock_guard<std::mutex> log_lock(shards_[k]->log_mu);
      bool present = false;
      for (const SegmentDictEntry& entry : log.status().segments) {
        if (entry.id == id) {
          present = true;
          break;
        }
      }
      if (present) {
        continue;
      }
      log.status().segments.push_back({id, path});
      if (log.status().next_segment_id <= id) {
        log.status().next_segment_id = id + 1;
      }
      Status status = log.WriteStatus();
      if (!status.ok()) {
        log.status().segments.pop_back();
        return status;
      }
    }
    return id;
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (k > 0 && shards_[k]->health.load(std::memory_order_acquire) !=
                     static_cast<uint32_t>(ShardHealth::kOk)) {
      continue;  // see the heal loop above; repair restores the mirror
    }
    LogDevice& log = *shards_[k]->log;
    std::lock_guard<std::mutex> log_lock(shards_[k]->log_mu);
    if (k == 0) {
      id = log.status().next_segment_id;
    }
    log.status().next_segment_id = id + 1;
    log.status().segments.push_back({id, path});
    // The dictionary must be durable before any log record names this id. On
    // failure (e.g. the path overflows the status block) roll the entry back
    // so later status writes — truncation, Terminate, a record-size raise —
    // still encode. Mirrors carry identical dictionaries, so an encoding
    // failure strikes shard 0 first and the rollback is all-or-none; an I/O
    // failure has already poisoned the device.
    Status status = log.WriteStatus();
    if (!status.ok()) {
      log.status().segments.pop_back();
      --log.status().next_segment_id;
      return status;
    }
  }
  return id;
}

StatusOr<std::unique_ptr<File>> RvmInstance::OpenSegmentBothLocked(
    LogShard& shard, SegmentId id) {
  // Not used for the cached map; see segment_files_ handling in callers.
  for (const SegmentDictEntry& entry : shard.log->status().segments) {
    if (entry.id == id) {
      return env_->Open(entry.path, OpenMode::kCreateIfMissing);
    }
  }
  // Fall back to shard 0's dictionary, the allocation source of truth: it
  // is written and synced before any other shard's mirror, so its durable
  // copy covers every id a shard's durable log can name. A miss on a
  // non-zero shard means an earlier incarnation crashed between Map's
  // per-shard status writes; heal this shard's in-memory mirror so its
  // next status write persists the repair. Reading shard 0's dictionary
  // without its log_mu is safe here: the dictionary is only mutated under
  // state_mu_ (SegmentIdForLocked), which every caller holds.
  if (&shard != shards_[0].get()) {
    for (const SegmentDictEntry& entry : shards_[0]->log->status().segments) {
      if (entry.id == id) {
        shard.log->status().segments.push_back(entry);
        if (shard.log->status().next_segment_id <= id) {
          shard.log->status().next_segment_id = id + 1;
        }
        return env_->Open(entry.path, OpenMode::kCreateIfMissing);
      }
    }
  }
  return NotFound("segment id not in dictionary");
}

Status RvmInstance::Map(RegionDescriptor& region) {
  std::lock_guard<std::mutex> lock(state_mu_);
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  if (region.length == 0 || region.length % page_size_ != 0) {
    return InvalidArgument("region length must be a nonzero page multiple");
  }
  if (region.segment_offset % page_size_ != 0) {
    return InvalidArgument("segment offset must be page aligned");
  }
  if (region.address != nullptr &&
      reinterpret_cast<uintptr_t>(region.address) % page_size_ != 0) {
    return InvalidArgument("mapping address must be page aligned");
  }

  // §4.1 restrictions: no byte of a segment mapped twice, no overlap in
  // virtual memory.
  for (const auto& [base, existing] : regions_) {
    if (existing->segment_path == region.segment_path &&
        region.segment_offset < existing->segment_offset + existing->length &&
        existing->segment_offset < region.segment_offset + region.length) {
      return OverlapError("segment range already mapped");
    }
  }

  RVM_ASSIGN_OR_RETURN(SegmentId seg_id, SegmentIdForLocked(region.segment_path));
  // The stripe is a function of the persistent segment id; refuse to map a
  // region whose commits would land on a quarantined shard.
  RVM_RETURN_IF_ERROR(FailIfShardUnusable(*shards_[seg_id % shards_.size()]));

  if (!segment_files_.contains(seg_id)) {
    RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                         env_->Open(region.segment_path, OpenMode::kCreateIfMissing));
    segment_files_[seg_id] = std::move(file);
  }
  File& seg_file = *segment_files_[seg_id];
  RVM_ASSIGN_OR_RETURN(uint64_t seg_size, seg_file.Size());
  if (seg_size < region.segment_offset + region.length) {
    RVM_RETURN_IF_ERROR(seg_file.Resize(region.segment_offset + region.length));
  }

  uint8_t* base = static_cast<uint8_t*>(region.address);
  bool owns = false;
  if (base == nullptr) {
    base = static_cast<uint8_t*>(std::aligned_alloc(page_size_, region.length));
    if (base == nullptr) {
      return Internal("out of memory mapping region");
    }
    owns = true;
  }

  uintptr_t base_addr = reinterpret_cast<uintptr_t>(base);
  for (const auto& [existing_base, existing] : regions_) {
    if (base_addr < existing_base + existing->length &&
        existing_base < base_addr + region.length) {
      if (owns) {
        std::free(base);
      }
      return OverlapError("mappings cannot overlap in virtual memory");
    }
  }

  // Copy-in: the mapped image is the committed image (§4.1). The log holds
  // no records for this range (Unmap truncates), so the segment file is
  // current.
  RVM_ASSIGN_OR_RETURN(
      size_t read,
      seg_file.ReadAt(region.segment_offset, std::span<uint8_t>(base, region.length)));
  if (read < region.length) {
    std::memset(base + read, 0, region.length - read);
  }
  cpu_.Fixed(cpu_.model().map_fixed_us);
  cpu_.Copy(region.length);

  // Checksums (DESIGN.md §14): eager verify-on-map catches segment
  // corruption before the application ever sees the bytes, and the pages
  // recovery applied take their checksums from this copy-in. Runs before the
  // region is registered so a failed verification leaves no mapping behind.
  if (checksums_enabled_) {
    Status checked =
        ChecksumRegionOnMapLocked(seg_id, region.segment_path, seg_file,
                                  region.segment_offset, region.length, base);
    if (!checked.ok()) {
      if (owns) {
        std::free(base);
      }
      return checked;
    }
  }

  auto state = std::make_unique<RegionState>(region.length / page_size_);
  state->segment_id = seg_id;
  state->segment_path = region.segment_path;
  state->segment_offset = region.segment_offset;
  state->length = region.length;
  state->base = base;
  state->owns_memory = owns;
  // Static striping (DESIGN.md §12): every commit touching this region
  // appends to this shard, for the life of the mapping and across restarts
  // (segment ids are persistent, so the stripe is stable).
  state->shard = static_cast<uint32_t>(seg_id % shards_.size());
  regions_.emplace(base_addr, std::move(state));
  region.address = base;
  return OkStatus();
}

Status RvmInstance::Unmap(const RegionDescriptor& region) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = regions_.find(reinterpret_cast<uintptr_t>(region.address));
  if (it == regions_.end()) {
    return NotFound("no mapping at this address");
  }
  RegionState* state = it->second.get();
  if (state->active_transactions > 0) {
    return FailedPrecondition("region has uncommitted transactions (§4.1)");
  }
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  // Unmapping needs the shard's log (flush + epoch apply below); a
  // quarantined stripe keeps its region mapped and readable until repair.
  RVM_RETURN_IF_ERROR(FailIfShardUnusable(*shards_[state->shard]));
  // Make the external data segment current before the in-memory image goes
  // away: flush spooled commits, then apply the whole log.
  RVM_RETURN_IF_ERROR(FlushDirectLocked());
  RVM_RETURN_IF_ERROR(TruncateAllEpochLocked());
  if (state->owns_memory) {
    std::free(state->base);
  }
  regions_.erase(it);
  return OkStatus();
}

StatusOr<RvmInstance::RegionState*> RvmInstance::FindRegionLocked(
    const void* address, uint64_t length) {
  uintptr_t addr = reinterpret_cast<uintptr_t>(address);
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    return NotFound("address not in any mapped region");
  }
  --it;
  RegionState* region = it->second.get();
  if (addr < it->first || addr + length > it->first + region->length) {
    return NotFound("range not contained in a single mapped region");
  }
  return region;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

StatusOr<TransactionId> RvmInstance::BeginTransaction(RestoreMode mode) {
  std::lock_guard<std::mutex> lock(state_mu_);
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  cpu_.Fixed(cpu_.model().begin_txn_us);
  TransactionId tid = next_tid_++;
  TxnState& txn = transactions_[tid];
  txn.tid = tid;
  txn.mode = mode;
  Trace(TraceEventType::kTxnBegin, tid);
  return tid;
}

Status RvmInstance::SetRange(TransactionId tid, void* base, uint64_t length) {
  const uint64_t start_us = env_->NowMicros();
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = transactions_.find(tid);
  if (it == transactions_.end()) {
    return NotFound("no such transaction");
  }
  if (length == 0) {
    return OkStatus();
  }
  TxnState& txn = it->second;
  RVM_ASSIGN_OR_RETURN(RegionState * region, FindRegionLocked(base, length));
  // Fail fast with the quarantine cause before capturing old values: a
  // commit on this stripe cannot succeed, and refusing here keeps the
  // region's image untouched (readable degraded service, DESIGN.md §13).
  RVM_RETURN_IF_ERROR(FailIfShardUnusable(*shards_[region->shard]));
  cpu_.Fixed(cpu_.model().set_range_us);
  ++stats_.set_range_calls;
  stats_.bytes_requested += length;

  uint64_t start = reinterpret_cast<uintptr_t>(base) -
                   reinterpret_cast<uintptr_t>(region->base);
  uint64_t end = start + length;

  auto [covered_it, inserted] = txn.covered.try_emplace(region);
  if (inserted) {
    ++region->active_transactions;
  }
  IntervalSet& covered = covered_it->second;

  // Uncommitted reference counts, one per (transaction, page) pair.
  std::set<uint64_t>& touched = txn.pages_touched[region];
  for (uint64_t page = start / page_size_; page <= (end - 1) / page_size_; ++page) {
    if (touched.insert(page).second) {
      ++region->pages.entry(page).uncommitted_refs;
    }
  }

  if (runtime_.enable_intra_optimization) {
    // Intra-transaction optimization (§5.2): only the parts of the range not
    // already covered by this transaction contribute old-value copies and
    // eventual log traffic.
    std::vector<Interval> fresh = covered.Uncovered(start, end);
    uint64_t fresh_bytes = 0;
    for (const Interval& piece : fresh) {
      fresh_bytes += piece.length();
      if (txn.mode == RestoreMode::kRestore) {
        OldValue old_value;
        old_value.region = region;
        old_value.offset = piece.start;
        old_value.bytes.assign(region->base + piece.start,
                               region->base + piece.end);
        cpu_.Copy(piece.length());
        txn.old_values.push_back(std::move(old_value));
      }
    }
    stats_.intra_saved_bytes += length - fresh_bytes;
    covered.Add(start, end);
  } else {
    // Unoptimized path (for the ablation benchmark): every call is logged
    // verbatim and captures its full old value.
    txn.raw_ranges[region].push_back({start, end});
    if (txn.mode == RestoreMode::kRestore) {
      OldValue old_value;
      old_value.region = region;
      old_value.offset = start;
      old_value.bytes.assign(region->base + start, region->base + end);
      cpu_.Copy(length);
      txn.old_values.push_back(std::move(old_value));
    }
    covered.Add(start, end);  // still tracked for inter-txn subsumption
  }
  stats_.set_range_us.Record(env_->NowMicros() - start_us);
  Trace(TraceEventType::kSetRange, tid, length);
  return OkStatus();
}

Status RvmInstance::Modify(TransactionId tid, void* dest, const void* value,
                           uint64_t length) {
  RVM_RETURN_IF_ERROR(SetRange(tid, dest, length));
  std::memcpy(dest, value, length);
  return OkStatus();
}

void RvmInstance::ReleaseUncommittedLocked(TxnState& txn) {
  for (auto& [region, pages] : txn.pages_touched) {
    for (uint64_t page : pages) {
      PageEntry& entry = region->pages.entry(page);
      if (entry.uncommitted_refs > 0) {
        --entry.uncommitted_refs;
      }
    }
  }
  for (auto& region_cover : txn.covered) {
    RegionState* region = region_cover.first;
    if (region->active_transactions > 0) {
      --region->active_transactions;
    }
  }
}

Status RvmInstance::AbortTransaction(TransactionId tid) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = transactions_.find(tid);
  if (it == transactions_.end()) {
    return NotFound("no such transaction");
  }
  TxnState& txn = it->second;
  if (txn.mode == RestoreMode::kNoRestore) {
    transactions_.erase(it);
    return FailedPrecondition("no-restore transactions cannot abort (§4.2)");
  }
  cpu_.Fixed(cpu_.model().abort_fixed_us);
  // Restore old values newest-first so that, without intra-transaction
  // coalescing, earlier captures win.
  for (auto ov = txn.old_values.rbegin(); ov != txn.old_values.rend(); ++ov) {
    std::memcpy(ov->region->base + ov->offset, ov->bytes.data(), ov->bytes.size());
    cpu_.Copy(ov->bytes.size());
  }
  ReleaseUncommittedLocked(txn);
  ++stats_.transactions_aborted;
  transactions_.erase(it);
  return OkStatus();
}

std::vector<std::pair<uint32_t, RvmInstance::SpoolEntry>>
RvmInstance::BuildSpoolEntriesLocked(TxnState& txn) {
  // One entry per participating shard (ascending index): each region's
  // ranges go to its stripe. On a single-shard instance this degenerates to
  // the original one-entry build.
  std::map<uint32_t, SpoolEntry> per_shard;
  std::map<uint32_t, std::vector<uint64_t>> lengths;

  auto add_range = [&](RegionState* region, uint64_t start, uint64_t end) {
    SpoolEntry& entry = per_shard[region->shard];
    entry.tid = txn.tid;
    SpoolEntry::SegRange range;
    range.segment = region->segment_id;
    range.offset = region->segment_offset + start;
    range.length = end - start;
    range.data_offset = entry.data.size();
    entry.data.insert(entry.data.end(), region->base + start, region->base + end);
    entry.ranges.push_back(range);
    lengths[region->shard].push_back(range.length);
  };

  if (runtime_.enable_intra_optimization) {
    for (auto& [region, covered] : txn.covered) {
      for (const Interval& ivl : covered.ToVector()) {
        add_range(region, ivl.start, ivl.end);
      }
    }
  } else {
    for (auto& [region, ranges] : txn.raw_ranges) {
      for (const Interval& ivl : ranges) {
        add_range(region, ivl.start, ivl.end);
      }
    }
  }

  for (auto& [region, pages] : txn.pages_touched) {
    for (uint64_t page : pages) {
      per_shard[region->shard].pages.emplace_back(region, page);
      per_shard[region->shard].tid = txn.tid;
    }
  }
  std::vector<std::pair<uint32_t, SpoolEntry>> entries;
  entries.reserve(per_shard.size());
  for (auto& [shard, entry] : per_shard) {
    entry.encoded_size = TransactionRecordSize(lengths[shard]);
    cpu_.Copy(entry.data.size());
    cpu_.LogAssembly(entry.data.size());
    cpu_.Fixed(cpu_.model().per_range_us * static_cast<double>(entry.ranges.size()));
    entries.emplace_back(shard, std::move(entry));
  }
  return entries;
}

Status RvmInstance::InterTransactionOptimizeLocked(LogShard& shard,
                                                   const TxnState& txn) {
  // Build this transaction's coverage in segment coordinates.
  std::map<SegmentId, IntervalSet> coverage;
  for (const auto& [region, covered] : txn.covered) {
    IntervalSet& seg_cover = coverage[region->segment_id];
    for (const Interval& ivl : covered.ToVector()) {
      seg_cover.Add(region->segment_offset + ivl.start,
                    region->segment_offset + ivl.end);
    }
  }
  if (coverage.empty()) {
    return OkStatus();
  }
  // Discard any recently spooled record completely subsumed by this commit
  // (§5.2). The scan is bounded to the newest entries; see
  // RuntimeOptions::inter_optimization_window.
  size_t window_start =
      shard.spool.size() > runtime_.inter_optimization_window
          ? shard.spool.size() - runtime_.inter_optimization_window
          : 0;
  for (auto it = shard.spool.begin() + static_cast<ptrdiff_t>(window_start);
       it != shard.spool.end();) {
    bool subsumed = true;
    for (const SpoolEntry::SegRange& range : it->ranges) {
      auto cover_it = coverage.find(range.segment);
      if (cover_it == coverage.end() ||
          !cover_it->second.Contains(range.offset, range.offset + range.length)) {
        subsumed = false;
        break;
      }
    }
    if (!subsumed) {
      ++it;
      continue;
    }
    for (auto& [region, page] : it->pages) {
      PageEntry& entry = region->pages.entry(page);
      if (entry.unflushed_refs > 0) {
        --entry.unflushed_refs;
      }
    }
    stats_.inter_saved_bytes += it->encoded_size;
    shard.spool_bytes -= it->encoded_size;
    it = shard.spool.erase(it);
  }
  return OkStatus();
}

Status RvmInstance::AppendSpoolEntryLocked(LogShard& shard, SpoolEntry& entry,
                                           uint8_t flags) {
  std::vector<RangeView> views;
  views.reserve(entry.ranges.size());
  for (const SpoolEntry::SegRange& range : entry.ranges) {
    RangeView view;
    view.segment = range.segment;
    view.offset = range.offset;
    view.data = std::span<const uint8_t>(entry.data)
                    .subspan(range.data_offset, range.length);
    views.push_back(view);
  }

  auto append = [&]() -> StatusOr<uint64_t> {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    return shard.log->AppendTransaction(entry.tid, views, flags);
  };
  StatusOr<uint64_t> offset = append();
  for (uint64_t attempt = 0;
       !offset.ok() && offset.status().code() == ErrorCode::kLogFull &&
       attempt < runtime_.log_full_retry_limit;
       ++attempt) {
    // kLogFull is transient: reclaim space and retry, bounded by
    // log_full_retry_limit. Incremental truncation first (bounded bursts,
    // so it may not free enough on one pass); a full epoch pass on the
    // final attempt so a blocked head page or lagging background truncator
    // cannot starve the append. Escalating reclamation takes the place of
    // timed backoff: sleeping here would hold the state lock, which is
    // exactly what the background truncation thread needs to make progress.
    bool last_attempt = attempt + 1 == runtime_.log_full_retry_limit;
    RVM_RETURN_IF_ERROR(runtime_.use_incremental_truncation && !last_attempt
                            ? IncrementalTruncateLocked(shard)
                            : TruncateEpochLocked(shard));
    ++stats_.log_full_retries;
    offset = append();
  }
  if (!offset.ok()) {
    if (offset.status().code() != ErrorCode::kLogFull) {
      // The log device has already poisoned itself; contain the failure to
      // this shard's fault domain (instance-wide only for shard 0).
      PoisonShard(shard, offset.status());
    }
    return offset.status();
  }
  stats_.bytes_logged += entry.encoded_size;
  shard.records_appended.fetch_add(1, std::memory_order_relaxed);
  Trace(TraceEventType::kAppend, entry.tid, *offset, shard.index);

  // Incremental-truncation bookkeeping (Fig. 7): the pages carrying this
  // record's changes become dirty; first-reference pages join the queue at
  // this record's offset.
  for (auto& [region, page] : entry.pages) {
    PageEntry& page_entry = region->pages.entry(page);
    if (page_entry.unflushed_refs > 0) {
      --page_entry.unflushed_refs;
    }
    page_entry.dirty = true;
    if (!page_entry.in_queue) {
      page_entry.in_queue = true;
      shard.page_queue.push_back({region, page, *offset});
    }
  }
  return OkStatus();
}

Status RvmInstance::AppendControlRecordLocked(LogShard& shard,
                                              TransactionId tid,
                                              uint8_t flags) {
  auto append = [&]() -> StatusOr<uint64_t> {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    return shard.log->AppendTransaction(tid, {}, flags);
  };
  StatusOr<uint64_t> offset = append();
  for (uint64_t attempt = 0;
       !offset.ok() && offset.status().code() == ErrorCode::kLogFull &&
       attempt < runtime_.log_full_retry_limit;
       ++attempt) {
    // Reclaim-and-retry like data appends, but incremental only: a control
    // record lands on a shard that already carries this transaction's
    // prepare record, and an epoch pass would apply that prepare to the
    // segments before the decision is durable (the in-flight transaction is
    // neither decided nor in aborted_gtids_ yet). Incremental truncation is
    // safe — the transaction's uncommitted page references write-block the
    // queue at or before the prepare's offset, so the head never passes it.
    RVM_RETURN_IF_ERROR(IncrementalTruncateLocked(shard));
    ++stats_.log_full_retries;
    offset = append();
  }
  if (!offset.ok()) {
    if (offset.status().code() != ErrorCode::kLogFull) {
      PoisonShard(shard, offset.status());
    }
    return offset.status();
  }
  stats_.bytes_logged += kRecordHeaderSize;
  shard.records_appended.fetch_add(1, std::memory_order_relaxed);
  Trace(TraceEventType::kAppend, tid, *offset, shard.index);
  return OkStatus();
}

Status RvmInstance::ForceShardBothLocked(LogShard& shard) {
  const uint64_t sync_start_us = env_->NowMicros();
  Status synced = shard.log->Sync();
  if (!synced.ok()) {
    PoisonShard(shard, synced);
    NotifyDurableWaiters(shard);  // group-stage waiters observe the poison
    return synced;
  }
  const uint64_t sync_us = env_->NowMicros() - sync_start_us;
  stats_.log_force_us.Record(sync_us);
  Trace(TraceEventType::kForce, shard.log->durable_lsn(), sync_us, shard.index);
  ++stats_.log_forces;
  shard.forces.fetch_add(1, std::memory_order_relaxed);
  NotifyDurableWaiters(shard);
  return OkStatus();
}

Status RvmInstance::CommitCrossShardLocked(
    TxnState& txn, std::vector<std::pair<uint32_t, SpoolEntry>>& entries,
    CommitSpanScope* span_scope) {
  // Internal two-phase commit (DESIGN.md §12, src/dtx/shard_2pc.h). The
  // whole protocol runs under state_mu_ with direct per-shard forces rather
  // than the group stage: prepare/marker adjacency per shard and the
  // page-queue ordering invariant (a record's queue entries carry its own
  // offset) both depend on no other append interleaving.
  std::vector<uint32_t> participants;
  participants.reserve(entries.size());
  for (const auto& [index, entry] : entries) {
    participants.push_back(index);
  }
  auto entry_for = [&](uint32_t index) -> SpoolEntry& {
    for (auto& [k, entry] : entries) {
      if (k == index) {
        return entry;
      }
    }
    return entries.front().second;  // unreachable: participants come from entries
  };

  ShardCommitOps ops;
  ops.precheck = [&](uint32_t index) -> Status {
    // Phase 0 health gate: a quarantined participant aborts the transaction
    // before a single prepare lands anywhere — the cleanest presumed-abort
    // outcome (no orphan prepares on healthy shards, original cause
    // surfaced).
    return FailIfShardUnusable(*shards_[index]);
  };
  // Span legs (DESIGN.md §15): a prepare leg opens at the prepare append
  // and is extended through its force; the decision leg (the commit point)
  // opens at the decision append and is extended through the coordinator
  // force. RunShardedCommit calls force() per shard, so "extend the newest
  // leg on that shard" attributes each force to the right leg.
  auto open_leg = [&](uint32_t index, bool decision) {
    if (span_scope == nullptr) {
      return;
    }
    CommitSpanScope::TwoPcLeg leg;
    leg.shard = index;
    leg.decision = decision;
    leg.start_us = env_->NowMicros();
    leg.end_us = leg.start_us;
    span_scope->two_pc.push_back(leg);
  };
  auto extend_leg = [&](uint32_t index) {
    if (span_scope == nullptr) {
      return;
    }
    for (auto it = span_scope->two_pc.rbegin(); it != span_scope->two_pc.rend();
         ++it) {
      if (it->shard == index) {
        it->end_us = env_->NowMicros();
        return;
      }
    }
  };
  ops.append_prepare = [&](uint32_t index) -> Status {
    LogShard& shard = *shards_[index];
    open_leg(index, /*decision=*/false);
    // Earlier no-flush commits must reach this shard's log first so log
    // order equals commit order (recovery applies newest-record-wins).
    while (!shard.spool.empty()) {
      RVM_RETURN_IF_ERROR(AppendSpoolEntryLocked(shard, shard.spool.front()));
      shard.spool_bytes -= shard.spool.front().encoded_size;
      shard.spool.pop_front();
    }
    RVM_RETURN_IF_ERROR(AppendSpoolEntryLocked(shard, entry_for(index),
                                               kRecordFlagShardPrepare));
    shard.prepares.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  };
  ops.force = [&](uint32_t index) -> Status {
    LogShard& shard = *shards_[index];
    Status forced;
    {
      std::lock_guard<std::mutex> log_lock(shard.log_mu);
      forced = ForceShardBothLocked(shard);
    }
    if (forced.ok()) {
      extend_leg(index);
    }
    return forced;
  };
  ops.append_decision = [&](uint32_t index) -> Status {
    open_leg(index, /*decision=*/true);
    RVM_RETURN_IF_ERROR(AppendControlRecordLocked(*shards_[index], txn.tid,
                                                  kRecordFlagShardDecision));
    // This shard now carries what may be the only durable commit evidence;
    // its truncation must force the participants' markers first.
    shards_[index]->holds_decisions = true;
    return OkStatus();
  };
  ops.append_marker = [&](uint32_t index) -> Status {
    return AppendControlRecordLocked(*shards_[index], txn.tid,
                                     kRecordFlagShardCommit);
  };

  // Window open: a crash from here until the decision is durable must
  // recover to presumed abort on every participant (the explorer checks
  // started > decided to know it crashed inside the protocol).
  ++stats_.cross_shard_commits_started;
  bool decided = false;
  Status status = RunShardedCommit(participants, ops, &decided);
  if (decided) {
    ++stats_.cross_shard_commits_decided;
  }
  if (!status.ok() && decided) {
    // The decision force completed: the transaction IS durably committed and
    // a failed (unforced, advisory) marker append cannot undo that. Recovery
    // unions decisions across shards, so the markers are not load-bearing.
    NoteIoError(status);
    RVM_LOG_WARN("cross-shard commit marker append failed (commit durable): %s",
                 status.ToString().c_str());
    status = OkStatus();
  }
  if (status.ok()) {
    ReleaseUncommittedLocked(txn);
    {
      MultiFieldUpdate seqlock(stats_);
      ++stats_.transactions_committed;
      ++stats_.flush_commits;
    }
    return OkStatus();
  }
  // Presumed abort: prepares may already sit in some shards' logs with no
  // decision anywhere. Recovery ignores undecided prepares; live truncation
  // needs the id recorded to do the same. Only a genuine abort verdict
  // (log full) closes the explorer's crash window — an I/O failure means
  // the outcome was never resolved, which is exactly what the window
  // counter exists to expose.
  if (status.code() == ErrorCode::kLogFull) {
    ++stats_.cross_shard_commits_decided;
  }
  aborted_gtids_.insert(txn.tid);
  if (txn.mode == RestoreMode::kRestore) {
    // Degrade to an abort, leaving VM consistent (same policy as the
    // single-shard flush path). This covers every undecided failure: log
    // full, a quarantined participant rejected by the precheck, and a
    // permanent I/O failure mid-protocol — in all three no decision is
    // durable anywhere, so recovery aborts the transaction too and the
    // restored image matches what a crash would recover.
    for (auto ov = txn.old_values.rbegin(); ov != txn.old_values.rend(); ++ov) {
      std::memcpy(ov->region->base + ov->offset, ov->bytes.data(),
                  ov->bytes.size());
      cpu_.Copy(ov->bytes.size());
    }
    ReleaseUncommittedLocked(txn);
    ++stats_.transactions_aborted;
    return status;
  }
  // No-restore txn with no old values to roll back: VM has diverged
  // irreversibly from anything recovery can reproduce. Instance-wide
  // fail-stop, whichever shard tripped first.
  Poison(status);
  ReleaseUncommittedLocked(txn);
  return status;
}

Status RvmInstance::EndTransactionLocked(
    TxnState& txn, CommitMode mode,
    std::vector<std::pair<LogShard*, uint64_t>>* flush_targets,
    bool* durable_inline, CommitSpanScope* span_scope) {
  flush_targets->clear();
  *durable_inline = false;
  cpu_.Fixed(cpu_.model().commit_fixed_us);

  if (runtime_.enable_inter_optimization) {
    for (const auto& shard : shards_) {
      if (!shard->spool.empty()) {
        RVM_RETURN_IF_ERROR(InterTransactionOptimizeLocked(*shard, txn));
      }
    }
  }

  bool has_changes = false;
  for (const auto& [region, covered] : txn.covered) {
    if (!covered.empty()) {
      has_changes = true;
      break;
    }
  }

  if (!has_changes) {
    ReleaseUncommittedLocked(txn);
    ++stats_.transactions_committed;
    return OkStatus();
  }

  std::vector<std::pair<uint32_t, SpoolEntry>> entries =
      BuildSpoolEntriesLocked(txn);

  if (entries.size() > 1) {
    // The rare cross-shard transaction: committed eagerly (and durably)
    // through the internal 2PC, whatever the commit mode — bounded
    // persistence cannot span logs with independent force schedules.
    RVM_RETURN_IF_ERROR(CommitCrossShardLocked(txn, entries, span_scope));
    *durable_inline = true;
    return OkStatus();
  }

  LogShard& shard = *shards_[entries.front().first];
  SpoolEntry& entry = entries.front().second;
  if (span_scope != nullptr) {
    span_scope->shard = shard.index;
  }

  Status usable = FailIfShardUnusable(shard);
  if (!usable.ok()) {
    // The stripe was quarantined while this transaction was open (SetRange
    // gates new work, but quarantine can land mid-transaction). A no-flush
    // commit must not spool onto a shard that can never drain; handle it
    // like an append failure below: degrade to an abort when old values
    // exist, fail-stop when they don't.
    if (txn.mode == RestoreMode::kRestore) {
      for (auto ov = txn.old_values.rbegin(); ov != txn.old_values.rend();
           ++ov) {
        std::memcpy(ov->region->base + ov->offset, ov->bytes.data(),
                    ov->bytes.size());
        cpu_.Copy(ov->bytes.size());
      }
      ReleaseUncommittedLocked(txn);
      ++stats_.transactions_aborted;
      return usable;
    }
    Poison(usable);  // no-restore txn: VM has diverged irreversibly
    ReleaseUncommittedLocked(txn);
    return usable;
  }

  if (mode == CommitMode::kNoFlush) {
    ReleaseUncommittedLocked(txn);
    {
      // Commit-count cluster: readers derive flush/no-flush splits from
      // these; the scope keeps the pair from tearing in a Snapshot().
      MultiFieldUpdate seqlock(stats_);
      ++stats_.transactions_committed;
      ++stats_.no_flush_commits;
    }
    for (auto& [region, page] : entry.pages) {
      ++region->pages.entry(page).unflushed_refs;
    }
    shard.spool_bytes += entry.encoded_size;
    shard.spool.push_back(std::move(entry));
    if (shard.spool_bytes > runtime_.max_spool_bytes) {
      // Spool overflow: append everything now; the committer takes the
      // resulting LSN through the group-commit stage like a flush commit.
      ++stats_.log_flush_calls;
      uint64_t target_lsn = 0;
      RVM_RETURN_IF_ERROR(DrainSpoolLocked(shard, &target_lsn));
      flush_targets->emplace_back(&shard, target_lsn);
    }
    return OkStatus();
  }

  // Flush-mode commit: earlier no-flush records must reach the log first so
  // that log order equals commit order (recovery applies newest-record-wins).
  // The append assigns this commit its durable sequence point; the force
  // itself happens in the group-commit stage, after the state lock drops.
  // Spooled entries leave the spool only once their append succeeds, so a
  // failure cannot silently drop a committed no-flush transaction: on
  // kLogFull the spool is intact for a later retry, on anything else the
  // instance is already poisoned.
  ++stats_.flush_commits;
  Status append = OkStatus();
  while (!shard.spool.empty()) {
    append = AppendSpoolEntryLocked(shard, shard.spool.front());
    if (!append.ok()) {
      break;
    }
    shard.spool_bytes -= shard.spool.front().encoded_size;
    shard.spool.pop_front();
  }
  if (append.ok()) {
    append = AppendSpoolEntryLocked(shard, entry);
  }
  if (!append.ok()) {
    // This transaction's changes are already in VM; leaving them there with
    // no log record would let later commits capture values that recovery
    // can never reproduce. Either undo them — the commit degrades to an
    // abort, leaving VM consistent whether the failure was log-full or a
    // permanent error that quarantined the shard (a torn trailing record
    // fails its checksum, so recovery lands on the same pre-transaction
    // image) — or, when no old values exist, stop the instance.
    if (txn.mode == RestoreMode::kRestore) {
      for (auto ov = txn.old_values.rbegin(); ov != txn.old_values.rend();
           ++ov) {
        std::memcpy(ov->region->base + ov->offset, ov->bytes.data(),
                    ov->bytes.size());
        cpu_.Copy(ov->bytes.size());
      }
      ReleaseUncommittedLocked(txn);
      ++stats_.transactions_aborted;
      return append;
    }
    Poison(append);  // no-restore txn: VM has diverged irreversibly
    ReleaseUncommittedLocked(txn);
    return append;
  }
  ReleaseUncommittedLocked(txn);
  ++stats_.transactions_committed;
  {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    flush_targets->emplace_back(&shard, shard.log->appended_lsn());
  }
  return OkStatus();
}

Status RvmInstance::EndTransactionInternal(TransactionId tid, CommitMode mode,
                                           std::vector<OldValueRecord>* undo) {
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  const uint64_t start_us = env_->NowMicros();
  // Span scope (DESIGN.md §15): inactive (one branch per site) unless the
  // span layer exists. Active, it reuses the timestamps the phase
  // histograms already take and is materialized only at ack time.
  CommitSpanScope span_scope;
  if (spans_ != nullptr) {
    span_scope.active = true;
    span_scope.tid = tid;
    span_scope.start_us = start_us;
  }
  std::vector<std::pair<LogShard*, uint64_t>> flush_targets;
  bool durable_inline = false;
  uint64_t max_batch = 0;
  uint64_t max_wait_us = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Queue-wait: entry to state-lock acquisition. Under contention this is
    // the time spent behind other committers' bookkeeping.
    const uint64_t locked_us = env_->NowMicros();
    stats_.commit_queue_wait_us.Record(locked_us - start_us);
    span_scope.locked_us = locked_us;
    auto it = transactions_.find(tid);
    if (it == transactions_.end()) {
      return NotFound("no such transaction");
    }
    if (undo != nullptr && it->second.mode != RestoreMode::kRestore) {
      return FailedPrecondition(
          "old-value records require a restore-mode transaction");
    }
    TxnState txn = std::move(it->second);
    transactions_.erase(it);
    if (undo != nullptr) {
      undo->clear();
      undo->reserve(txn.old_values.size());
      for (const OldValue& old_value : txn.old_values) {
        OldValueRecord record;
        record.segment_path = old_value.region->segment_path;
        record.segment_offset =
            old_value.region->segment_offset + old_value.offset;
        record.bytes = old_value.bytes;
        undo->push_back(std::move(record));
      }
    }
    RVM_RETURN_IF_ERROR(EndTransactionLocked(
        txn, mode, &flush_targets, &durable_inline,
        span_scope.active ? &span_scope : nullptr));
    // Append phase: the state-locked section (bookkeeping, optimization
    // passes, and the log appends that fix this commit's sequence point).
    const uint64_t append_end_us = env_->NowMicros();
    stats_.commit_append_us.Record(append_end_us - locked_us);
    span_scope.append_end_us = append_end_us;
    max_batch = runtime_.group_commit_max_batch;
    max_wait_us = runtime_.group_commit_max_wait_us;
  }
  if (flush_targets.empty() && !durable_inline) {
    const uint64_t ack_us = env_->NowMicros();
    Trace(TraceEventType::kCommitAck, tid, ack_us - start_us);
    if (span_scope.active) {
      EmitCommitSpans(span_scope, ack_us, ack_us - start_us);
    }
    return OkStatus();
  }
  // Group-commit stage: no locks held, so concurrent SetRange/Map/Query and
  // other committers' appends proceed while the force is in flight. (A
  // cross-shard commit already forced inline and has no targets here.)
  for (const auto& [shard, target_lsn] : flush_targets) {
    RVM_RETURN_IF_ERROR(CommitDurable(*shard, target_lsn, max_batch,
                                      max_wait_us,
                                      span_scope.active ? &span_scope
                                                        : nullptr));
  }
  const uint64_t end_us = env_->NowMicros();
  const uint64_t elapsed_us = end_us - start_us;
  stats_.commit_latency_us.Record(elapsed_us);
  Trace(TraceEventType::kCommitAck, tid, elapsed_us);
  if (span_scope.active) {
    EmitCommitSpans(span_scope, end_us, elapsed_us);
  }
  // The transaction is durable; a truncation failure now is a maintenance
  // problem (it will resurface on the next operation), not a commit failure.
  Status truncate_status = MaybeTruncate();
  if (!truncate_status.ok()) {
    NoteIoError(truncate_status);
    ++stats_.swallowed_truncation_failures;
    RVM_LOG_WARN("post-commit truncation failed: %s",
                 truncate_status.ToString().c_str());
  }
  return OkStatus();
}

Status RvmInstance::EndTransaction(TransactionId tid, CommitMode mode) {
  return EndTransactionInternal(tid, mode, nullptr);
}

Status RvmInstance::EndTransactionWithUndo(TransactionId tid, CommitMode mode,
                                           std::vector<OldValueRecord>* undo) {
  return EndTransactionInternal(tid, mode, undo);
}

// ---------------------------------------------------------------------------
// Group-commit stage
// ---------------------------------------------------------------------------

Status RvmInstance::CommitDurable(LogShard& shard, uint64_t target_lsn,
                                  uint64_t max_batch, uint64_t max_wait_us,
                                  CommitSpanScope* span_scope) {
  if (target_lsn == 0) {
    return OkStatus();
  }
  if (shard.log->durable_lsn() >= target_lsn) {
    // A batch (or truncation force) that covered this commit already
    // completed: the force was free for us.
    ++stats_.group_commit_batched_txns;
    return OkStatus();
  }
  std::unique_lock<std::mutex> group_lock(shard.group_mu);
  ++shard.group_waiters;
  shard.group_cv.notify_all();  // a dwelling leader may now have a full batch
  Status result;
  for (;;) {
    if (shard.log->durable_lsn() >= target_lsn) {
      break;
    }
    if (shard.log->poisoned()) {
      // The force that would have covered this commit failed. The failure
      // is sticky for every waiter: electing a new leader to Sync again
      // would re-issue an fsync on an fd whose page-cache state is unknown
      // (the kernel may have dropped the dirty pages at the first failure,
      // so a retry could "succeed" without the data being durable).
      result = shard.log->poison_status();
      PoisonShard(shard, result);
      break;
    }
    if (!shard.group_leader_active) {
      // Become the leader for everyone whose record is already appended.
      shard.group_leader_active = true;
      CommitSpanScope::ForceLeg force_leg;
      force_leg.shard = shard.index;
      // Dwell until a full batch of appended-but-undurable records exists.
      // The LSN distance, not the waiter count, measures batchable work:
      // the waiter count still includes followers served by the previous
      // batch that have not yet woken to decrement it, and counting them
      // would end the dwell with a near-empty batch. Stop early if another
      // force (truncation, Flush) covers our own target meanwhile.
      if (max_wait_us > 0 &&
          shard.log->appended_lsn() - shard.log->durable_lsn() < max_batch) {
        const uint64_t dwell_start_us = env_->NowMicros();
        shard.group_cv.wait_for(
            group_lock, std::chrono::microseconds(max_wait_us), [&] {
              return shard.log->durable_lsn() >= target_lsn ||
                     shard.log->appended_lsn() - shard.log->durable_lsn() >=
                         max_batch;
            });
        const uint64_t dwell_end_us = env_->NowMicros();
        stats_.commit_group_dwell_us.Record(dwell_end_us - dwell_start_us);
        force_leg.dwell_start_us = dwell_start_us;
        force_leg.dwell_end_us = dwell_end_us;
      }
      group_lock.unlock();
      Status sync_status;
      bool forced = false;
      uint64_t sync_us = 0;
      {
        std::lock_guard<std::mutex> log_lock(shard.log_mu);
        if (shard.log->durable_lsn() < shard.log->appended_lsn()) {
          const uint64_t sync_start_us = env_->NowMicros();
          sync_status = shard.log->Sync();
          sync_us = env_->NowMicros() - sync_start_us;
          forced = sync_status.ok();
          force_leg.sync_start_us = sync_start_us;
          force_leg.sync_end_us = sync_start_us + sync_us;
        }
      }
      group_lock.lock();
      shard.group_leader_active = false;
      if (!sync_status.ok()) {
        // Sticky: the LogDevice poisoned itself on the failed fsync (after
        // exhausting the reopen-and-replay retry budget); contain to this
        // shard's fault domain and hand every waiter (current and future)
        // the same failure via the poisoned check above.
        PoisonShard(shard, sync_status);
        result = sync_status;
      } else if (forced) {
        shard.forces.fetch_add(1, std::memory_order_relaxed);
        // Force cluster: forces and batches move together, and readers
        // derive saved forces from batches vs. batched_txns — bracket the
        // cluster so a Snapshot() cannot observe the force without its
        // batch (or vice versa).
        MultiFieldUpdate seqlock(stats_);
        ++stats_.log_forces;
        ++stats_.group_commit_batches;
        stats_.commit_fsync_us.Record(sync_us);
        stats_.log_force_us.Record(sync_us);
        Trace(TraceEventType::kForce, shard.log->durable_lsn(), sync_us,
              shard.index);
      }
      if (span_scope != nullptr &&
          (forced || force_leg.dwell_end_us != 0)) {
        span_scope->forces.push_back(force_leg);
      }
      shard.group_cv.notify_all();
      if (!result.ok()) {
        break;
      }
      continue;  // re-check durability (the sync covered our own append)
    }
    shard.group_cv.wait(group_lock);
  }
  --shard.group_waiters;
  if (result.ok()) {
    ++stats_.group_commit_batched_txns;
  }
  return result;
}

void RvmInstance::NotifyDurableWaiters(LogShard& shard) {
  // Acquire-release of the shard's group_mu pairs with the waiters'
  // predicate check so a waiter observes either the new durable LSN or this
  // notification.
  { std::lock_guard<std::mutex> group_lock(shard.group_mu); }
  shard.group_cv.notify_all();
}

Status RvmInstance::MaybeTruncate() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return MaybeTruncateLocked();
}

// ---------------------------------------------------------------------------
// Flush / truncate / introspection
// ---------------------------------------------------------------------------

StatusOr<void*> RvmInstance::ResolveSegmentAddress(
    const std::string& segment_path, uint64_t segment_offset) {
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& [base, region] : regions_) {
    if (region->segment_path == segment_path &&
        segment_offset >= region->segment_offset &&
        segment_offset < region->segment_offset + region->length) {
      return static_cast<void*>(region->base +
                                (segment_offset - region->segment_offset));
    }
  }
  return NotFound("segment location not mapped");
}

StatusOr<std::pair<std::string, uint64_t>> RvmInstance::TranslateAddress(
    const void* address) {
  std::lock_guard<std::mutex> lock(state_mu_);
  RVM_ASSIGN_OR_RETURN(RegionState * region, FindRegionLocked(address, 1));
  uint64_t offset = reinterpret_cast<uintptr_t>(address) -
                    reinterpret_cast<uintptr_t>(region->base);
  return std::make_pair(region->segment_path, region->segment_offset + offset);
}

Status RvmInstance::DrainSpoolLocked(LogShard& shard, uint64_t* target_lsn) {
  // Entries leave the spool only once appended: a committed no-flush
  // transaction must never be dropped on the floor by a failed drain. On
  // kLogFull the remaining entries stay spooled for a later retry; on any
  // other failure the instance is already poisoned.
  while (!shard.spool.empty()) {
    RVM_RETURN_IF_ERROR(AppendSpoolEntryLocked(shard, shard.spool.front()));
    shard.spool_bytes -= shard.spool.front().encoded_size;
    shard.spool.pop_front();
  }
  std::lock_guard<std::mutex> log_lock(shard.log_mu);
  *target_lsn = shard.log->appended_lsn();
  return OkStatus();
}

Status RvmInstance::FlushDirectLocked() {
  ++stats_.log_flush_calls;
  bool forced_any = false;
  for (const auto& shard_ptr : shards_) {
    LogShard& shard = *shard_ptr;
    if (shard.health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      // A quarantined shard with nothing pending doesn't block the flush;
      // pending work that can never drain surfaces the quarantine cause.
      bool idle = shard.spool.empty();
      if (idle) {
        std::lock_guard<std::mutex> log_lock(shard.log_mu);
        idle = shard.log->durable_lsn() >= shard.log->appended_lsn();
      }
      if (idle) {
        continue;
      }
      return FailIfShardUnusable(shard);
    }
    if (shard.spool.empty()) {
      std::lock_guard<std::mutex> log_lock(shard.log_mu);
      if (shard.log->durable_lsn() >= shard.log->appended_lsn()) {
        continue;  // this shard is already fully durable
      }
    } else {
      uint64_t unused = 0;
      RVM_RETURN_IF_ERROR(DrainSpoolLocked(shard, &unused));
    }
    {
      std::lock_guard<std::mutex> log_lock(shard.log_mu);
      RVM_RETURN_IF_ERROR(ForceShardBothLocked(shard));
    }
    forced_any = true;
  }
  if (!forced_any) {
    return OkStatus();
  }
  return MaybeTruncateLocked();
}

Status RvmInstance::Flush() {
  std::vector<std::pair<LogShard*, uint64_t>> targets;
  uint64_t max_batch = 0;
  uint64_t max_wait_us = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    RVM_RETURN_IF_ERROR(FailIfPoisoned());
    ++stats_.log_flush_calls;
    for (const auto& shard_ptr : shards_) {
      LogShard& shard = *shard_ptr;
      if (shard.health.load(std::memory_order_acquire) !=
          static_cast<uint32_t>(ShardHealth::kOk)) {
        // Same policy as FlushDirectLocked: idle quarantined shards don't
        // block the flush, undrainable pending work fails it.
        bool idle = shard.spool.empty();
        if (idle) {
          std::lock_guard<std::mutex> log_lock(shard.log_mu);
          idle = shard.log->durable_lsn() >= shard.log->appended_lsn();
        }
        if (idle) {
          continue;
        }
        return FailIfShardUnusable(shard);
      }
      if (shard.spool.empty()) {
        // Nothing to append, but commits already appended may still be in
        // the group stage; wait those out so Flush keeps its "all committed
        // no-flush transactions are forced" contract.
        std::lock_guard<std::mutex> log_lock(shard.log_mu);
        if (shard.log->durable_lsn() >= shard.log->appended_lsn()) {
          continue;
        }
        targets.emplace_back(&shard, shard.log->appended_lsn());
      } else {
        uint64_t target_lsn = 0;
        RVM_RETURN_IF_ERROR(DrainSpoolLocked(shard, &target_lsn));
        targets.emplace_back(&shard, target_lsn);
      }
    }
    max_batch = runtime_.group_commit_max_batch;
    max_wait_us = runtime_.group_commit_max_wait_us;
  }
  if (targets.empty()) {
    return OkStatus();
  }
  for (const auto& [shard, target_lsn] : targets) {
    RVM_RETURN_IF_ERROR(CommitDurable(*shard, target_lsn, max_batch, max_wait_us));
  }
  // Flush's contract (everything committed is forced) is met; truncation
  // failure is reported by the operation that next depends on it.
  Status truncate_status = MaybeTruncate();
  if (!truncate_status.ok()) {
    NoteIoError(truncate_status);
    ++stats_.swallowed_truncation_failures;
    RVM_LOG_WARN("post-flush truncation failed: %s",
                 truncate_status.ToString().c_str());
  }
  return OkStatus();
}

Status RvmInstance::Truncate() {
  std::lock_guard<std::mutex> lock(state_mu_);
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  // truncate() promises all *committed* changes reach the segments; spooled
  // no-flush commits must therefore be forced first.
  RVM_RETURN_IF_ERROR(FlushDirectLocked());
  return TruncateAllEpochLocked();
}

StatusOr<RegionQuery> RvmInstance::Query(const void* address) {
  std::lock_guard<std::mutex> lock(state_mu_);
  RVM_ASSIGN_OR_RETURN(RegionState * region, FindRegionLocked(address, 1));
  RegionQuery query;
  query.uncommitted_transactions = region->active_transactions;
  for (const auto& [tid, txn] : transactions_) {
    if (txn.covered.contains(region)) {
      query.uncommitted_tids.push_back(tid);
    }
  }
  query.mapped_length = region->length;
  query.dirty_pages = region->pages.dirty_count();
  for (const SpoolEntry& entry : ShardFor(*region).spool) {
    for (const auto& [entry_region, page] : entry.pages) {
      if (entry_region == region) {
        ++query.committed_unflushed_transactions;
        break;
      }
    }
  }
  return query;
}

void RvmInstance::SetOptions(const RuntimeOptions& runtime) {
  std::lock_guard<std::mutex> lock(state_mu_);
  runtime_ = runtime;
  // Propagate the io_retry_* knobs to the devices; each shard's log_mu
  // serializes against in-flight appends reading the policy.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    shard->log->set_retry_policy(RetryPolicyFromRuntime());
  }
}

RuntimeOptions RvmInstance::GetOptions() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return runtime_;
}

uint64_t RvmInstance::log_bytes_in_use() {
  uint64_t used = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    used += shard->log->used();
  }
  return used;
}

uint64_t RvmInstance::log_capacity() {
  uint64_t capacity = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    capacity += shard->log->capacity();
  }
  return capacity;
}

uint64_t RvmInstance::spooled_bytes() {
  std::lock_guard<std::mutex> lock(state_mu_);
  uint64_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += shard->spool_bytes;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Continuous observability (DESIGN.md §11)
// ---------------------------------------------------------------------------

RvmGauges RvmInstance::Introspect() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return IntrospectLocked();
}

RvmGauges RvmInstance::IntrospectLocked() {
  // Every shard's log lock, ascending, so the gauges within one snapshot are
  // mutually consistent across shards.
  std::vector<std::unique_lock<std::mutex>> log_locks;
  log_locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    log_locks.emplace_back(shard->log_mu);
  }

  RvmGauges gauges;
  gauges.timestamp_us = env_->NowMicros();
  gauges.log_shards = shards_.size();

  for (const auto& shard_ptr : shards_) {
    LogShard& shard = *shard_ptr;
    const LogStatusBlock& status = shard.log->status();
    const uint64_t used = shard.log->used();

    // Reclaimable bytes: live bytes between the head and the first queued
    // page that is write-blocked — the head advance an incremental
    // truncation could achieve right now (Fig. 7). Stale descriptors
    // (cleared by an epoch pass) do not block; with no blocked page
    // everything in use is reclaimable.
    uint64_t reclaimable = used;
    for (const QueuedPage& queued : shard.page_queue) {
      const PageEntry& entry = queued.region->pages.entry(queued.page);
      if (!entry.dirty || !entry.in_queue) {
        continue;
      }
      if (entry.write_blocked()) {
        const uint64_t blocked_at = queued.log_offset;
        reclaimable = blocked_at >= status.head
                          ? blocked_at - status.head
                          : (status.log_size - status.head) +
                                (blocked_at - kLogDataStart);
        break;
      }
    }

    uint64_t waiters = 0;
    uint64_t leader = 0;
    {
      // The group stage is a leaf: taking it while holding the others
      // respects the lock order (it is never held while acquiring them).
      std::lock_guard<std::mutex> group_lock(shard.group_mu);
      waiters = shard.group_waiters;
      leader = shard.group_leader_active ? 1 : 0;
    }

    if (shard.index == 0) {
      // Geometry from shard 0 (the only shard on a single-log instance).
      gauges.log_head = status.head;
      gauges.log_tail = status.tail;
      gauges.log_wrapped = status.tail < status.head ? 1 : 0;
    }
    gauges.log_capacity += shard.log->capacity();
    gauges.log_bytes_in_use += used;
    gauges.log_reclaimable_bytes += reclaimable;
    gauges.appended_lsn += shard.log->appended_lsn();
    gauges.durable_lsn += shard.log->durable_lsn();
    gauges.page_queue_depth += shard.page_queue.size();
    gauges.spool_entries += shard.spool.size();
    gauges.spool_bytes += shard.spool_bytes;
    gauges.group_waiters += waiters;
    gauges.group_leader_active |= leader;

    if (shards_.size() > 1) {
      ShardGauges sg;
      sg.index = shard.index;
      sg.log_capacity = shard.log->capacity();
      sg.log_head = status.head;
      sg.log_tail = status.tail;
      sg.log_wrapped = status.tail < status.head ? 1 : 0;
      sg.log_bytes_in_use = used;
      sg.appended_lsn = shard.log->appended_lsn();
      sg.durable_lsn = shard.log->durable_lsn();
      sg.page_queue_depth = shard.page_queue.size();
      sg.spool_entries = shard.spool.size();
      sg.spool_bytes = shard.spool_bytes;
      sg.group_waiters = waiters;
      sg.group_leader_active = leader;
      sg.records_appended =
          shard.records_appended.load(std::memory_order_relaxed);
      sg.forces = shard.forces.load(std::memory_order_relaxed);
      sg.prepares = shard.prepares.load(std::memory_order_relaxed);
      sg.truncations = shard.truncations.load(std::memory_order_relaxed);
      sg.poisoned = shard.log->poisoned() ? 1 : 0;
      sg.retries = shard.log->retries();
      uint32_t health = shard.health.load(std::memory_order_acquire);
      sg.health = health != static_cast<uint32_t>(ShardHealth::kOk)
                      ? health
                      : (shard.log->retrying()
                             ? static_cast<uint32_t>(ShardHealth::kRetrying)
                             : 0);
      gauges.shards.push_back(sg);
    }
  }
  gauges.log_utilization =
      gauges.log_capacity == 0
          ? 0
          : static_cast<double>(gauges.log_bytes_in_use) /
                static_cast<double>(gauges.log_capacity);

  gauges.open_transactions = transactions_.size();
  gauges.truncations_in_flight = SaturatingSub(
      stats_.truncations_started.load(), stats_.truncations_completed.load());
  if (spans_ != nullptr) {
    gauges.spans_recorded = spans_->recorded();
    gauges.spans_dropped = spans_->dropped();
  }
  for (const auto& shard_ptr : shards_) {
    if (shard_ptr->health.load(std::memory_order_acquire) ==
        static_cast<uint32_t>(ShardHealth::kQuarantined)) {
      ++gauges.quarantined_shards;
    }
  }
  {
    // Derived commit percentiles (DESIGN.md §16): interpolated from the
    // cumulative histogram so the time series, the OpenMetrics exposition,
    // and the SLO signal map all carry the same number under the same name.
    const LatencyHistogram::Snapshot commit =
        stats_.commit_latency_us.TakeSnapshot();
    if (commit.count > 0) {
      gauges.commit_p50_us = commit.Percentile(50.0);
      gauges.commit_p90_us = commit.Percentile(90.0);
      gauges.commit_p99_us = commit.Percentile(99.0);
    }
  }

  for (const auto& [base, region] : regions_) {
    RegionGauges rg;
    rg.segment_path = region->segment_path;
    rg.num_pages = region->pages.num_pages();
    rg.active_transactions = region->active_transactions;
    for (uint64_t page = 0; page < rg.num_pages; ++page) {
      const PageEntry& entry = region->pages.entry(page);
      rg.dirty_pages += entry.dirty ? 1 : 0;
      rg.queued_pages += entry.in_queue ? 1 : 0;
      rg.uncommitted_pages += entry.uncommitted_refs > 0 ? 1 : 0;
      rg.reserved_pages += entry.write_blocked() ? 1 : 0;
    }
    gauges.regions.push_back(std::move(rg));
  }
  return gauges;
}

TimeseriesSample RvmInstance::TakeTimeseriesSample() {
  const RvmGauges gauges = Introspect();
  const RvmStatistics stats = stats_.Snapshot();
  TimeseriesSample sample;
  sample.timestamp_us = gauges.timestamp_us;
  sample.body = "\"gauges\":" + GaugesJson(gauges) +
                ",\"counters\":" + StatisticsCountersJson(stats);
  // SLO evaluation rides the sampler tick (DESIGN.md §16): one rule pass per
  // sample over the same signal map the time series records. No instance
  // locks are held here and the engine's lock is a leaf, so tracing the
  // transitions back into the flight recorder is safe.
  if (slo_ != nullptr) {
    for (const SloTransition& transition :
         slo_->Evaluate(gauges.timestamp_us, SloSignals(stats, gauges))) {
      Trace(transition.firing ? TraceEventType::kSloFiring
                              : TraceEventType::kSloResolved,
            transition.rule_index,
            static_cast<uint64_t>(transition.value < 0 ? 0 : transition.value));
      RVM_LOG_WARN("rvm slo rule '%s' %s (value %.3f)",
                   transition.rule.c_str(),
                   transition.firing ? "firing" : "resolved",
                   transition.value);
    }
  }
  // File-based exposition: rewrite the OpenMetrics document atomically so a
  // concurrent reader always sees a complete exposition — the SimEnv
  // equivalent of a /metrics scrape. Best-effort: a full disk must not turn
  // the sampler tick into a failure.
  if (!metrics_export_path_.empty()) {
    Status exported = WriteFileAtomic(*env_, metrics_export_path_,
                                      RenderMetricsText(stats, gauges));
    if (!exported.ok()) {
      RVM_LOG_WARN("metrics export to %s failed: %s",
                   metrics_export_path_.c_str(),
                   exported.ToString().c_str());
    }
  }
  return sample;
}

std::string RvmInstance::RenderMetrics() {
  const RvmGauges gauges = Introspect();
  return RenderMetricsText(stats_.Snapshot(), gauges);
}

int RvmInstance::Healthz(std::string* body) {
  const bool is_poisoned = poisoned();
  const bool firing = slo_firing();
  const bool healthy = !is_poisoned && !firing;
  *body = std::string("{\"status\":\"") + (healthy ? "ok" : "unhealthy") +
          "\",\"poisoned\":" + (is_poisoned ? "true" : "false");
  if (slo_ != nullptr) {
    *body += ",\"slo\":" + slo_->StateJson();
  }
  *body += "}\n";
  return healthy ? 200 : 503;
}

HttpResponse RvmInstance::HandleHttp(const HttpRequest& request) {
  HttpResponse response;
  // Query strings are not split off by the listener; tolerate them here so
  // "GET /metrics?format=openmetrics" style scrapes work.
  std::string path = request.path;
  if (size_t query = path.find('?'); query != std::string::npos) {
    path.resize(query);
  }
  if (path == "/metrics") {
    response.content_type = kOpenMetricsContentType;
    response.body = RenderMetrics();
  } else if (path == "/healthz") {
    response.content_type = "application/json";
    response.status_code = Healthz(&response.body);
  } else {
    response.status_code = 404;
    response.body = "not found (try /metrics or /healthz)\n";
  }
  return response;
}

void RvmInstance::SampleNow() {
  if (sampler_ != nullptr) {
    sampler_->SampleNow();
  }
}

Status RvmInstance::WriteTimeseriesFile(const std::string& path) {
  const std::string document = sampler_->DumpJsonl();
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env_->Open(path, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(file->WriteAt(
      0, std::span<const uint8_t>(
             reinterpret_cast<const uint8_t*>(document.data()),
             document.size())));
  return file->Sync();
}

Status RvmInstance::DumpTimeseries(const std::string& path) {
  if (sampler_ == nullptr) {
    return FailedPrecondition("sampling disabled (sample_capacity is 0)");
  }
  if (sampler_->recorded() == 0) {
    return FailedPrecondition("no samples recorded");
  }
  return WriteTimeseriesFile(path);
}

// ---------------------------------------------------------------------------
// Span tracing (DESIGN.md §15)
// ---------------------------------------------------------------------------

void RvmInstance::EmitCommitSpans(const CommitSpanScope& scope,
                                  uint64_t end_us, uint64_t elapsed_us) {
  const bool outlier = spans_->slow_threshold_us() > 0 &&
                       elapsed_us > spans_->slow_threshold_us();
  if (!outlier && !spans_->SampleTid(scope.tid)) {
    return;  // neither capture policy wants this commit
  }
  std::vector<Span> tree;
  tree.reserve(5 + scope.forces.size() * 2 + scope.two_pc.size());
  Span root;
  root.span_id = spans_->NextSpanId();
  root.tid = scope.tid;
  root.kind = SpanKind::kCommit;
  root.shard = scope.shard;
  root.start_us = scope.start_us;
  root.end_us = end_us;
  root.arg = elapsed_us;
  tree.push_back(root);
  auto child = [&](SpanKind kind, uint32_t shard, uint64_t start_us,
                   uint64_t child_end_us, uint64_t arg) {
    Span span;
    span.span_id = spans_->NextSpanId();
    span.parent_id = root.span_id;
    span.tid = scope.tid;
    span.kind = kind;
    span.shard = shard;
    span.start_us = start_us;
    span.end_us = child_end_us < start_us ? start_us : child_end_us;
    span.arg = arg;
    tree.push_back(span);
  };
  child(SpanKind::kQueueWait, scope.shard, scope.start_us, scope.locked_us,
        scope.locked_us - scope.start_us);
  child(SpanKind::kAppend, scope.shard, scope.locked_us, scope.append_end_us,
        scope.append_end_us - scope.locked_us);
  // The last durable point this commit observed: the ack span runs from
  // there to the ack itself (follower wake-up, batched-force wait).
  uint64_t ack_start_us = scope.append_end_us;
  for (const CommitSpanScope::ForceLeg& leg : scope.forces) {
    if (leg.dwell_end_us > leg.dwell_start_us) {
      child(SpanKind::kDwell, leg.shard, leg.dwell_start_us, leg.dwell_end_us,
            leg.dwell_end_us - leg.dwell_start_us);
    }
    if (leg.sync_end_us != 0) {
      child(SpanKind::kForce, leg.shard, leg.sync_start_us, leg.sync_end_us,
            leg.sync_end_us - leg.sync_start_us);
      if (leg.sync_end_us > ack_start_us) {
        ack_start_us = leg.sync_end_us;
      }
    }
  }
  for (const CommitSpanScope::TwoPcLeg& leg : scope.two_pc) {
    child(leg.decision ? SpanKind::kTwoPcDecision : SpanKind::kTwoPcPrepare,
          leg.shard, leg.start_us, leg.end_us, leg.end_us - leg.start_us);
  }
  if (ack_start_us > end_us) {
    ack_start_us = end_us;
  }
  child(SpanKind::kAck, scope.shard, ack_start_us, end_us,
        end_us - ack_start_us);
  if (outlier) {
    ++stats_.slow_commits;
  }
  spans_->RecordTree(tree, outlier);
}

void RvmInstance::EmitMaintenanceSpan(SpanKind kind, uint32_t shard,
                                      uint64_t start_us, uint64_t end_us,
                                      uint64_t arg) {
  if (spans_ == nullptr) {
    return;
  }
  Span span;
  span.span_id = spans_->NextSpanId();
  span.kind = kind;
  span.shard = shard;
  span.start_us = start_us;
  span.end_us = end_us < start_us ? start_us : end_us;
  span.arg = arg;
  spans_->Record(span);
}

StatusOr<std::string> RvmInstance::DumpSpansJsonl() const {
  if (spans_ == nullptr) {
    return FailedPrecondition(
        "span tracing disabled (span_sample_rate and "
        "slow_commit_threshold_us are 0)");
  }
  return SpansJsonl(spans_->Snapshot(), "rvm-spans",
                    static_cast<uint32_t>(shards_.size()));
}

StatusOr<std::string> RvmInstance::DumpSpansChromeTrace() const {
  if (spans_ == nullptr) {
    return FailedPrecondition(
        "span tracing disabled (span_sample_rate and "
        "slow_commit_threshold_us are 0)");
  }
  return SpansToChromeTrace(spans_->Snapshot(),
                            static_cast<uint32_t>(shards_.size()));
}

}  // namespace rvm
