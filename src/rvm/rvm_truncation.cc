// Crash recovery, epoch truncation (Fig. 6), and incremental truncation
// (Fig. 7), per shard.
//
// Recovery and epoch truncation share one core, ApplyLogToSegmentsBothLocked:
// write one shard's newest-wins image of its live log to the segments in
// offset order ("an in-memory tree of the latest committed changes",
// §5.1.2). The image (LogImage) comes from a single forward read of the log
// (LogDevice::ScanLiveForward), which at recovery also finds the true log
// end, so recovery reads every live byte once. Idempotency comes from
// deferring the status-block update that declares the log empty until after
// every segment write is durable: a crash anywhere in between simply reruns
// the whole procedure. Because a segment is striped to exactly one shard,
// shards apply disjoint segment sets and recovery can run them in parallel
// (DESIGN.md §12).
//
// Cross-shard transactions add one filter: a record carrying the 2PC prepare
// flag applies only if its transaction is decided — during recovery, decided
// means a decision or commit-marker record for the same tid exists in some
// shard's live log (collected by the same forward reads); during live
// truncation it means the tid is not in aborted_gtids_. Presumed abort: no
// decision anywhere, no effect anywhere.
//
// Lock structure: the `BothLocked` bodies here require state_mu_ and the
// shard's log_mu — truncation reads log records, rewrites the status block,
// and mutates the page vector, so it must exclude both appenders (log_mu)
// and forward processing (state_mu_). The `Locked` wrappers take the shard's
// log_mu around the body, which also fences truncation against an in-flight
// group-commit force on that shard: a leader holds log_mu for its Sync, so
// truncation either sees the whole batch durable or runs before the force
// (and its own Sync covers it).
#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

#include "src/rvm/rvm.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace rvm {

Status RvmInstance::ScanLogImageBothLocked(LogShard& shard, bool extend_tail,
                                           LogImage* image, uint64_t* found) {
  StatusOr<uint64_t> scanned = shard.log->ScanLiveForward(
      [image](uint64_t, const ParsedRecord& record) {
        image->Add(record);
        return OkStatus();
      },
      extend_tail);
  if (!scanned.ok()) {
    // An unreadable or out-of-sequence record the log vouches for is media
    // corruption of committed data, never a torn tail: fail stop this
    // shard's fault domain, and move no head past data never applied.
    PoisonShard(shard, scanned.status());
    return scanned.status();
  }
  if (found != nullptr) {
    *found = *scanned;
  }
  return OkStatus();
}

Status RvmInstance::ApplyLogToSegmentsBothLocked(
    LogShard& shard, const LogImage& image, ApplyBaselines baselines,
    StatCounter* records_applied, StatCounter* bytes_applied,
    LatencyHistogram* apply_us,
    std::map<SegmentId, std::unique_ptr<File>>& files) {
  const uint64_t apply_start_us = env_->NowMicros();
  for (uint64_t i = 0; i < image.records(); ++i) {
    cpu_.Fixed(cpu_.model().truncation_record_us);
  }
  *records_applied += image.records();
  // Each segment's newest committed bytes, in offset order. `written` keeps
  // the file ranges for the checksum-map step below (DESIGN.md §14).
  std::map<SegmentId, std::vector<Interval>> written;
  for (const auto& [segment, extents] : image.segments()) {
    if (!files.contains(segment)) {
      RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           OpenSegmentBothLocked(shard, segment));
      files[segment] = std::move(file);
    }
    File* file = files[segment].get();
    std::vector<Interval>& ranges = written[segment];
    for (const auto& [offset, extent] : extents) {
      RVM_RETURN_IF_ERROR(file->WriteAt(offset, extent.bytes));
      ranges.push_back({offset, offset + extent.bytes.size()});
      *bytes_applied += extent.bytes.size();
      cpu_.Copy(extent.bytes.size());
    }
  }
  apply_us->Record(env_->NowMicros() - apply_start_us);
  for (const auto& [segment, ranges] : written) {
    Status synced = files[segment]->Sync();
    if (!synced.ok()) {
      // A segment WriteAt failure above is transient (the head has not
      // moved, so log replay regenerates the segment), but a failed segment
      // fsync must not be retried on the same fd (fsyncgate): fail stop.
      // Segments are striped to exactly this shard, so the quarantine is
      // contained.
      PoisonShard(shard, synced);
      return synced;
    }
  }
  // Update the checksum sidecars AFTER the segment syncs and BEFORE the
  // caller advances the log head: any page whose sidecar entry a crash
  // leaves stale is still covered by live records and is re-written when
  // recovery reruns this procedure (DESIGN.md §14). Recovery forgets the
  // pages and lets Map checksum its copy-in; the other callers apply under
  // mapped regions and read the pages back.
  for (const auto& [segment, ranges] : written) {
    Status recorded =
        baselines == ApplyBaselines::kAtMap
            ? DeferPageChecksumsBothLocked(shard, segment, ranges)
            : RefreshPageChecksumsBothLocked(shard, segment, *files[segment],
                                             ranges, {});
    if (!recorded.ok()) {
      PoisonShard(shard, recorded);
      return recorded;
    }
  }
  return OkStatus();
}

Status RvmInstance::RecoverShardBothLocked(
    LogShard& shard, const LogImage& image, ApplyBaselines baselines,
    std::map<SegmentId, std::unique_ptr<File>>& files) {
  return ApplyLogToSegmentsBothLocked(
      shard, image, baselines, &stats_.recovery_records_applied,
      &stats_.recovery_bytes_applied, &stats_.recovery_apply_us, files);
}

Status RvmInstance::RecoverLocked() {
  // Phase 1, every shard: one forward read of the live log from the head
  // (§5.1.2), which validates each record, builds the shard's newest-wins
  // image and collects its 2PC tids. Commits never write the status block,
  // at any shard count, so after a crash every commit since the last
  // truncation, dictionary change or Terminate sits past its tail; the same
  // read goes on to discover those records and ends at one bounded torn-tail
  // probe window (LogDevice::ScanLiveForward).
  uint64_t discovered = 0;
  std::vector<LogShard*> live;
  std::vector<LogImage> images;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    const uint64_t scan_start_us = spans_ != nullptr ? env_->NowMicros() : 0;
    LogImage image;
    uint64_t found = 0;
    RVM_RETURN_IF_ERROR(ScanLogImageBothLocked(*shard, /*extend_tail=*/true,
                                               &image, &found));
    discovered += found;
    Trace(TraceEventType::kRecoveryScan, found, shard->log->used(),
          shard->index);
    if (spans_ != nullptr) {
      EmitMaintenanceSpan(SpanKind::kRecoveryScan, shard->index, scan_start_us,
                          env_->NowMicros(), found);
    }
    if (shard->log->used() > 0) {
      live.push_back(shard.get());
      images.push_back(std::move(image));
    }
  }
  if (live.empty()) {
    return OkStatus();
  }

  // Phase 2: union the decided transaction ids across all live shards, so
  // phase 4 applies prepares whose decision landed on a different shard and
  // drops the undecided rest (presumed abort).
  std::set<TransactionId> decided;
  for (const LogImage& image : images) {
    decided.insert(image.decided().begin(), image.decided().end());
  }

  // Phase 3: make every live shard's decision evidence local before
  // anything is emptied. A shard can carry a prepare whose
  // decision record lives only on another shard (the live protocol's
  // markers are unforced and may not have survived the crash); if recovery
  // emptied that other shard and then crashed, a rerun would see the
  // prepare as undecided and presume abort for a committed transaction.
  // Appending the missing markers — durably — before phase 5 empties any
  // log closes that window: whatever subset of shards a crash leaves live,
  // each one's own log names every decided transaction it participates in.
  for (size_t i = 0; i < live.size(); ++i) {
    std::lock_guard<std::mutex> log_lock(live[i]->log_mu);
    bool patched = false;
    for (TransactionId tid : images[i].prepared()) {
      if (decided.contains(tid) && !images[i].decided().contains(tid)) {
        RVM_RETURN_IF_ERROR(
            live[i]->log->AppendTransaction(tid, {}, kRecordFlagShardCommit)
                .status());
        // The marker is live log like any other record.
        images[i].Add(ParsedRecord{
            .header = {.flags = kRecordFlagShardCommit, .tid = tid},
            .ranges = {}});
        patched = true;
      }
    }
    if (patched) {
      Status synced = live[i]->log->Sync();
      if (!synced.ok()) {
        PoisonShard(*live[i], synced);
        return synced;
      }
    }
  }
  for (LogImage& image : images) {
    image.ResolvePrepares(
        [&decided](TransactionId tid) { return decided.contains(tid); });
  }

  // Phase 4: write each live shard's image (apply only — no log is emptied
  // until every apply is durable, so a crash mid-phase reruns recovery with
  // the full decided set still derivable). Shards own disjoint segment sets
  // (static striping), so applies are independent and run in parallel, one
  // thread per live shard, when there is real parallelism to gain. The
  // simulated environments stay sequential: their clocks and crash hooks
  // assume a single caller thread.
  if (live.size() > 1 && env_ == GetRealEnv()) {
    std::vector<std::map<SegmentId, std::unique_ptr<File>>> caches(live.size());
    std::vector<Status> results(live.size(), OkStatus());
    std::vector<std::thread> threads;
    threads.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      threads.emplace_back([this, shard = live[i], &image = images[i], &caches,
                            &results, i] {
        std::lock_guard<std::mutex> log_lock(shard->log_mu);
        const uint64_t apply_start_us =
            spans_ != nullptr ? env_->NowMicros() : 0;
        results[i] = RecoverShardBothLocked(*shard, image,
                                            ApplyBaselines::kAtMap, caches[i]);
        if (spans_ != nullptr) {
          EmitMaintenanceSpan(SpanKind::kRecoveryApply, shard->index,
                              apply_start_us, env_->NowMicros(), 0);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (auto& cache : caches) {
      // Keys never collide across caches: each segment belongs to exactly
      // one shard.
      for (auto& [id, file] : cache) {
        segment_files_.try_emplace(id, std::move(file));
      }
    }
    for (const Status& result : results) {
      RVM_RETURN_IF_ERROR(result);
    }
  } else {
    for (size_t i = 0; i < live.size(); ++i) {
      std::lock_guard<std::mutex> log_lock(live[i]->log_mu);
      const uint64_t apply_start_us = spans_ != nullptr ? env_->NowMicros() : 0;
      RVM_RETURN_IF_ERROR(RecoverShardBothLocked(
          *live[i], images[i], ApplyBaselines::kAtMap, segment_files_));
      if (spans_ != nullptr) {
        EmitMaintenanceSpan(SpanKind::kRecoveryApply, live[i]->index,
                            apply_start_us, env_->NowMicros(), 0);
      }
    }
  }
  images.clear();

  // Phase 5: only now, with every shard's changes durably in the segments,
  // declare the logs empty. A crash that leaves some shards emptied and
  // some live is safe: the live ones re-apply bytes the segments already
  // hold (phase 3 made their decision evidence local, so the rerun applies
  // the same record subset).
  for (LogShard* shard : live) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    shard->log->MarkEmpty();
    Status status_write = shard->log->WriteStatus();
    if (!status_write.ok()) {
      PoisonShard(*shard, status_write);
      return status_write;
    }
  }

  const uint64_t records = stats_.recovery_records_applied;
  const uint64_t bytes = stats_.recovery_bytes_applied;
  Trace(TraceEventType::kRecoveryApply, records, bytes);
  RVM_LOG_INFO(
      "recovery replayed %llu records (%llu bytes) to segments across %llu "
      "shard(s); %llu records found past the last durable tails",
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(live.size()),
      static_cast<unsigned long long>(discovered));
  return OkStatus();
}

Status RvmInstance::ArchiveLiveLogBothLocked(LogShard& shard) {
  // The archive is itself a formatted log whose records are the live
  // records, oldest first — rvmutl reads it like any other log.
  RVM_ASSIGN_OR_RETURN(std::vector<uint64_t> offsets,
                       shard.log->CollectRecordOffsets());
  if (offsets.empty()) {
    return OkStatus();
  }
  std::string path = runtime_.log_archive_prefix;
  if (shards_.size() > 1) {
    // Per-shard archive streams: "<prefix>shard<K>.<generation>".
    path += "shard" + std::to_string(shard.index) + ".";
  }
  path += std::to_string(shard.log->status().generation);
  uint64_t size = std::max<uint64_t>(shard.log->status().log_size,
                                     kLogDataStart + 16 * 1024);
  RVM_RETURN_IF_ERROR(LogDevice::Create(env_, path, size, /*overwrite=*/true));
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<LogDevice> archive,
                       LogDevice::Open(env_, path));
  archive->status().segments = shard.log->status().segments;
  archive->status().next_segment_id = shard.log->status().next_segment_id;
  for (auto offset = offsets.rbegin(); offset != offsets.rend(); ++offset) {
    RVM_ASSIGN_OR_RETURN(OwnedRecord record, shard.log->ReadRecordAt(*offset));
    if (record.parsed.header.type == RecordType::kWrapFiller) {
      continue;
    }
    std::vector<RangeView> ranges = record.parsed.ranges;
    RVM_RETURN_IF_ERROR(archive
                            ->AppendTransaction(record.parsed.header.tid, ranges,
                                                record.parsed.header.flags)
                            .status());
  }
  RVM_RETURN_IF_ERROR(archive->Sync());
  return archive->WriteStatus();
}

Status RvmInstance::ForceSiblingEvidenceBothLocked(LogShard& shard) {
  if (shards_.size() == 1 || !shard.holds_decisions) {
    return OkStatus();
  }
  // This shard's log names committed cross-shard transactions whose
  // participants may hold their prepare + commit marker only in volatile
  // log tails (markers are appended unforced). Force them durable before
  // this log — the decision evidence — is discarded, or a crash would make
  // recovery presume abort for a transaction this truncation has already
  // applied to segments.
  for (const auto& other : shards_) {
    if (other->index == shard.index) {
      continue;
    }
    std::lock_guard<std::mutex> log_lock(other->log_mu);
    Status synced = other->log->Sync();
    if (!synced.ok()) {
      PoisonShard(*other, synced);
      return synced;
    }
  }
  return OkStatus();
}

Status RvmInstance::TruncateEpochLocked(LogShard& shard) {
  {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    RVM_RETURN_IF_ERROR(TruncateEpochBothLocked(shard));
  }
  // The epoch's Sync/WriteStatus advanced the durable LSN; wake any
  // group-stage waiters whose leader has not run yet.
  NotifyDurableWaiters(shard);
  return OkStatus();
}

Status RvmInstance::TruncateAllEpochLocked() {
  for (const auto& shard : shards_) {
    if (shard->health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      continue;  // quarantined: no maintenance I/O until repaired
    }
    RVM_RETURN_IF_ERROR(TruncateEpochLocked(*shard));
  }
  return OkStatus();
}

Status RvmInstance::TruncateEpochBothLocked(LogShard& shard) {
  // Everything the epoch applies must be durable in the log first, so a
  // crash mid-truncation can re-derive the same segment contents.
  const uint64_t sync_start_us = env_->NowMicros();
  Status synced = shard.log->Sync();
  if (!synced.ok()) {
    PoisonShard(shard, synced);  // the device poisoned itself; contain it
    return synced;
  }
  const uint64_t sync_us = env_->NowMicros() - sync_start_us;
  stats_.log_force_us.Record(sync_us);
  Trace(TraceEventType::kForce, shard.log->durable_lsn(), sync_us, shard.index);
  if (shard.log->used() == 0) {
    return OkStatus();
  }
  if (!runtime_.log_archive_prefix.empty()) {
    RVM_RETURN_IF_ERROR(ArchiveLiveLogBothLocked(shard));
  }
  ++stats_.truncations_started;
  Trace(TraceEventType::kTruncationStart, 0, 0, shard.index);
  const uint64_t truncation_start_us =
      spans_ != nullptr ? env_->NowMicros() : 0;
  // Live prepares are decided unless the instance aborted them: 2PC runs
  // to a verdict before the commit call returns, and recovery settled every
  // earlier prepare before live processing started.
  LogImage image;
  RVM_RETURN_IF_ERROR(
      ScanLogImageBothLocked(shard, /*extend_tail=*/false, &image));
  image.ResolvePrepares(
      [this](TransactionId tid) { return !aborted_gtids_.contains(tid); });
  RVM_RETURN_IF_ERROR(ApplyLogToSegmentsBothLocked(
      shard, image, ApplyBaselines::kReadBack,
      &stats_.truncation_records_applied, &stats_.truncation_bytes_applied,
      &stats_.truncation_step_us, segment_files_));
  RVM_RETURN_IF_ERROR(ForceSiblingEvidenceBothLocked(shard));
  shard.log->MarkEmpty();
  shard.holds_decisions = false;
  Status status_write = shard.log->WriteStatus();
  if (!status_write.ok()) {
    PoisonShard(shard, status_write);
    return status_write;
  }
  // All committed changes on this shard are in the segments: none of its
  // regions' pages are dirty with respect to the log anymore.
  // Unflushed/uncommitted reference counts are unaffected (those changes are
  // not in the log). Other shards' queues and pages are untouched.
  shard.page_queue.clear();
  for (auto& [base, region] : regions_) {
    if (region->shard == shard.index) {
      region->pages.ClearDirtyAndQueued();
    }
  }
  shard.truncations.fetch_add(1, std::memory_order_relaxed);
  {
    // Completion cluster: the in-flight window derivation (started minus
    // completed) and the epoch count move together under the seqlock so a
    // Snapshot() cannot see a completed truncation that is not yet epoch-
    // attributed.
    MultiFieldUpdate seqlock(stats_);
    ++stats_.truncations_completed;
    ++stats_.epoch_truncations;
  }
  Trace(TraceEventType::kTruncationComplete, 0, 0, shard.index);
  if (spans_ != nullptr) {
    EmitMaintenanceSpan(SpanKind::kTruncation, shard.index,
                        truncation_start_us, env_->NowMicros(), /*arg=*/0);
  }
  return OkStatus();
}

Status RvmInstance::MaybeTruncateLocked() {
  if (!AnyNeedsTruncationLocked()) {
    return OkStatus();
  }
  if (truncation_mode_ == TruncationMode::kBackground) {
    // Hand the work to the truncation thread. If it falls behind and a log
    // actually fills, the append path still truncates inline as a last
    // resort.
    truncation_cv_.notify_one();
    return OkStatus();
  }
  for (const auto& shard : shards_) {
    if (!NeedsTruncationLocked(*shard) ||
        shard->health.load(std::memory_order_acquire) !=
            static_cast<uint32_t>(ShardHealth::kOk)) {
      continue;
    }
    RVM_RETURN_IF_ERROR(runtime_.use_incremental_truncation
                            ? IncrementalTruncateLocked(*shard)
                            : TruncateEpochLocked(*shard));
  }
  return OkStatus();
}

Status RvmInstance::IncrementalTruncateLocked(LogShard& shard) {
  bool epoch_fallback = false;
  {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    RVM_RETURN_IF_ERROR(IncrementalTruncateBothLocked(shard, &epoch_fallback));
  }
  if (epoch_fallback) {
    // The head page is write-blocked and space is critical: revert to epoch
    // truncation (§5.1.2), re-entering through the wrapper so the lock is
    // not held recursively.
    return TruncateEpochLocked(shard);
  }
  NotifyDurableWaiters(shard);
  return OkStatus();
}

Status RvmInstance::IncrementalTruncateBothLocked(LogShard& shard,
                                                  bool* epoch_fallback) {
  *epoch_fallback = false;
  const uint64_t target = static_cast<uint64_t>(
      runtime_.truncation_target * static_cast<double>(shard.log->capacity()));
  const uint64_t critical = static_cast<uint64_t>(
      runtime_.epoch_critical_fraction *
      static_cast<double>(shard.log->capacity()));

  std::set<File*> touched;
  // Per segment, the CRC of each page image handed to WriteAt (DESIGN.md
  // §14): the sidecar records what reached the file without reading it back.
  std::map<SegmentId, std::map<uint64_t, uint32_t>> page_crcs;
  std::vector<uint8_t> page_image(page_size_);
  bool advanced = false;
  uint64_t steps = 0;
  uint64_t truncation_start_us = 0;
  while (shard.log->used() > target && !shard.page_queue.empty() &&
         steps < runtime_.incremental_max_steps) {
    const QueuedPage& front = shard.page_queue.front();
    PageEntry& entry = front.region->pages.entry(front.page);
    if (!entry.dirty || !entry.in_queue) {
      shard.page_queue.pop_front();  // stale descriptor (cleared by an epoch)
      continue;
    }
    if (entry.write_blocked()) {
      // The head page still has uncommitted or unflushed changes. If log
      // space is critical, the caller reverts to epoch truncation (§5.1.2);
      // otherwise retry on a later trigger.
      if (shard.log->used() > critical) {
        *epoch_fallback = true;
      }
      break;
    }
    // Write the page from VM to the external data segment (Fig. 7). Map
    // admits only page-aligned, page-multiple regions, so this is one whole
    // segment page. It goes through a private copy, so the checksum below
    // covers exactly the bytes written even if the application stores to
    // the page meanwhile.
    RegionState* region = front.region;
    const uint64_t page_start = front.page * page_size_;
    const uint64_t file_offset = region->segment_offset + page_start;
    if (!segment_files_.contains(region->segment_id)) {
      RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           OpenSegmentBothLocked(shard, region->segment_id));
      segment_files_[region->segment_id] = std::move(file);
    }
    File* file = segment_files_[region->segment_id].get();
    if (!advanced) {
      ++stats_.truncations_started;
      Trace(TraceEventType::kTruncationStart, 1, 0, shard.index);
      if (spans_ != nullptr) {
        truncation_start_us = env_->NowMicros();
      }
    }
    const uint64_t step_start_us = env_->NowMicros();
    std::memcpy(page_image.data(), region->base + page_start, page_size_);
    RVM_RETURN_IF_ERROR(file->WriteAt(file_offset, page_image));
    touched.insert(file);
    cpu_.Copy(page_size_);
    if (checksums_enabled_) {
      page_crcs[region->segment_id][file_offset / page_size_] =
          Crc32(page_image);
      cpu_.Copy(page_size_);
    }
    entry.dirty = false;
    entry.in_queue = false;
    stats_.truncation_step_us.Record(env_->NowMicros() - step_start_us);
    Trace(TraceEventType::kTruncationStep, front.page, 0, shard.index);
    shard.page_queue.pop_front();
    ++stats_.incremental_steps;
    ++stats_.incremental_pages_written;
    ++steps;
    advanced = true;
  }

  if (!advanced) {
    return OkStatus();
  }
  // Segment writes must be durable before the head moves past the records
  // they supersede, and the head move must be durable before new appends
  // reuse the reclaimed space (appends happen only after we return, under
  // the same lock discipline).
  for (File* file : touched) {
    Status synced = file->Sync();
    if (!synced.ok()) {
      // Same policy as the epoch pass: a failed segment fsync is never
      // retried on the same fd, and the head has not moved, so fail stop
      // this shard without losing anything the log cannot regenerate.
      PoisonShard(shard, synced);
      return synced;
    }
  }
  // Checksum sidecars after the segment syncs, before the head move — the
  // same ordering ApplyLogToSegmentsBothLocked uses (DESIGN.md §14).
  for (const auto& [segment, crcs] : page_crcs) {
    Status refreshed = RefreshPageChecksumsBothLocked(
        shard, segment, *segment_files_[segment], {}, crcs);
    if (!refreshed.ok()) {
      PoisonShard(shard, refreshed);
      return refreshed;
    }
  }
  // The head move (or empty) durably discards records, possibly including
  // cross-shard decision records; sibling evidence must be durable first.
  RVM_RETURN_IF_ERROR(ForceSiblingEvidenceBothLocked(shard));
  if (shard.page_queue.empty()) {
    shard.log->MarkEmpty();
    shard.holds_decisions = false;
  } else {
    shard.log->status().head = shard.page_queue.front().log_offset;
  }
  Status status_write = shard.log->WriteStatus();
  if (!status_write.ok()) {
    PoisonShard(shard, status_write);
    return status_write;
  }
  shard.truncations.fetch_add(1, std::memory_order_relaxed);
  ++stats_.truncations_completed;
  Trace(TraceEventType::kTruncationComplete, 1, 0, shard.index);
  if (spans_ != nullptr) {
    EmitMaintenanceSpan(SpanKind::kTruncation, shard.index,
                        truncation_start_us, env_->NowMicros(), /*arg=*/1);
  }
  return status_write;
}

// ---------------------------------------------------------------------------
// Online shard repair (DESIGN.md §13)
// ---------------------------------------------------------------------------

Status RvmInstance::RepairShardLocked(uint32_t index) {
  // Re-runs the five-phase recovery procedure for ONE quarantined shard
  // against a healed (fault cleared) or replaced "<log_path>.shard<K>" file
  // while the instance stays live: fresh device open, forward tail scan,
  // 2PC decision union with the live sibling logs, newest-record-wins apply
  // to this shard's segments, then reload the shard's mapped regions from
  // their now-current segments, re-apply its spooled no-flush commits to
  // memory, and re-attach. Replacing the file with a freshly created empty
  // log is supported but lossy: records since the shard's last truncation
  // are gone and its regions come back at segment (last-truncated) state.
  if (index >= shards_.size()) {
    return InvalidArgument("shard index out of range");
  }
  LogShard& shard = *shards_[index];
  if (shard.health.load(std::memory_order_acquire) !=
      static_cast<uint32_t>(ShardHealth::kQuarantined)) {
    return FailedPrecondition("shard is not quarantined");
  }
  // §4.1 discipline, like Unmap: the reload below rewrites the regions'
  // images, which must not race an open transaction's old-value captures.
  for (const auto& [base, region] : regions_) {
    if (region->shard == index && region->active_transactions > 0) {
      return FailedPrecondition(
          "region on this shard has uncommitted transactions");
    }
  }
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    shard.health.store(static_cast<uint32_t>(ShardHealth::kRepairing),
                       std::memory_order_release);
  }
  ++stats_.shard_repairs_started;
  Trace(TraceEventType::kShardRepair, index, 0, index);

  Status result = [&]() -> Status {
    // Phase 2's sibling half runs first: each sibling's log_mu is taken on
    // its own, never under this shard's, so log locks still nest only in
    // ascending order (as IntrospectLocked takes them).
    std::set<TransactionId> decided;
    for (const auto& other : shards_) {
      if (other->index == index) {
        continue;
      }
      std::lock_guard<std::mutex> sibling_lock(other->log_mu);
      Status read = other->log
                        ->ScanLiveForward(
                            [&decided](uint64_t, const ParsedRecord& record) {
                              if (LogImage::IsDecision(record.header)) {
                                decided.insert(record.header.tid);
                              }
                              return OkStatus();
                            },
                            /*extend_tail=*/false)
                        .status();
      if (!read.ok()) {
        PoisonShard(*other, read);
        return read;
      }
    }

    // Phase 0: a fresh device on the healed file — never the poisoned fd
    // (fsyncgate: its page-cache state is unknown). The old device is
    // dropped on the swap; everything below runs on clean state.
    RVM_ASSIGN_OR_RETURN(std::unique_ptr<LogDevice> healed,
                         LogDevice::Open(env_, shard.path));
    healed->set_retry_policy(RetryPolicyFromRuntime());
    // The shard's own dictionary mirror may lag (quarantine skipped the
    // lockstep status writes) or be empty (replaced file); shard 0's is the
    // allocation source of truth and is only mutated under state_mu_, which
    // we hold.
    healed->status().segments = shards_[0]->log->status().segments;
    healed->status().next_segment_id =
        shards_[0]->log->status().next_segment_id;
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    shard.log = std::move(healed);
    // Checksum maps restart from their sidecars too, like a restart would;
    // pages recovery left pending stay unknown there.
    shard.checksum_maps.clear();
    shard.pending_baselines.clear();

    // Phase 1: find the true end of the healed log by forward validity
    // scanning (records appended after the last durable status write, and
    // everything a failed sync left behind, are rediscovered here; a torn
    // trailing record fails its checksum and bounds the scan).
    const uint64_t scan_start_us = spans_ != nullptr ? env_->NowMicros() : 0;
    RVM_ASSIGN_OR_RETURN(uint64_t found, shard.log->ExtendTailForward());
    Trace(TraceEventType::kRecoveryScan, found, shard.log->used(), shard.index);
    if (spans_ != nullptr) {
      EmitMaintenanceSpan(SpanKind::kRecoveryScan, shard.index, scan_start_us,
                          env_->NowMicros(), found);
    }

    if (shard.log->used() > 0) {
      // Phase 2: decided = (this shard's decisions ∪ every live sibling's
      // decisions) minus the transactions this process already presumed
      // aborted. The subtraction is what keeps the repaired shard consistent
      // with its live siblings: a cross-shard abort may have left a durable
      // decision-less prepare here — or even a durable decision whose
      // in-process outcome was an abort (the decision force failed after the
      // record hit the file) — and the siblings have already rolled that
      // transaction back.
      LogImage image;
      RVM_RETURN_IF_ERROR(
          ScanLogImageBothLocked(shard, /*extend_tail=*/false, &image));
      decided.insert(image.decided().begin(), image.decided().end());
      image.ResolvePrepares([&](TransactionId tid) {
        return decided.contains(tid) && !aborted_gtids_.contains(tid);
      });

      // Phase 3+4: apply this shard's newest-wins image to its (disjoint)
      // segment set. Its regions stay mapped through the repair, so the
      // applied pages are read back for their checksums.
      RVM_RETURN_IF_ERROR(RecoverShardBothLocked(
          shard, image, ApplyBaselines::kReadBack, segment_files_));
    }

    // Phase 5: declare the log empty — but if it carried cross-shard
    // decision evidence, force the siblings first, exactly like a live
    // truncation (their markers may still sit in volatile tails).
    RVM_RETURN_IF_ERROR(ForceSiblingEvidenceBothLocked(shard));
    shard.log->MarkEmpty();
    shard.holds_decisions = false;
    RVM_RETURN_IF_ERROR(shard.log->WriteStatus());

    // Re-attach: the log is empty, so no page is dirty with respect to it.
    shard.page_queue.clear();
    for (auto& [base, region] : regions_) {
      if (region->shard == index) {
        region->pages.ClearDirtyAndQueued();
      }
    }
    // Reload each of the shard's regions from its now-current segment (the
    // committed durable image — this also discards any residue a failed
    // commit left in VM), then lay the shard's spooled no-flush commits
    // back over it in commit order: those are committed-but-unlogged and
    // exist nowhere but the spool and VM.
    for (auto& [base, region] : regions_) {
      if (region->shard != index) {
        continue;
      }
      if (!segment_files_.contains(region->segment_id)) {
        RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                             OpenSegmentBothLocked(shard, region->segment_id));
        segment_files_[region->segment_id] = std::move(file);
      }
      File& seg_file = *segment_files_[region->segment_id];
      RVM_ASSIGN_OR_RETURN(
          size_t read,
          seg_file.ReadAt(region->segment_offset,
                          std::span<uint8_t>(region->base, region->length)));
      if (read < region->length) {
        std::memset(region->base + read, 0, region->length - read);
      }
      cpu_.Copy(region->length);
      // Segment leg (DESIGN.md §14): a repair must not re-attach a region
      // whose backing file fails checksum verification — the log was just
      // applied and emptied, so a mismatch here is unrepairable media
      // corruption and the shard goes back to quarantine.
      if (checksums_enabled_) {
        RVM_ASSIGN_OR_RETURN(SegmentChecksumMap * chk,
                             ChecksumMapBothLocked(shard, region->segment_id));
        for (uint64_t off = 0; off < region->length; off += page_size_) {
          const uint64_t page = (region->segment_offset + off) / page_size_;
          if (!chk->known(page)) {
            continue;
          }
          const uint64_t len = std::min(page_size_, region->length - off);
          ++stats_.pages_scrubbed;
          if (Crc32(std::span<const uint8_t>(region->base + off, len)) !=
              chk->crc(page)) {
            ++stats_.checksum_mismatches;
            ++stats_.pages_quarantined;
            Trace(TraceEventType::kChecksumMismatch, region->segment_id, page,
                  shard.index);
            return Corruption("segment page failed checksum verification "
                              "during shard repair: " +
                              region->segment_path + " page " +
                              std::to_string(page));
          }
        }
      }
    }
    for (const SpoolEntry& entry : shard.spool) {
      for (const SpoolEntry::SegRange& range : entry.ranges) {
        for (auto& [base, region] : regions_) {
          if (region->segment_id == range.segment &&
              range.offset >= region->segment_offset &&
              range.offset + range.length <=
                  region->segment_offset + region->length) {
            std::memcpy(
                region->base + (range.offset - region->segment_offset),
                entry.data.data() + range.data_offset, range.length);
            cpu_.Copy(range.length);
            break;
          }
        }
      }
    }
    return OkStatus();
  }();

  if (!result.ok()) {
    // Back to quarantine with the repair failure as the new cause; the
    // shard is still contained and a later repair attempt can run against
    // a better file.
    std::lock_guard<std::mutex> lock(poison_mu_);
    shard.quarantine_cause = result;
    shard.health.store(static_cast<uint32_t>(ShardHealth::kQuarantined),
                       std::memory_order_release);
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    shard.quarantine_cause = OkStatus();
    shard.health.store(static_cast<uint32_t>(ShardHealth::kOk),
                       std::memory_order_release);
  }
  ++stats_.shard_repairs_completed;
  Trace(TraceEventType::kShardRepair, index, 1, index);
  RVM_LOG_INFO("rvm shard %u repaired and re-attached", index);
  // The quarantine sidecar is stale evidence now; best-effort cleanup.
  (void)env_->Delete(shard.path + ".quarantine.json");
  return OkStatus();
}

}  // namespace rvm
