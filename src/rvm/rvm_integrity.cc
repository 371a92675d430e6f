// Data-segment integrity (DESIGN.md §14): checksum-sidecar refresh, online
// scrubbing, log-based page repair, and Map's checksum step.
//
// The paper trusts external data segments blindly ("RVM does not provide
// media recovery", §3.1). This file closes that gap end to end: each shard
// keeps the per-page CRC32 map of its segments in memory, truncation and
// recovery record and persist it after every segment write and before the
// log-head advance (RefreshPageChecksumsBothLocked, or for recovery
// DeferPageChecksumsBothLocked, which leaves the pages for Map to checksum
// from its copy-in), scrubs verify the segment files against the sidecar in
// small batches under the staged locks, and a mismatched page is either
// repaired from the newest committed image still present in the shard's
// live log (pre-truncation window) or escalated to the shard quarantine
// machinery of DESIGN.md §13.
#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "src/rvm/rvm.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace rvm {

namespace {
// Pages verified per lock acquisition in a scrub: large enough to amortize
// rewriting the sidecar, small enough that commits blocked behind a batch wait
// for at most ~128 KiB of reads and CRCs.
constexpr uint64_t kScrubBatchPages = 32;

// Pages a checksum read-back reads before it checksums them: 4 MiB of
// buffer at 4 KiB pages.
constexpr size_t kReadBackBatchPages = 1024;

// The pages that the byte intervals `written` overlap, ascending.
std::set<uint64_t> PagesOverlapping(const std::vector<Interval>& written,
                                    uint64_t page_size) {
  std::set<uint64_t> pages;
  for (const Interval& range : written) {
    for (uint64_t page = range.start / page_size; page * page_size < range.end;
         ++page) {
      pages.insert(page);
    }
  }
  return pages;
}
}  // namespace

// A page's recorded CRC is defined over its bytes ZERO-PADDED to the page
// size (every CRC below runs over a full page_size buffer whose tail beyond
// the file's extent is zeroed). Segment files grow to the exact extent of
// the highest applied byte, so the last page is often partial; a later
// Map() rounds the file up to a page boundary by appending zeros. Padding
// makes that extension a CRC no-op, so a checksum recorded against the
// partial page stays valid.

StatusOr<std::string> RvmInstance::SegmentPathBothLocked(LogShard& shard,
                                                         SegmentId id) {
  for (const SegmentDictEntry& entry : shard.log->status().segments) {
    if (entry.id == id) {
      return entry.path;
    }
  }
  // Shard 0's dictionary is the allocation source of truth; reading it
  // without its log_mu is safe because the dictionary is only mutated under
  // state_mu_ (see OpenSegmentBothLocked).
  if (&shard != shards_[0].get()) {
    for (const SegmentDictEntry& entry : shards_[0]->log->status().segments) {
      if (entry.id == id) {
        return entry.path;
      }
    }
  }
  return NotFound("segment id not in dictionary");
}

StatusOr<SegmentChecksumMap*> RvmInstance::ChecksumMapBothLocked(
    LogShard& shard, SegmentId id) {
  auto it = shard.checksum_maps.find(id);
  if (it == shard.checksum_maps.end()) {
    RVM_ASSIGN_OR_RETURN(std::string path, SegmentPathBothLocked(shard, id));
    it = shard.checksum_maps
             .emplace(id, SegmentChecksumMap::Load(env_, path, page_size_))
             .first;
  }
  return &it->second;
}

Status RvmInstance::SaveChecksumMapBothLocked(LogShard& shard, SegmentId id) {
  auto it = shard.checksum_maps.find(id);
  if (it == shard.checksum_maps.end()) {
    return OkStatus();
  }
  Status saved = it->second.Save(env_);
  if (!saved.ok()) {
    shard.checksum_maps.erase(it);
    PoisonShard(shard, saved);
  }
  return saved;
}

Status RvmInstance::RefreshPageChecksumsBothLocked(
    LogShard& shard, SegmentId id, File& file,
    const std::vector<Interval>& written,
    const std::map<uint64_t, uint32_t>& page_crcs) {
  if (!checksums_enabled_ || (written.empty() && page_crcs.empty())) {
    return OkStatus();
  }
  RVM_ASSIGN_OR_RETURN(SegmentChecksumMap * chk,
                       ChecksumMapBothLocked(shard, id));
  for (const auto& [page, crc] : page_crcs) {
    chk->Set(page, crc);
  }
  RVM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  // Pages written only in part (log apply) are re-read from the file rather
  // than rebuilt from the in-memory source: the sidecar must describe the
  // durable bytes, whatever they are. One read per run of consecutive pages;
  // a batch's runs are all read before any page is checksummed, so the disk
  // streams through them rather than idling behind the CRCs.
  std::vector<uint64_t> pages;
  for (uint64_t page : PagesOverlapping(written, page_size_)) {
    if (page * page_size_ >= size) {
      break;
    }
    pages.push_back(page);
  }
  std::vector<uint8_t> buf;
  for (size_t batch = 0; batch < pages.size(); batch += kReadBackBatchPages) {
    const size_t batch_end =
        std::min(pages.size(), batch + kReadBackBatchPages);
    buf.assign((batch_end - batch) * page_size_, 0);
    for (size_t run = batch; run < batch_end;) {
      size_t run_end = run + 1;
      while (run_end < batch_end && pages[run_end] == pages[run_end - 1] + 1) {
        ++run_end;
      }
      const uint64_t start = pages[run] * page_size_;
      const uint64_t len = std::min((run_end - run) * page_size_, size - start);
      uint8_t* dst = buf.data() + (run - batch) * page_size_;
      RVM_ASSIGN_OR_RETURN(size_t got,
                           file.ReadAt(start, std::span<uint8_t>(dst, len)));
      if (got < len) {
        std::memset(dst + got, 0, len - got);
      }
      run = run_end;
    }
    for (size_t i = batch; i < batch_end; ++i) {
      const uint8_t* image = buf.data() + (i - batch) * page_size_;
      chk->Set(pages[i], Crc32(std::span<const uint8_t>(image, page_size_)));
      cpu_.Copy(page_size_);
    }
  }
  return SaveChecksumMapBothLocked(shard, id);
}

Status RvmInstance::DeferPageChecksumsBothLocked(
    LogShard& shard, SegmentId id, const std::vector<Interval>& written) {
  if (!checksums_enabled_ || written.empty()) {
    return OkStatus();
  }
  RVM_ASSIGN_OR_RETURN(SegmentChecksumMap * chk,
                       ChecksumMapBothLocked(shard, id));
  std::set<uint64_t>& pending = shard.pending_baselines[id];
  for (uint64_t page : PagesOverlapping(written, page_size_)) {
    chk->Forget(page);
    pending.insert(page);
  }
  return SaveChecksumMapBothLocked(shard, id);
}

Status RvmInstance::RecordPendingChecksumsBothLocked(LogShard& shard) {
  for (const auto& [id, pages] : shard.pending_baselines) {
    RVM_ASSIGN_OR_RETURN(SegmentChecksumMap * chk,
                         ChecksumMapBothLocked(shard, id));
    std::vector<Interval> unknown;
    for (uint64_t page : pages) {
      if (!chk->known(page)) {
        unknown.push_back({page * page_size_, (page + 1) * page_size_});
      }
    }
    if (unknown.empty()) {
      continue;
    }
    if (!segment_files_.contains(id)) {
      RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           OpenSegmentBothLocked(shard, id));
      segment_files_[id] = std::move(file);
    }
    RVM_RETURN_IF_ERROR(RefreshPageChecksumsBothLocked(
        shard, id, *segment_files_[id], unknown, {}));
  }
  shard.pending_baselines.clear();
  return OkStatus();
}

StatusOr<bool> RvmInstance::TryRepairPageFromLogBothLocked(
    LogShard& shard, SegmentId id, File& file, uint64_t page,
    uint64_t page_len, SegmentChecksumMap* chk) {
  // Newest-record-wins walk restricted to one page of one segment, with the
  // prepare filter of live truncation (DESIGN.md §12): a repair must
  // reconstruct exactly what a truncation would have written.
  const uint64_t target_start = page * page_size_;
  const uint64_t target_end = target_start + page_len;
  std::vector<uint8_t> image(page_size_, 0);
  IntervalSet covered;
  const uint64_t max_records = shard.log->capacity() / kRecordHeaderSize + 1;
  uint64_t walked = 0;
  uint64_t offset = shard.log->status().last_record_offset;
  while (offset != 0 && shard.log->InLiveRange(offset) &&
         covered.total_length() < page_len) {
    if (++walked > max_records) {
      return Corruption("record reverse displacement chain loops");
    }
    RVM_ASSIGN_OR_RETURN(OwnedRecord record, shard.log->ReadRecordAt(offset));
    const uint64_t record_offset = offset;
    offset = (record_offset == shard.log->status().head)
                 ? 0
                 : record.parsed.header.prev_offset;
    if (record.parsed.header.type == RecordType::kWrapFiller) {
      continue;
    }
    if ((record.parsed.header.flags & kRecordFlagShardPrepare) &&
        aborted_gtids_.contains(record.parsed.header.tid)) {
      continue;
    }
    for (const RangeView& range : record.parsed.ranges) {
      if (range.segment != id) {
        continue;
      }
      const uint64_t lo = std::max(range.offset, target_start);
      const uint64_t hi =
          std::min(range.offset + range.data.size(), target_end);
      if (lo >= hi) {
        continue;
      }
      for (const Interval& piece : covered.Uncovered(lo, hi)) {
        std::memcpy(image.data() + (piece.start - target_start),
                    range.data.data() + (piece.start - range.offset),
                    piece.length());
      }
      covered.Add(lo, hi);
    }
  }
  if (covered.total_length() < page_len) {
    // The page's newest committed image predates the last truncation: the
    // log cannot regenerate it. The caller escalates.
    return false;
  }
  RVM_RETURN_IF_ERROR(file.WriteAt(
      target_start, std::span<const uint8_t>(image.data(), page_len)));
  RVM_RETURN_IF_ERROR(file.Sync());
  if (chk != nullptr) {
    chk->Set(page, Crc32(std::span<const uint8_t>(image.data(), page_size_)));
  }
  ++stats_.pages_repaired;
  Trace(TraceEventType::kPageRepair, id, page);
  RVM_LOG_INFO("repaired segment %llu page %llu from live log records",
               static_cast<unsigned long long>(id),
               static_cast<unsigned long long>(page));
  return true;
}

Status RvmInstance::ScrubSegmentPages(uint32_t shard_index, SegmentId id,
                                      const std::string& segment_path,
                                      uint64_t first_page, uint64_t page_end,
                                      ScrubReport* report) {
  uint64_t page = first_page;
  while (true) {
    // One batch per acquisition of the staged locks, released in between so
    // an online scrub never stalls commits for more than one batch.
    std::lock_guard<std::mutex> lock(state_mu_);
    RVM_RETURN_IF_ERROR(FailIfPoisoned());
    LogShard& shard = *shards_[shard_index];
    if (shard.health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      return OkStatus();  // quarantined mid-scrub: stop, stay contained
    }
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    if (!segment_files_.contains(id)) {
      if (!env_->Exists(segment_path)) {
        return OkStatus();  // named in the dictionary but never written
      }
      RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           env_->Open(segment_path, OpenMode::kCreateIfMissing));
      segment_files_[id] = std::move(file);
    }
    File& file = *segment_files_[id];
    RVM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
    uint64_t limit = (size + page_size_ - 1) / page_size_;
    if (page_end != 0) {
      limit = std::min(limit, page_end);
    }
    if (page >= limit) {
      return OkStatus();
    }
    RVM_ASSIGN_OR_RETURN(SegmentChecksumMap * chk,
                         ChecksumMapBothLocked(shard, id));
    auto pending = shard.pending_baselines.find(id);
    const uint64_t batch_end = std::min(limit, page + kScrubBatchPages);
    std::vector<uint8_t> buf(page_size_);
    for (; page < batch_end; ++page) {
      const uint64_t start = page * page_size_;
      const uint64_t len = std::min(page_size_, size - start);
      std::memset(buf.data(), 0, page_size_);
      RVM_ASSIGN_OR_RETURN(
          size_t got, file.ReadAt(start, std::span<uint8_t>(buf.data(), len)));
      if (got < len) {
        std::memset(buf.data() + got, 0, len - got);
      }
      const uint32_t crc = Crc32(std::span<const uint8_t>(buf.data(), page_size_));
      cpu_.Copy(page_size_);
      ++report->pages_scrubbed;
      ++stats_.pages_scrubbed;
      if (!chk->known(page)) {
        // Trust-on-first-read: adopt the current image as the baseline
        // (which also settles a page recovery left pending for Map).
        chk->Set(page, crc);
        if (pending != shard.pending_baselines.end()) {
          pending->second.erase(page);
        }
        continue;
      }
      if (crc == chk->crc(page)) {
        continue;
      }
      ++report->mismatches;
      ++stats_.checksum_mismatches;
      Trace(TraceEventType::kChecksumMismatch, id, page);
      RVM_ASSIGN_OR_RETURN(
          bool repaired,
          TryRepairPageFromLogBothLocked(shard, id, file, page, len, chk));
      if (repaired) {
        ++report->repaired;
        continue;
      }
      // Unrepairable: keep the (stale-good) sidecar entry so later scrubs
      // still flag the page, persist the batch's baselines, and escalate.
      ++report->quarantined;
      ++stats_.pages_quarantined;
      RVM_RETURN_IF_ERROR(SaveChecksumMapBothLocked(shard, id));
      PoisonShard(shard,
                  Corruption("segment page failed checksum verification: " +
                             segment_path + " page " + std::to_string(page)));
      return OkStatus();  // contained; the report carries the outcome
    }
    RVM_RETURN_IF_ERROR(SaveChecksumMapBothLocked(shard, id));
    if (page >= limit) {
      return OkStatus();
    }
  }
}

StatusOr<RvmInstance::ScrubReport> RvmInstance::ScrubShard(uint32_t shard_index) {
  ScrubReport report;
  if (shard_index >= shards_.size()) {
    return InvalidArgument("shard index out of range");
  }
  if (!checksums_enabled_) {
    return report;
  }
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  std::vector<std::pair<SegmentId, std::string>> segments;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (shards_[shard_index]->health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      return report;  // quarantined/repairing: skipped gracefully
    }
    // Shard 0's dictionary names every segment; striping picks this shard's.
    for (const SegmentDictEntry& entry :
         shards_[0]->log->status().segments) {
      if (entry.id % shards_.size() == shard_index) {
        segments.emplace_back(entry.id, entry.path);
      }
    }
  }
  for (const auto& [id, path] : segments) {
    RVM_RETURN_IF_ERROR(
        ScrubSegmentPages(shard_index, id, path, 0, 0, &report));
    if (report.quarantined > 0) {
      break;  // the shard just left service; nothing more to verify here
    }
  }
  Trace(TraceEventType::kScrub, report.pages_scrubbed, report.mismatches);
  return report;
}

StatusOr<RvmInstance::ScrubReport> RvmInstance::ScrubRegion(
    const void* address) {
  ScrubReport report;
  if (!checksums_enabled_) {
    return report;
  }
  uint32_t shard_index = 0;
  SegmentId id = kInvalidSegmentId;
  std::string path;
  uint64_t first_page = 0;
  uint64_t page_end = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    RVM_ASSIGN_OR_RETURN(RegionState * region, FindRegionLocked(address, 1));
    shard_index = region->shard;
    id = region->segment_id;
    path = region->segment_path;
    first_page = region->segment_offset / page_size_;
    page_end = (region->segment_offset + region->length + page_size_ - 1) /
               page_size_;
  }
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  RVM_RETURN_IF_ERROR(
      ScrubSegmentPages(shard_index, id, path, first_page, page_end, &report));
  Trace(TraceEventType::kScrub, report.pages_scrubbed, report.mismatches);
  return report;
}

Status RvmInstance::ChecksumRegionOnMapLocked(SegmentId id,
                                              const std::string& seg_path,
                                              File& file,
                                              uint64_t segment_offset,
                                              uint64_t length, uint8_t* base) {
  LogShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> log_lock(shard.log_mu);
  const bool eager = verify_on_map_ == RvmOptions::VerifyOnMap::kEager;
  if (!eager && !shard.pending_baselines.contains(id)) {
    return OkStatus();  // lazy, and recovery left this segment nothing
  }
  RVM_ASSIGN_OR_RETURN(SegmentChecksumMap * chk,
                       ChecksumMapBothLocked(shard, id));
  Status failure = OkStatus();
  for (uint64_t off = 0; eager && off < length && failure.ok();
       off += page_size_) {
    const uint64_t page = (segment_offset + off) / page_size_;
    if (!chk->known(page)) {
      continue;  // nothing to verify against
    }
    const uint64_t len = std::min(page_size_, length - off);
    ++stats_.pages_scrubbed;
    cpu_.Copy(len);
    if (Crc32(std::span<const uint8_t>(base + off, len)) == chk->crc(page)) {
      continue;
    }
    ++stats_.checksum_mismatches;
    Trace(TraceEventType::kChecksumMismatch, id, page);
    RVM_ASSIGN_OR_RETURN(
        bool repaired,
        TryRepairPageFromLogBothLocked(shard, id, file, page, len, chk));
    if (repaired) {
      // The file now holds the repaired image; refresh the in-memory copy
      // that Map just filled from the corrupt bytes.
      RVM_ASSIGN_OR_RETURN(
          size_t got,
          file.ReadAt(page * page_size_, std::span<uint8_t>(base + off, len)));
      (void)got;
      continue;
    }
    ++stats_.pages_quarantined;
    failure = Corruption("segment page failed checksum verification at map: " +
                         seg_path + " page " + std::to_string(page));
  }
  // The pages recovery applied: `base` holds exactly their durable bytes
  // (recovery synced them, and nothing writes an unmapped range), zero-padded
  // to the page because Map rounds the file up with zeros. Checksumming the
  // copy-in spares reading them back (DESIGN.md §14).
  auto pending = shard.pending_baselines.find(id);
  if (failure.ok() && pending != shard.pending_baselines.end()) {
    const uint64_t first_page = segment_offset / page_size_;
    const uint64_t end_page = first_page + length / page_size_;
    std::set<uint64_t>& pages = pending->second;
    for (auto page = pages.lower_bound(first_page);
         page != pages.end() && *page < end_page; page = pages.erase(page)) {
      if (!chk->known(*page)) {
        const uint8_t* image = base + (*page - first_page) * page_size_;
        chk->Set(*page, Crc32(std::span<const uint8_t>(image, page_size_)));
        cpu_.Copy(page_size_);
      }
    }
    if (pages.empty()) {
      shard.pending_baselines.erase(pending);
    }
  }
  RVM_RETURN_IF_ERROR(SaveChecksumMapBothLocked(shard, id));
  if (!failure.ok()) {
    PoisonShard(shard, failure);
    return failure;
  }
  return OkStatus();
}

}  // namespace rvm
