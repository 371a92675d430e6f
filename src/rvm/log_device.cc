#include "src/rvm/log_device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/logging.h"

namespace rvm {
namespace {

// Free space we always keep in reserve so the area never fills completely
// (tail == head must unambiguously mean "empty") and a wrap filler always
// fits.
constexpr uint64_t kAppendSlack = 2 * kRecordHeaderSize;

constexpr uint64_t kMinLogSize = kLogDataStart + 16 * 1024;

// ScanLiveForward's read size. No larger than the torn-tail probe window
// (at least kInitialMaxRecordBytes plus a header), so the last chunk's
// overrun past the end of the log lies inside the window the probe reads
// anyway.
constexpr uint64_t kScanChunk = 64 * 1024;

constexpr uint8_t kRecordMagicBytes[4] = {
    static_cast<uint8_t>(kRecordMagic & 0xff),
    static_cast<uint8_t>((kRecordMagic >> 8) & 0xff),
    static_cast<uint8_t>((kRecordMagic >> 16) & 0xff),
    static_cast<uint8_t>((kRecordMagic >> 24) & 0xff),
};

}  // namespace

// Holds one contiguous stretch of the log area, [start_, start_ + size).
// A request inside it is served from memory; one that starts inside it but
// runs past its end keeps the held suffix and reads only the rest, so a
// sequential scan reads each byte from the file once.
class LogDevice::ChunkReader {
 public:
  explicit ChunkReader(LogDevice* log) : log_(log) {}

  // Bytes [offset, offset + length) of the log file; a file read fetches at
  // least kScanChunk bytes (clipped to the log). A failed read empties the
  // buffer, so no later request is served bytes from before it.
  StatusOr<std::span<const uint8_t>> Read(uint64_t offset, uint64_t length) {
    const uint64_t held_end = start_ + buffer_.size();
    if (offset >= start_ && offset + length <= held_end) {
      return std::span<const uint8_t>(buffer_).subspan(offset - start_, length);
    }
    uint64_t keep = 0;
    if (offset >= start_ && offset < held_end) {
      keep = held_end - offset;
      std::memmove(buffer_.data(), buffer_.data() + (offset - start_), keep);
    }
    const uint64_t size = std::min(std::max(length, kScanChunk),
                                   log_->status_.log_size - offset);
    buffer_.resize(size);
    start_ = offset;
    StatusOr<size_t> n = log_->ReadFullyRetry(
        offset + keep, std::span<uint8_t>(buffer_).subspan(keep, size - keep));
    if (!n.ok() || *n != size - keep) {
      buffer_.clear();
      if (!n.ok()) {
        return n.status();
      }
      return Corruption("short read of the log at offset " +
                        std::to_string(offset + keep));
    }
    return std::span<const uint8_t>(buffer_).subspan(0, length);
  }

  // The validated record at `offset` and its encoded size; views point
  // into the buffer and live until the next call.
  StatusOr<ParsedRecord> Record(uint64_t offset, uint64_t* size) {
    RVM_ASSIGN_OR_RETURN(std::span<const uint8_t> header,
                         Read(offset, kRecordHeaderSize));
    RVM_ASSIGN_OR_RETURN(RecordHeader peeked, PeekRecordHeader(header));
    *size = kRecordHeaderSize + peeked.payload_length;
    if (offset + *size > log_->status_.log_size) {
      return Corruption("record payload extends past the end of the log");
    }
    RVM_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, Read(offset, *size));
    return ParseRecord(bytes);
  }

 private:
  LogDevice* log_;
  uint64_t start_ = 0;
  std::vector<uint8_t> buffer_;
};

Status LogDevice::Create(Env* env, const std::string& path,
                         uint64_t total_size, bool overwrite) {
  if (total_size < kMinLogSize) {
    return InvalidArgument("log size too small (minimum 24 KB)");
  }
  if (!overwrite && env->Exists(path)) {
    return AlreadyExists("log already exists: " + path);
  }
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(file->Resize(total_size));
  // Materialize the whole log area now (no-op off the real environment) so
  // commit-path fsyncs never pay for extent allocation; see File::Preallocate.
  RVM_RETURN_IF_ERROR(file->Preallocate(total_size));

  LogStatusBlock status;
  status.generation = 1;
  status.log_size = total_size;
  status.head = kLogDataStart;
  status.tail = kLogDataStart;
  status.tail_seqno = 1;
  status.last_record_offset = 0;
  status.max_record_bytes = kInitialMaxRecordBytes;
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded, EncodeStatusBlock(status));
  // Write the same generation-1 content to both slots so a reader finds a
  // valid block regardless of which slot the first update lands in.
  RVM_RETURN_IF_ERROR(file->WriteAt(0, encoded));
  RVM_RETURN_IF_ERROR(file->WriteAt(kStatusBlockSize, encoded));
  return file->Sync();
}

StatusOr<std::unique_ptr<LogDevice>> LogDevice::Open(Env* env,
                                                     const std::string& path) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kReadWrite));
  // Read both status slots; take the valid one with the higher generation.
  std::vector<uint8_t> slot(kStatusBlockSize);
  StatusOr<LogStatusBlock> best = Corruption("no valid status block");
  for (uint64_t slot_offset : {uint64_t{0}, kStatusBlockSize}) {
    RVM_ASSIGN_OR_RETURN(size_t n, file->ReadAt(slot_offset, slot));
    if (n != kStatusBlockSize) {
      continue;
    }
    StatusOr<LogStatusBlock> decoded = DecodeStatusBlock(slot);
    if (decoded.ok() &&
        (!best.ok() || decoded->generation > best->generation)) {
      best = std::move(decoded);
    }
  }
  if (!best.ok()) {
    return Corruption("log has no valid status block: " + path);
  }
  RVM_ASSIGN_OR_RETURN(uint64_t file_size, file->Size());
  if (file_size < best->log_size) {
    return Corruption("log file shorter than its declared size: " + path);
  }
  return std::unique_ptr<LogDevice>(
      new LogDevice(env, path, std::move(file), std::move(*best)));
}

Status LogDevice::WriteManifest(Env* env, const std::string& path,
                                const LogManifest& manifest, bool overwrite) {
  if (!overwrite && env->Exists(path)) {
    return AlreadyExists("log already exists: " + path);
  }
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded,
                       EncodeLogManifest(manifest));
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(file->WriteAt(0, encoded));
  return file->Sync();
}

StatusOr<LogManifest> LogDevice::ReadManifest(Env* env,
                                              const std::string& path) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kReadWrite));
  std::vector<uint8_t> block(kManifestBlockSize);
  RVM_ASSIGN_OR_RETURN(size_t n, file->ReadAt(0, block));
  if (n != kManifestBlockSize) {
    return Corruption("manifest block truncated: " + path);
  }
  return DecodeLogManifest(block);
}

StatusOr<uint32_t> LogDevice::DetectShardCount(Env* env,
                                               const std::string& path) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kReadWrite));
  std::vector<uint8_t> head(4);
  RVM_ASSIGN_OR_RETURN(size_t n, file->ReadAt(0, head));
  if (n < 4) {
    return Corruption("log too short to classify: " + path);
  }
  uint32_t magic = 0;
  for (size_t i = 0; i < 4; ++i) {
    magic |= static_cast<uint32_t>(head[i]) << (8 * i);
  }
  if (magic == kStatusMagic) {
    return 1;
  }
  if (magic == kManifestMagic) {
    RVM_ASSIGN_OR_RETURN(LogManifest manifest, ReadManifest(env, path));
    return manifest.shard_count;
  }
  return Corruption("neither a log status block nor a shard manifest: " +
                    path);
}

void LogDevice::Poison(const Status& cause) {
  if (poisoned_.load(std::memory_order_acquire)) {
    return;  // first failure wins; keep the original cause
  }
  poison_cause_ = cause;
  poisoned_.store(true, std::memory_order_release);
  RVM_LOG_WARN("log device poisoned: %s", cause.ToString().c_str());
}

uint64_t LogDevice::used() const {
  if (status_.tail >= status_.head) {
    return status_.tail - status_.head;
  }
  return (status_.log_size - status_.head) + (status_.tail - kLogDataStart);
}

void LogDevice::NoteRetry() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retry_.on_retry) {
    retry_.on_retry();
  }
}

uint64_t LogDevice::RetryDelayUs(uint64_t attempt) {
  uint64_t delay = retry_.backoff_us;
  for (uint64_t i = 0; i < attempt && delay < retry_.backoff_max_us; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, retry_.backoff_max_us);
  // Deterministic xorshift jitter in [delay/2, delay], so shards retrying
  // the same hiccup do not re-collide in lockstep yet tests stay replayable.
  retry_jitter_state_ ^= retry_jitter_state_ << 13;
  retry_jitter_state_ ^= retry_jitter_state_ >> 7;
  retry_jitter_state_ ^= retry_jitter_state_ << 17;
  uint64_t half = delay / 2;
  return delay - half + (half > 0 ? retry_jitter_state_ % (half + 1) : 0);
}

Status LogDevice::WriteAtRetry(uint64_t offset, std::span<const uint8_t> bytes) {
  Status status = file_->WriteAt(offset, bytes);
  if (!status.ok() && IsTransientError(status.code()) && retry_.limit > 0) {
    retrying_.store(true, std::memory_order_release);
    for (uint64_t attempt = 0; attempt < retry_.limit && !status.ok() &&
                               IsTransientError(status.code());
         ++attempt) {
      NoteRetry();
      env_->SleepMicros(RetryDelayUs(attempt));
      // The same fd is fine for a write retry: a failed pwrite makes no
      // durability promise a retry could falsify, unlike a failed fsync.
      status = file_->WriteAt(offset, bytes);
    }
    retrying_.store(false, std::memory_order_release);
  }
  if (status.ok()) {
    unsynced_writes_.emplace_back(
        offset, std::vector<uint8_t>(bytes.begin(), bytes.end()));
  }
  return status;
}

StatusOr<size_t> LogDevice::ReadFullyRetry(uint64_t offset,
                                           std::span<uint8_t> out) {
  auto transient = [&](const StatusOr<size_t>& r) {
    if (!r.ok()) {
      return IsTransientError(r.status().code());
    }
    // Callers read inside [0, log_size) of a file at least log_size long,
    // so a short read cannot be end-of-file — treat it as transient.
    return *r < out.size();
  };
  StatusOr<size_t> result = file_->ReadAt(offset, out);
  if (transient(result) && retry_.limit > 0) {
    retrying_.store(true, std::memory_order_release);
    for (uint64_t attempt = 0; attempt < retry_.limit && transient(result);
         ++attempt) {
      NoteRetry();
      env_->SleepMicros(RetryDelayUs(attempt));
      result = file_->ReadAt(offset, out);
    }
    retrying_.store(false, std::memory_order_release);
  }
  return result;
}

Status LogDevice::ReopenForSyncRetry() {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> fresh,
                       env_->Open(path_, OpenMode::kReadWrite));
  // The failed fd's dirty pages may already have been dropped by the kernel,
  // so everything since the last successful sync is rewritten through the
  // fresh fd before it is trusted with a barrier.
  for (const auto& [offset, bytes] : unsynced_writes_) {
    RVM_RETURN_IF_ERROR(fresh->WriteAt(offset, bytes));
  }
  file_ = std::move(fresh);
  return OkStatus();
}

Status LogDevice::SyncWithReopenRetry() {
  Status status = file_->Sync();
  if (!status.ok() && IsTransientError(status.code()) && retry_.limit > 0) {
    retrying_.store(true, std::memory_order_release);
    for (uint64_t attempt = 0; attempt < retry_.limit; ++attempt) {
      NoteRetry();
      env_->SleepMicros(RetryDelayUs(attempt));
      // Never re-fsync the failed fd (see Sync()): reopen for a fresh fd,
      // replay the unsynced tail, and only then issue the barrier.
      status = ReopenForSyncRetry();
      if (status.ok()) {
        status = file_->Sync();
      }
      if (status.ok() || !IsTransientError(status.code())) {
        break;
      }
    }
    retrying_.store(false, std::memory_order_release);
  }
  if (status.ok()) {
    unsynced_writes_.clear();
  }
  return status;
}

Status LogDevice::WriteRaw(uint64_t offset, std::span<const uint8_t> bytes) {
  bytes_appended_ += bytes.size();
  Status status = WriteAtRetry(offset, bytes);
  if (!status.ok()) {
    // A failed append write leaves the device in an unknown state (the
    // kernel may have written any prefix); the in-memory tail no longer
    // describes the file reliably. Fail stop.
    Poison(status);
  }
  return status;
}

StatusOr<uint64_t> LogDevice::AppendTransaction(
    TransactionId tid, std::span<const RangeView> ranges, uint8_t flags) {
  if (poisoned()) {
    return poison_status();
  }
  std::vector<uint8_t> record = EncodeTransactionRecord(
      status_.tail_seqno, tid, status_.last_record_offset, ranges, flags);

  uint64_t need = record.size();
  if (need + kAppendSlack > capacity()) {
    return LogFull("record larger than the log area");
  }
  if (free_space() < need + kAppendSlack) {
    return LogFull("log free space exhausted");
  }
  if (need > status_.max_record_bytes) {
    // Recovery sizes its torn-tail probe from the durable bound, so the
    // raise must be on disk before a record this large can be.
    status_.max_record_bytes = std::bit_ceil(std::max(need, kInitialMaxRecordBytes));
    RVM_RETURN_IF_ERROR(WriteStatus());
  }

  uint64_t remaining_to_end = status_.log_size - status_.tail;
  if (remaining_to_end < need) {
    // Wrap: emit a filler (if a header fits) and restart at the area start.
    if (remaining_to_end >= kRecordHeaderSize) {
      std::vector<uint8_t> filler =
          EncodeWrapFiller(status_.tail_seqno, status_.last_record_offset);
      RVM_RETURN_IF_ERROR(WriteRaw(status_.tail, filler));
      status_.last_record_offset = status_.tail;
      ++status_.tail_seqno;
      // Re-encode with the updated seqno / displacement.
      record = EncodeTransactionRecord(
          status_.tail_seqno, tid, status_.last_record_offset, ranges, flags);
    }
    status_.tail = kLogDataStart;
    if (free_space() < need + kAppendSlack) {
      return LogFull("log free space exhausted at wrap");
    }
  }

  uint64_t offset = status_.tail;
  RVM_RETURN_IF_ERROR(WriteRaw(offset, record));
  status_.last_record_offset = offset;
  status_.tail = offset + record.size();
  ++status_.tail_seqno;
  ++records_appended_;
  appended_lsn_.fetch_add(1, std::memory_order_release);
  return offset;
}

Status LogDevice::Sync() {
  if (poisoned()) {
    // Never retry a failed fsync on the same fd: the kernel may have
    // already discarded the dirty pages, so a "successful" retry would
    // report durability for data that never reached the device.
    return poison_status();
  }
  // The caller's log lock excludes appends, so every record counted in
  // appended_lsn_ is in the file before the barrier below.
  uint64_t target = appended_lsn_.load(std::memory_order_acquire);
  ++syncs_;
  Status status = SyncWithReopenRetry();
  if (!status.ok()) {
    Poison(status);
    return status;
  }
  durable_lsn_.store(target, std::memory_order_release);
  return OkStatus();
}

Status LogDevice::WriteStatus() {
  if (poisoned()) {
    return poison_status();
  }
  if (durable_lsn() < appended_lsn()) {
    RVM_RETURN_IF_ERROR(Sync());
  }
  // Encode with the bumped generation but commit the bump only after the
  // write sticks. Bumping first would make an encode or write failure skip
  // a slot: the next successful update would then land on the same slot as
  // the last valid block, and a torn write there could roll the log status
  // back by two generations.
  LogStatusBlock next = status_;
  ++next.generation;
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded, EncodeStatusBlock(next));
  uint64_t slot_offset = (next.generation % 2 == 0) ? 0 : kStatusBlockSize;
  Status write = WriteAtRetry(slot_offset, encoded);
  if (!write.ok()) {
    Poison(write);
    return write;
  }
  Status synced = SyncWithReopenRetry();
  if (!synced.ok()) {
    Poison(synced);
    return synced;
  }
  status_.generation = next.generation;
  return OkStatus();
}

StatusOr<OwnedRecord> LogDevice::ReadRecordAt(uint64_t offset) {
  OwnedRecord record;
  record.offset = offset;
  record.bytes.resize(kRecordHeaderSize);
  RVM_ASSIGN_OR_RETURN(size_t n, ReadFullyRetry(offset, record.bytes));
  if (n != kRecordHeaderSize) {
    return Corruption("short read of record header");
  }
  RVM_ASSIGN_OR_RETURN(RecordHeader header, PeekRecordHeader(record.bytes));
  if (offset + kRecordHeaderSize + header.payload_length > status_.log_size) {
    // A garbage header can claim any payload length (up to 4 GiB); bound it
    // by the log area before trusting it, so salvage scans over random
    // bytes never attempt absurd reads.
    return Corruption("record payload extends past the end of the log");
  }
  if (header.payload_length > 0) {
    record.bytes.resize(kRecordHeaderSize + header.payload_length);
    RVM_ASSIGN_OR_RETURN(
        size_t payload_read,
        ReadFullyRetry(offset + kRecordHeaderSize,
                       std::span<uint8_t>(record.bytes)
                           .subspan(kRecordHeaderSize)));
    if (payload_read != header.payload_length) {
      return Corruption("short read of record payload");
    }
  }
  RVM_ASSIGN_OR_RETURN(record.parsed, ParseRecord(record.bytes));
  return record;
}

StatusOr<uint64_t> LogDevice::ExtendTailForward() {
  ChunkReader reader(this);
  return ExtendTail(&reader, /*visit=*/nullptr);
}

StatusOr<uint64_t> LogDevice::ScanLiveForward(const RecordVisitor& visit,
                                              bool extend_tail) {
  ChunkReader reader(this);
  // [head, tail): records the status block (or, on a live log, the
  // in-memory tail) declares committed. Any failure here is corruption of
  // committed data, never a torn tail.
  uint64_t offset = status_.head;
  uint64_t scanned = 0;
  uint64_t prev = 0;
  uint64_t next_seqno = 0;
  bool first = true;
  while (offset != status_.tail) {
    if (status_.log_size - offset < kRecordHeaderSize) {
      scanned += status_.log_size - offset;
      offset = kLogDataStart;  // writers wrap implicitly here
      continue;
    }
    if (scanned >= capacity()) {
      return Corruption("live log records do not end at the tail offset " +
                        std::to_string(status_.tail));
    }
    uint64_t size = 0;
    StatusOr<ParsedRecord> record = reader.Record(offset, &size);
    if (!record.ok()) {
      return Status(record.status().code(),
                    "live log record unreadable at offset " +
                        std::to_string(offset) + " (before the tail at " +
                        std::to_string(status_.tail) +
                        "): " + record.status().message());
    }
    const RecordHeader& header = record->header;
    if (!first && (header.seqno != next_seqno || header.prev_offset != prev)) {
      return Corruption(
          "live log out of sequence at offset " + std::to_string(offset) +
          ": expected seqno " + std::to_string(next_seqno) + " after offset " +
          std::to_string(prev) + ", found seqno " +
          std::to_string(header.seqno) + " after offset " +
          std::to_string(header.prev_offset));
    }
    RVM_RETURN_IF_ERROR(visit(offset, *record));
    first = false;
    prev = offset;
    next_seqno = header.seqno + 1;
    if (header.type == RecordType::kWrapFiller) {
      scanned += status_.log_size - offset;
      offset = kLogDataStart;
    } else {
      scanned += size;
      offset += size;
    }
  }
  if (!first && (next_seqno != status_.tail_seqno ||
                 prev != status_.last_record_offset)) {
    return Corruption("live log ends at seqno " +
                      std::to_string(next_seqno - 1) + " (offset " +
                      std::to_string(prev) + ") but its tail expects seqno " +
                      std::to_string(status_.tail_seqno - 1) + " (offset " +
                      std::to_string(status_.last_record_offset) + ")");
  }
  if (!extend_tail) {
    return uint64_t{0};
  }
  return ExtendTail(&reader, &visit);
}

StatusOr<uint64_t> LogDevice::ExtendTail(ChunkReader* reader,
                                         const RecordVisitor* visit) {
  uint64_t found = 0;
  uint64_t scanned = 0;
  while (scanned < capacity()) {
    if (status_.log_size - status_.tail < kRecordHeaderSize) {
      // Too little room for any record: writers wrap implicitly here.
      scanned += status_.log_size - status_.tail;
      status_.tail = kLogDataStart;
      continue;
    }
    uint64_t size = 0;
    StatusOr<ParsedRecord> record = reader->Record(status_.tail, &size);
    if (!record.ok() && record.status().code() != ErrorCode::kCorruption) {
      return record.status();  // a failed read says nothing about the bytes
    }
    if (!record.ok()) {
      // Unreadable bytes at the expected position: either a torn final
      // append (expected after a crash — stop here and truncate) or media
      // corruption of a committed record. Writes persist in order, so if a
      // valid successor carries this or a later sequence number, the
      // unreadable record must once have been durable: that is corruption
      // of committed data, and silently truncating would discard committed
      // transactions.
      RVM_ASSIGN_OR_RETURN(bool successor, ProbeForSuccessor(reader));
      if (successor) {
        return Corruption(
            "committed log record unreadable at offset " +
            std::to_string(status_.tail) + " (seqno " +
            std::to_string(status_.tail_seqno) +
            "): a later record survives, so this is media corruption, not a "
            "torn tail; run `rvmutl <log> verify` for a salvage report");
      }
      break;  // torn or unwritten tail: the true end of the log
    }
    if (record->header.seqno != status_.tail_seqno) {
      if (record->header.seqno > status_.tail_seqno) {
        return Corruption(
            "log sequence gap at offset " + std::to_string(status_.tail) +
            ": expected seqno " + std::to_string(status_.tail_seqno) +
            ", found " + std::to_string(record->header.seqno));
      }
      break;  // stale record from a previous trip around the area
    }
    if (record->header.prev_offset != status_.last_record_offset) {
      return Corruption("log chain broken at offset " +
                        std::to_string(status_.tail) + ": record names " +
                        std::to_string(record->header.prev_offset) +
                        " as its predecessor, not " +
                        std::to_string(status_.last_record_offset));
    }
    if (visit != nullptr) {
      RVM_RETURN_IF_ERROR((*visit)(status_.tail, *record));
    }
    status_.last_record_offset = status_.tail;
    ++status_.tail_seqno;
    ++found;
    if (record->header.type == RecordType::kWrapFiller) {
      scanned += status_.log_size - status_.tail;
      status_.tail = kLogDataStart;
    } else {
      scanned += size;
      status_.tail += size;
    }
  }
  return found;
}

StatusOr<bool> LogDevice::ProbeForSuccessor(ChunkReader* reader) {
  const uint64_t bound = status_.max_record_bytes;
  std::vector<uint64_t> found;
  if (bound == 0 || bound + kRecordHeaderSize >= capacity()) {
    // No durable bound (a block written before the field existed), or one
    // as large as the area: probe everything.
    RVM_RETURN_IF_ERROR(ScanRangeForRecords(kLogDataStart, status_.log_size,
                                            status_.tail_seqno, 1, &found));
    return !found.empty();
  }
  // The unreadable record is at most `bound` bytes long, so its successor
  // starts within `bound` bytes of it — or, if the successor did not fit
  // before the end of the area, at kLogDataStart (after a wrap filler, when
  // one fit). The extra header's worth of window covers a filler-less wrap.
  const uint64_t window = bound + kRecordHeaderSize;
  const uint64_t before_end = std::min(window, status_.log_size - status_.tail);
  // Candidate starts in the window, plus the magic's three-byte lookahead.
  const uint64_t length =
      std::min<uint64_t>(before_end + sizeof(kRecordMagicBytes) - 1,
                         status_.log_size - status_.tail);
  RVM_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                       reader->Read(status_.tail, length));
  RVM_RETURN_IF_ERROR(FindRecordsIn(bytes, status_.tail, before_end,
                                    status_.tail_seqno, 1, &found));
  if (found.empty() && before_end < window) {
    RVM_RETURN_IF_ERROR(ScanRangeForRecords(
        kLogDataStart, kLogDataStart + (window - before_end),
        status_.tail_seqno, 1, &found));
  }
  return !found.empty();
}

StatusOr<std::vector<uint64_t>> LogDevice::ScanForRecords(uint64_t min_seqno,
                                                          size_t max_results) {
  std::vector<uint64_t> offsets;
  RVM_RETURN_IF_ERROR(ScanRangeForRecords(kLogDataStart, status_.log_size,
                                          min_seqno, max_results, &offsets));
  return offsets;
}

Status LogDevice::ScanRangeForRecords(uint64_t begin, uint64_t end,
                                      uint64_t min_seqno, size_t max_results,
                                      std::vector<uint64_t>* offsets) {
  constexpr uint64_t kChunk = 64 * 1024;
  constexpr uint64_t kLookahead = sizeof(kRecordMagicBytes) - 1;
  end = std::min(end, status_.log_size);
  std::vector<uint8_t> buffer(std::min(kChunk, end - std::min(begin, end)) +
                              kLookahead);
  for (uint64_t chunk_start = begin;
       chunk_start < end && offsets->size() < max_results;
       chunk_start += kChunk) {
    // Match starts lie in [chunk_start, min(chunk_start + kChunk, end));
    // reads run 3 bytes past that so a magic straddling a chunk boundary is
    // still seen, and the overlap never yields a duplicate.
    const uint64_t starts = std::min(kChunk, end - chunk_start);
    const uint64_t want = std::min<uint64_t>(starts + kLookahead,
                                             status_.log_size - chunk_start);
    RVM_ASSIGN_OR_RETURN(
        size_t n,
        file_->ReadAt(chunk_start, std::span<uint8_t>(buffer).subspan(0, want)));
    if (n < sizeof(kRecordMagicBytes)) {
      break;
    }
    RVM_RETURN_IF_ERROR(
        FindRecordsIn(std::span<const uint8_t>(buffer).subspan(0, n),
                      chunk_start, starts, min_seqno, max_results, offsets));
  }
  return OkStatus();
}

Status LogDevice::FindRecordsIn(std::span<const uint8_t> bytes, uint64_t base,
                                uint64_t starts, uint64_t min_seqno,
                                size_t max_results,
                                std::vector<uint64_t>* offsets) {
  // Stale records from earlier trips around the circular area always carry
  // sequence numbers below the current tail_seqno, so filtering on
  // min_seqno makes this scan safe to run over any part of the area.
  for (size_t i = 0; i + sizeof(kRecordMagicBytes) <= bytes.size() &&
                     i < starts && offsets->size() < max_results;
       ++i) {
    if (std::memcmp(bytes.data() + i, kRecordMagicBytes,
                    sizeof(kRecordMagicBytes)) != 0) {
      continue;
    }
    // Bytes that do not parse are no record; a failed read is no answer,
    // and taking it for one could hide a successor.
    StatusOr<OwnedRecord> record = ReadRecordAt(base + i);
    if (!record.ok() && record.status().code() != ErrorCode::kCorruption) {
      return record.status();
    }
    if (record.ok() && record->parsed.header.seqno >= min_seqno) {
      offsets->push_back(base + i);
    }
  }
  return OkStatus();
}

bool LogDevice::InLiveRange(uint64_t offset) const {
  if (offset < kLogDataStart || offset >= status_.log_size) {
    return false;
  }
  if (status_.head == status_.tail) {
    return false;  // empty
  }
  if (status_.head < status_.tail) {
    return offset >= status_.head && offset < status_.tail;
  }
  return offset >= status_.head || offset < status_.tail;
}

StatusOr<std::vector<uint64_t>> LogDevice::CollectRecordOffsets() {
  std::vector<uint64_t> offsets;
  const uint64_t max_records = capacity() / kRecordHeaderSize + 1;
  uint64_t offset = status_.last_record_offset;
  while (offset != 0 && InLiveRange(offset)) {
    offsets.push_back(offset);
    if (offsets.size() > max_records) {
      return Corruption("record reverse displacement chain loops");
    }
    if (offset == status_.head) {
      break;  // reached the oldest live record
    }
    RVM_ASSIGN_OR_RETURN(OwnedRecord record, ReadRecordAt(offset));
    offset = record.parsed.header.prev_offset;
  }
  return offsets;
}

void LogDevice::MarkEmpty() {
  status_.head = status_.tail;
  status_.last_record_offset = 0;
}

}  // namespace rvm
