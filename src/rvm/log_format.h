// On-disk format of the RVM write-ahead log.
//
// Layout of a log file (or raw partition):
//
//   [ status block copy A | status block copy B | circular record area ... ]
//     4 KB                  4 KB                  log_size - 8 KB
//
// The status block is duplicated and carries a generation number: updates
// alternate slots, and the reader takes the valid copy with the higher
// generation, making status updates atomic with respect to crashes. It holds
// the head/tail offsets, the sequence number expected at the tail, the
// segment dictionary mapping compact segment ids to external-data-segment
// paths, and a bound on the size of any record appended since it was
// written. It is rewritten at truncation, dictionary change, recovery and
// Terminate, never per commit (§5.1.1): records forced after the last
// status write are found at recovery by scanning forward from its tail, and
// the record-size bound keeps that scan's torn-tail probe to a window past
// the last readable record.
//
// A committed transaction is one record (Figure 5 of the paper):
//
//   RecordHeader | RangeHeader | new-value bytes | RangeHeader | bytes | ...
//
// The header carries a forward displacement (payload length) and a reverse
// displacement (absolute offset of the previous record), so the log can be
// read in either direction; a CRC over the whole record makes commit atomic
// (a torn record fails validation and is treated as beyond end-of-log), and
// strictly increasing sequence numbers distinguish fresh records from stale
// data of a previous trip around the circular area.
//
// When a record does not fit between the tail and the end of the area, a
// WrapFiller record (header only) is written and the record starts over at
// the beginning of the area.
#ifndef RVM_RVM_LOG_FORMAT_H_
#define RVM_RVM_LOG_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/rvm/types.h"
#include "src/util/status.h"

namespace rvm {

inline constexpr uint32_t kStatusMagic = 0x52564C47;  // "RVLG"
inline constexpr uint32_t kRecordMagic = 0x52564D52;  // "RVMR"
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint64_t kStatusBlockSize = 4096;
inline constexpr uint64_t kLogDataStart = 2 * kStatusBlockSize;
inline constexpr size_t kRecordHeaderSize = 48;
inline constexpr size_t kRangeHeaderSize = 24;
// Longest segment path storable in the status block dictionary.
inline constexpr size_t kMaxSegmentPath = 230;
// LogStatusBlock::max_record_bytes of a freshly created log: larger than any
// ordinary commit record, so only an unusually large commit ever raises it.
inline constexpr uint64_t kInitialMaxRecordBytes = 64 * 1024;

enum class RecordType : uint8_t {
  kTransaction = 1,
  kWrapFiller = 2,
};

// RecordHeader::flags bits for cross-shard transactions (DESIGN.md §12).
// Plain single-shard transactions carry flags == 0, which is also what every
// record written before sharding existed carries — the bits are purely
// additive. A cross-shard commit writes one kShardPrepare record per
// participant shard (carrying that shard's new-value ranges), then a
// kShardDecision record on the coordinator shard (the commit point), then
// kShardCommit markers on the remaining participants. Recovery unions the
// decided transaction ids across all shards and skips prepare records whose
// transaction was never decided (presumed abort).
inline constexpr uint8_t kRecordFlagShardPrepare = 0x1;
inline constexpr uint8_t kRecordFlagShardDecision = 0x2;
inline constexpr uint8_t kRecordFlagShardCommit = 0x4;

struct SegmentDictEntry {
  SegmentId id = kInvalidSegmentId;
  std::string path;
};

// In-memory form of the log status block.
struct LogStatusBlock {
  uint64_t generation = 0;
  uint64_t log_size = 0;  // total log file size, including status blocks
  uint64_t head = kLogDataStart;
  uint64_t tail = kLogDataStart;
  // Sequence number the next record written at `tail` will carry; recovery
  // validates forward-scanned records against this.
  uint64_t tail_seqno = 1;
  // Absolute offset of the newest record at the time the block was written
  // (0 when the log is empty); seeds the reverse-displacement chain.
  uint64_t last_record_offset = 0;
  SegmentId next_segment_id = 1;
  std::vector<SegmentDictEntry> segments;
  // Power-of-two high-water mark over the encoded size of every record
  // appended to the log. An append that would exceed it raises it with a
  // synced status write first, so the durable block always bounds every
  // record past its tail. 0 in a block written before the field existed:
  // the bound is then unknown.
  uint64_t max_record_bytes = 0;
};

// Serializes to exactly kStatusBlockSize bytes (CRC included).
// Fails if the segment dictionary does not fit.
StatusOr<std::vector<uint8_t>> EncodeStatusBlock(const LogStatusBlock& block);

// Returns kCorruption for an invalid block (bad magic/CRC/version).
StatusOr<LogStatusBlock> DecodeStatusBlock(std::span<const uint8_t> bytes);

struct RecordHeader {
  RecordType type = RecordType::kTransaction;
  uint8_t flags = 0;
  uint64_t seqno = 0;
  TransactionId tid = 0;
  uint32_t num_ranges = 0;
  uint32_t payload_length = 0;  // forward displacement: bytes after header
  uint64_t prev_offset = 0;     // reverse displacement: previous record (0 = none)
};

// One modification range inside a transaction record.
struct RangeView {
  SegmentId segment = kInvalidSegmentId;
  uint64_t offset = 0;  // byte offset within the segment
  std::span<const uint8_t> data;
};

struct ParsedRecord {
  RecordHeader header;
  std::vector<RangeView> ranges;  // views into the caller's buffer
};

// Serializes a complete transaction record (header + ranges + CRC).
std::vector<uint8_t> EncodeTransactionRecord(uint64_t seqno, TransactionId tid,
                                             uint64_t prev_offset,
                                             std::span<const RangeView> ranges,
                                             uint8_t flags = 0);

// Serializes a wrap filler (header-only record directing readers back to
// kLogDataStart).
std::vector<uint8_t> EncodeWrapFiller(uint64_t seqno, uint64_t prev_offset);

// Total encoded size of a transaction record with the given range sizes.
uint64_t TransactionRecordSize(std::span<const uint64_t> range_lengths);

// Parses and CRC-validates the record at the start of `bytes` (which must
// contain the full record). Range data spans point into `bytes`.
StatusOr<ParsedRecord> ParseRecord(std::span<const uint8_t> bytes);

// Parses only the fixed header, without CRC validation of the payload (the
// caller reads the payload afterwards and calls ParseRecord for full
// validation). Returns kCorruption on bad magic or nonsensical fields.
StatusOr<RecordHeader> PeekRecordHeader(std::span<const uint8_t> bytes);

// ---------------------------------------------------------------------------
// Multi-shard log manifest (DESIGN.md §12)
// ---------------------------------------------------------------------------
//
// A log created with more than one shard stores a manifest block at the base
// log path; the shard logs themselves (ordinary single-log files) live at
// "<path>.shard<K>" for K in [0, shard_count). The manifest's magic differs
// from the status-block magic, so the first 4 KB of a log path always
// identifies the layout: status magic = single log, manifest magic = shard
// set. The shard layout is fixed at CreateLog time and the manifest is never
// rewritten, so a single copy (plus CRC) suffices — there is no update to
// tear.

inline constexpr uint32_t kManifestMagic = 0x52564D46;  // "RVMF"
inline constexpr uint64_t kManifestBlockSize = 4096;

struct LogManifest {
  uint32_t shard_count = 0;
  uint64_t shard_log_size = 0;  // size of each shard log file
};

// Serializes to exactly kManifestBlockSize bytes (CRC included).
StatusOr<std::vector<uint8_t>> EncodeLogManifest(const LogManifest& manifest);

// Returns kCorruption for an invalid block (bad magic/CRC/version).
StatusOr<LogManifest> DecodeLogManifest(std::span<const uint8_t> bytes);

// Shard log path naming scheme.
std::string ShardLogPath(const std::string& base_path, uint32_t shard);

}  // namespace rvm

#endif  // RVM_RVM_LOG_FORMAT_H_
