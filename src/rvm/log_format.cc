#include "src/rvm/log_format.h"

#include "src/util/crc32.h"
#include "src/util/serialize.h"

namespace rvm {
namespace {

// Byte offsets within the serialized record header. The CRC field is last so
// it can be computed over everything before it plus the payload.
//   magic u32 | type u8 | flags u8 | pad u16 | seqno u64 | tid u64 |
//   num_ranges u32 | payload_len u32 | prev_offset u64 | pad u32 | crc u32
constexpr size_t kCrcFieldOffset = kRecordHeaderSize - 4;

void EncodeHeaderWithoutCrc(ByteWriter& writer, const RecordHeader& header) {
  writer.U32(kRecordMagic);
  writer.U8(static_cast<uint8_t>(header.type));
  writer.U8(header.flags);
  writer.U16(0);
  writer.U64(header.seqno);
  writer.U64(header.tid);
  writer.U32(header.num_ranges);
  writer.U32(header.payload_length);
  writer.U64(header.prev_offset);
  writer.U32(0);  // pad
}

uint32_t RecordCrc(std::span<const uint8_t> record_bytes) {
  // CRC covers the header up to the CRC field, then the payload after it.
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, record_bytes.subspan(0, kCrcFieldOffset));
  crc = Crc32Update(crc, record_bytes.subspan(kRecordHeaderSize));
  return Crc32Finish(crc);
}

void PatchCrc(std::vector<uint8_t>& record_bytes) {
  uint32_t crc = RecordCrc(record_bytes);
  for (size_t i = 0; i < 4; ++i) {
    record_bytes[kCrcFieldOffset + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

}  // namespace

StatusOr<std::vector<uint8_t>> EncodeStatusBlock(const LogStatusBlock& block) {
  ByteWriter writer;
  writer.U32(kStatusMagic);
  writer.U32(kFormatVersion);
  writer.U64(block.generation);
  writer.U64(block.log_size);
  writer.U64(block.head);
  writer.U64(block.tail);
  writer.U64(block.tail_seqno);
  writer.U64(block.last_record_offset);
  writer.U32(block.next_segment_id);
  writer.U32(static_cast<uint32_t>(block.segments.size()));
  for (const SegmentDictEntry& entry : block.segments) {
    if (entry.path.size() > kMaxSegmentPath) {
      return InvalidArgument("segment path too long: " + entry.path);
    }
    writer.U32(entry.id);
    writer.LengthPrefixedString(entry.path);
  }
  // After the dictionary, where an older block has zero padding: such a
  // block decodes with max_record_bytes == 0.
  writer.U64(block.max_record_bytes);
  // CRC goes in the last 4 bytes of the block, over everything before it.
  if (writer.size() + 4 > kStatusBlockSize) {
    return InvalidArgument("segment dictionary does not fit in status block");
  }
  std::vector<uint8_t> bytes = std::move(writer).Take();
  bytes.resize(kStatusBlockSize - 4, 0);
  uint32_t crc = Crc32(bytes);
  ByteWriter tail_writer(&bytes);
  tail_writer.U32(crc);
  return bytes;
}

StatusOr<LogStatusBlock> DecodeStatusBlock(std::span<const uint8_t> bytes) {
  if (bytes.size() != kStatusBlockSize) {
    return Corruption("status block has wrong size");
  }
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(bytes[kStatusBlockSize - 4 + i]) << (8 * i);
  }
  if (Crc32(bytes.subspan(0, kStatusBlockSize - 4)) != stored_crc) {
    return Corruption("status block CRC mismatch");
  }
  ByteReader reader(bytes);
  if (reader.U32() != kStatusMagic) {
    return Corruption("status block magic mismatch");
  }
  if (reader.U32() != kFormatVersion) {
    return Corruption("unsupported log format version");
  }
  LogStatusBlock block;
  block.generation = reader.U64();
  block.log_size = reader.U64();
  block.head = reader.U64();
  block.tail = reader.U64();
  block.tail_seqno = reader.U64();
  block.last_record_offset = reader.U64();
  block.next_segment_id = reader.U32();
  uint32_t count = reader.U32();
  for (uint32_t i = 0; i < count && reader.ok(); ++i) {
    SegmentDictEntry entry;
    entry.id = reader.U32();
    entry.path = reader.LengthPrefixedString();
    block.segments.push_back(std::move(entry));
  }
  // An older block whose dictionary runs into the CRC has no room for the
  // field at all.
  if (reader.remaining() >= sizeof(uint64_t) + 4) {
    block.max_record_bytes = reader.U64();
  }
  if (reader.failed()) {
    return Corruption("status block truncated");
  }
  return block;
}

uint64_t TransactionRecordSize(std::span<const uint64_t> range_lengths) {
  uint64_t size = kRecordHeaderSize;
  for (uint64_t length : range_lengths) {
    size += kRangeHeaderSize + length;
  }
  return size;
}

std::vector<uint8_t> EncodeTransactionRecord(uint64_t seqno, TransactionId tid,
                                             uint64_t prev_offset,
                                             std::span<const RangeView> ranges,
                                             uint8_t flags) {
  uint64_t payload = 0;
  for (const RangeView& range : ranges) {
    payload += kRangeHeaderSize + range.data.size();
  }
  RecordHeader header;
  header.type = RecordType::kTransaction;
  header.flags = flags;
  header.seqno = seqno;
  header.tid = tid;
  header.num_ranges = static_cast<uint32_t>(ranges.size());
  header.payload_length = static_cast<uint32_t>(payload);
  header.prev_offset = prev_offset;

  ByteWriter writer;
  EncodeHeaderWithoutCrc(writer, header);
  writer.U32(0);  // CRC placeholder
  for (const RangeView& range : ranges) {
    writer.U32(range.segment);
    writer.U32(0);  // pad
    writer.U64(range.offset);
    writer.U64(range.data.size());
    writer.Bytes(range.data);
  }
  std::vector<uint8_t> bytes = std::move(writer).Take();
  PatchCrc(bytes);
  return bytes;
}

std::vector<uint8_t> EncodeWrapFiller(uint64_t seqno, uint64_t prev_offset) {
  RecordHeader header;
  header.type = RecordType::kWrapFiller;
  header.seqno = seqno;
  header.prev_offset = prev_offset;
  ByteWriter writer;
  EncodeHeaderWithoutCrc(writer, header);
  writer.U32(0);  // CRC placeholder
  std::vector<uint8_t> bytes = std::move(writer).Take();
  PatchCrc(bytes);
  return bytes;
}

StatusOr<RecordHeader> PeekRecordHeader(std::span<const uint8_t> bytes) {
  if (bytes.size() < kRecordHeaderSize) {
    return Corruption("record header truncated");
  }
  ByteReader reader(bytes);
  if (reader.U32() != kRecordMagic) {
    return Corruption("record magic mismatch");
  }
  RecordHeader header;
  uint8_t type = reader.U8();
  if (type != static_cast<uint8_t>(RecordType::kTransaction) &&
      type != static_cast<uint8_t>(RecordType::kWrapFiller)) {
    return Corruption("unknown record type");
  }
  header.type = static_cast<RecordType>(type);
  header.flags = reader.U8();
  reader.U16();  // pad
  header.seqno = reader.U64();
  header.tid = reader.U64();
  header.num_ranges = reader.U32();
  header.payload_length = reader.U32();
  header.prev_offset = reader.U64();
  if (header.type == RecordType::kWrapFiller && header.payload_length != 0) {
    return Corruption("wrap filler with payload");
  }
  return header;
}

StatusOr<ParsedRecord> ParseRecord(std::span<const uint8_t> bytes) {
  RVM_ASSIGN_OR_RETURN(RecordHeader header, PeekRecordHeader(bytes));
  uint64_t total = kRecordHeaderSize + header.payload_length;
  if (bytes.size() < total) {
    return Corruption("record payload truncated");
  }
  std::span<const uint8_t> record_bytes = bytes.subspan(0, total);
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(record_bytes[kCrcFieldOffset + i]) << (8 * i);
  }
  if (RecordCrc(record_bytes) != stored_crc) {
    return Corruption("record CRC mismatch");
  }

  ParsedRecord parsed;
  parsed.header = header;
  ByteReader reader(record_bytes.subspan(kRecordHeaderSize));
  for (uint32_t i = 0; i < header.num_ranges; ++i) {
    RangeView range;
    range.segment = reader.U32();
    reader.U32();  // pad
    range.offset = reader.U64();
    uint64_t length = reader.U64();
    range.data = reader.Bytes(length);
    if (reader.failed()) {
      return Corruption("record range truncated");
    }
    parsed.ranges.push_back(range);
  }
  if (reader.remaining() != 0) {
    return Corruption("record has trailing bytes");
  }
  return parsed;
}

StatusOr<std::vector<uint8_t>> EncodeLogManifest(const LogManifest& manifest) {
  if (manifest.shard_count < 2) {
    // A single-shard log is an ordinary log file; writing a manifest for it
    // would change the on-disk format for the default configuration.
    return InvalidArgument("manifest requires at least 2 shards");
  }
  ByteWriter writer;
  writer.U32(kManifestMagic);
  writer.U32(kFormatVersion);
  writer.U32(manifest.shard_count);
  writer.U32(0);  // pad
  writer.U64(manifest.shard_log_size);
  std::vector<uint8_t> bytes = std::move(writer).Take();
  bytes.resize(kManifestBlockSize - 4, 0);
  uint32_t crc = Crc32(bytes);
  ByteWriter tail_writer(&bytes);
  tail_writer.U32(crc);
  return bytes;
}

StatusOr<LogManifest> DecodeLogManifest(std::span<const uint8_t> bytes) {
  if (bytes.size() != kManifestBlockSize) {
    return Corruption("manifest block has wrong size");
  }
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < 4; ++i) {
    stored_crc |=
        static_cast<uint32_t>(bytes[kManifestBlockSize - 4 + i]) << (8 * i);
  }
  if (Crc32(bytes.subspan(0, kManifestBlockSize - 4)) != stored_crc) {
    return Corruption("manifest block CRC mismatch");
  }
  ByteReader reader(bytes);
  if (reader.U32() != kManifestMagic) {
    return Corruption("manifest magic mismatch");
  }
  if (reader.U32() != kFormatVersion) {
    return Corruption("unsupported manifest version");
  }
  LogManifest manifest;
  manifest.shard_count = reader.U32();
  reader.U32();  // pad
  manifest.shard_log_size = reader.U64();
  if (reader.failed()) {
    return Corruption("manifest block truncated");
  }
  if (manifest.shard_count < 2) {
    return Corruption("manifest shard count below 2");
  }
  return manifest;
}

std::string ShardLogPath(const std::string& base_path, uint32_t shard) {
  return base_path + ".shard" + std::to_string(shard);
}

}  // namespace rvm
