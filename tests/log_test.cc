// Tests for the log format (Fig. 5) and the LogDevice (status block,
// circular append, wraparound, scans).
#include <gtest/gtest.h>

#include <optional>

#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/log_device.h"
#include "src/rvm/log_format.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace rvm {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i);
  }
  return data;
}

// --- Status block -----------------------------------------------------------

TEST(StatusBlockTest, RoundTrip) {
  LogStatusBlock block;
  block.generation = 7;
  block.log_size = 1 << 20;
  block.head = 9000;
  block.tail = 12000;
  block.tail_seqno = 55;
  block.last_record_offset = 11000;
  block.next_segment_id = 3;
  block.segments = {{1, "/data/seg1"}, {2, "/data/seg2"}};
  block.max_record_bytes = 256 * 1024;

  auto encoded = EncodeStatusBlock(block);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded->size(), kStatusBlockSize);
  auto decoded = DecodeStatusBlock(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->generation, 7u);
  EXPECT_EQ(decoded->log_size, 1u << 20);
  EXPECT_EQ(decoded->head, 9000u);
  EXPECT_EQ(decoded->tail, 12000u);
  EXPECT_EQ(decoded->tail_seqno, 55u);
  EXPECT_EQ(decoded->last_record_offset, 11000u);
  EXPECT_EQ(decoded->next_segment_id, 3u);
  ASSERT_EQ(decoded->segments.size(), 2u);
  EXPECT_EQ(decoded->segments[0].id, 1u);
  EXPECT_EQ(decoded->segments[1].path, "/data/seg2");
  EXPECT_EQ(decoded->max_record_bytes, 256u * 1024);
}

// The status block as encoded before it carried max_record_bytes: the same
// fields, zero padding after the dictionary, CRC in the last 4 bytes.
std::vector<uint8_t> EncodeStatusBlockWithoutRecordBound(
    const LogStatusBlock& block) {
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
    writer.U32(entry.id);
    writer.LengthPrefixedString(entry.path);
  }
  std::vector<uint8_t> bytes = std::move(writer).Take();
  bytes.resize(kStatusBlockSize - 4, 0);
  const uint32_t crc = Crc32(bytes);
  ByteWriter tail_writer(&bytes);
  tail_writer.U32(crc);
  return bytes;
}

TEST(StatusBlockTest, BlockWithoutRecordBoundDecodesAsUnknown) {
  LogStatusBlock block;
  block.generation = 4;
  block.log_size = 1 << 20;
  block.segments = {{1, "/data/seg1"}};
  auto decoded = DecodeStatusBlock(EncodeStatusBlockWithoutRecordBound(block));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->generation, 4u);
  ASSERT_EQ(decoded->segments.size(), 1u);
  EXPECT_EQ(decoded->max_record_bytes, 0u);
}

TEST(StatusBlockTest, CorruptionDetected) {
  LogStatusBlock block;
  block.log_size = 1 << 20;
  auto encoded = EncodeStatusBlock(block);
  ASSERT_TRUE(encoded.ok());
  (*encoded)[100] ^= 0xFF;
  EXPECT_EQ(DecodeStatusBlock(*encoded).status().code(), ErrorCode::kCorruption);
}

TEST(StatusBlockTest, WrongSizeRejected) {
  std::vector<uint8_t> tiny(10);
  EXPECT_FALSE(DecodeStatusBlock(tiny).ok());
}

TEST(StatusBlockTest, OverlongPathRejected) {
  LogStatusBlock block;
  block.segments = {{1, std::string(kMaxSegmentPath + 1, 'x')}};
  EXPECT_FALSE(EncodeStatusBlock(block).ok());
}

// --- Record encoding ---------------------------------------------------------

TEST(RecordTest, TransactionRoundTrip) {
  std::vector<uint8_t> data1 = Payload(100, 1);
  std::vector<uint8_t> data2 = Payload(37, 2);
  std::vector<RangeView> ranges = {
      {.segment = 1, .offset = 4096, .data = data1},
      {.segment = 2, .offset = 0, .data = data2},
  };
  std::vector<uint8_t> encoded = EncodeTransactionRecord(9, 42, 1234, ranges);
  uint64_t lengths[] = {100, 37};
  EXPECT_EQ(encoded.size(), TransactionRecordSize(lengths));

  auto parsed = ParseRecord(encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.type, RecordType::kTransaction);
  EXPECT_EQ(parsed->header.seqno, 9u);
  EXPECT_EQ(parsed->header.tid, 42u);
  EXPECT_EQ(parsed->header.prev_offset, 1234u);
  ASSERT_EQ(parsed->ranges.size(), 2u);
  EXPECT_EQ(parsed->ranges[0].segment, 1u);
  EXPECT_EQ(parsed->ranges[0].offset, 4096u);
  EXPECT_TRUE(std::equal(data1.begin(), data1.end(),
                         parsed->ranges[0].data.begin()));
  EXPECT_EQ(parsed->ranges[1].segment, 2u);
  EXPECT_TRUE(std::equal(data2.begin(), data2.end(),
                         parsed->ranges[1].data.begin()));
}

TEST(RecordTest, EmptyTransactionRecord) {
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, {});
  EXPECT_EQ(encoded.size(), kRecordHeaderSize);
  auto parsed = ParseRecord(encoded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ranges.empty());
}

TEST(RecordTest, WrapFillerRoundTrip) {
  std::vector<uint8_t> encoded = EncodeWrapFiller(5, 777);
  auto parsed = ParseRecord(encoded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.type, RecordType::kWrapFiller);
  EXPECT_EQ(parsed->header.seqno, 5u);
  EXPECT_EQ(parsed->header.prev_offset, 777u);
}

TEST(RecordTest, CorruptPayloadDetected) {
  std::vector<uint8_t> data = Payload(64, 3);
  std::vector<RangeView> ranges = {{.segment = 1, .offset = 0, .data = data}};
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, ranges);
  encoded[encoded.size() - 1] ^= 0x01;
  EXPECT_EQ(ParseRecord(encoded).status().code(), ErrorCode::kCorruption);
}

TEST(RecordTest, CorruptHeaderDetected) {
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, {});
  encoded[0] ^= 0xFF;  // magic
  EXPECT_EQ(ParseRecord(encoded).status().code(), ErrorCode::kCorruption);
}

TEST(RecordTest, TruncatedRecordDetected) {
  std::vector<uint8_t> data = Payload(64, 4);
  std::vector<RangeView> ranges = {{.segment = 1, .offset = 0, .data = data}};
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, ranges);
  encoded.resize(encoded.size() - 10);
  EXPECT_EQ(ParseRecord(encoded).status().code(), ErrorCode::kCorruption);
}

// --- LogDevice ----------------------------------------------------------------

class LogDeviceTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kLogSize = kLogDataStart + 64 * 1024;

  void SetUp() override {
    ASSERT_TRUE(LogDevice::Create(&env_, "/log", kLogSize, false).ok());
    auto opened = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    log_ = std::move(*opened);
  }

  StatusOr<uint64_t> Append(size_t data_size, uint8_t seed = 0) {
    data_.push_back(Payload(data_size, seed));
    RangeView range{.segment = 1, .offset = 0, .data = data_.back()};
    return log_->AppendTransaction(1, {&range, 1});
  }

  MemEnv env_;
  std::unique_ptr<LogDevice> log_;
  std::vector<std::vector<uint8_t>> data_;
};

TEST_F(LogDeviceTest, CreateRejectsExisting) {
  EXPECT_EQ(LogDevice::Create(&env_, "/log", kLogSize, false).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_TRUE(LogDevice::Create(&env_, "/log", kLogSize, true).ok());
}

TEST_F(LogDeviceTest, CreateRejectsTinyLog) {
  EXPECT_EQ(LogDevice::Create(&env_, "/tiny", 100, false).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(LogDeviceTest, FreshLogIsEmpty) {
  EXPECT_EQ(log_->used(), 0u);
  EXPECT_EQ(log_->capacity(), kLogSize - kLogDataStart);
  auto offsets = log_->CollectRecordOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_TRUE(offsets->empty());
}

TEST_F(LogDeviceTest, AppendAndReadBack) {
  auto offset = Append(128, 7);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, kLogDataStart);
  auto record = log_->ReadRecordAt(*offset);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->parsed.header.tid, 1u);
  ASSERT_EQ(record->parsed.ranges.size(), 1u);
  EXPECT_EQ(record->parsed.ranges[0].data.size(), 128u);
  EXPECT_EQ(record->parsed.ranges[0].data[1], 8);
}

TEST_F(LogDeviceTest, SequenceNumbersIncrease) {
  ASSERT_TRUE(Append(10).ok());
  ASSERT_TRUE(Append(10).ok());
  auto offsets = log_->CollectRecordOffsets();
  ASSERT_TRUE(offsets.ok());
  ASSERT_EQ(offsets->size(), 2u);
  auto newest = log_->ReadRecordAt((*offsets)[0]);
  auto oldest = log_->ReadRecordAt((*offsets)[1]);
  EXPECT_EQ(newest->parsed.header.seqno, oldest->parsed.header.seqno + 1);
}

TEST_F(LogDeviceTest, ReverseChainWalksNewestFirst) {
  std::vector<uint64_t> expected;
  for (int i = 0; i < 5; ++i) {
    auto offset = Append(64, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok());
    expected.push_back(*offset);
  }
  auto offsets = log_->CollectRecordOffsets();
  ASSERT_TRUE(offsets.ok());
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(*offsets, expected);
}

TEST_F(LogDeviceTest, StatusSurvivesReopen) {
  ASSERT_TRUE(Append(100).ok());
  ASSERT_TRUE(log_->Sync().ok());
  ASSERT_TRUE(log_->WriteStatus().ok());
  uint64_t tail = log_->status().tail;

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().tail, tail);
  EXPECT_EQ((*reopened)->status().tail_seqno, 2u);
}

TEST_F(LogDeviceTest, ForwardScanFindsRecordsBeyondStatusTail) {
  // Write status, then append two more records *with* sync but no status
  // update: recovery must find them by forward scanning.
  ASSERT_TRUE(log_->WriteStatus().ok());
  ASSERT_TRUE(Append(50).ok());
  ASSERT_TRUE(Append(60).ok());
  ASSERT_TRUE(log_->Sync().ok());

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->used(), 0u);  // stale status says empty
  auto found = (*reopened)->ExtendTailForward();
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 2u);
  EXPECT_EQ((*reopened)->status().tail, log_->status().tail);
  auto offsets = (*reopened)->CollectRecordOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ(offsets->size(), 2u);
}

TEST_F(LogDeviceTest, ForwardScanStopsAtTornRecord) {
  ASSERT_TRUE(log_->WriteStatus().ok());
  ASSERT_TRUE(Append(50).ok());
  auto second = Append(60);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(log_->Sync().ok());
  // Corrupt the second record's payload, simulating a torn write.
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  uint8_t junk = 0x5A;
  ASSERT_TRUE((*file)->WriteAt(*second + kRecordHeaderSize + 10,
                               std::span<const uint8_t>(&junk, 1)).ok());

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  auto found = (*reopened)->ExtendTailForward();
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 1u);  // only the intact record
}

TEST_F(LogDeviceTest, WrapAroundProducesFillerAndWraps) {
  // Fill most of the log, truncate (MarkEmpty) to free space, then keep
  // appending until the tail wraps past the end of the area.
  const uint64_t record_data = 4096;
  uint64_t appended = 0;
  while (log_->free_space() > 3 * (record_data + 256)) {
    ASSERT_TRUE(Append(record_data).ok());
    ++appended;
  }
  ASSERT_GT(appended, 5u);
  log_->MarkEmpty();  // simulate a truncation that consumed everything
  ASSERT_TRUE(log_->WriteStatus().ok());

  // Now appends continue from a tail near the end; the next few must wrap.
  std::vector<uint64_t> offsets_written;
  for (int i = 0; i < 4; ++i) {
    auto offset = Append(record_data, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok()) << offset.status().ToString();
    offsets_written.push_back(*offset);
  }
  EXPECT_LT(offsets_written.back(), offsets_written.front())
      << "tail should have wrapped to the area start";

  // All records retrievable via the reverse chain (filler skipped in data,
  // but present in the chain).
  auto offsets = log_->CollectRecordOffsets();
  ASSERT_TRUE(offsets.ok());
  uint64_t transactions = 0;
  for (uint64_t offset : *offsets) {
    auto record = log_->ReadRecordAt(offset);
    ASSERT_TRUE(record.ok());
    if (record->parsed.header.type == RecordType::kTransaction) {
      ++transactions;
    }
  }
  EXPECT_EQ(transactions, 4u);
}

// The offsets ScanLiveForward hands its visitor, in the order it hands them.
StatusOr<std::vector<uint64_t>> LiveScanOffsets(LogDevice& log,
                                                bool extend_tail) {
  std::vector<uint64_t> offsets;
  RVM_RETURN_IF_ERROR(log.ScanLiveForward(
                             [&](uint64_t offset, const ParsedRecord&) {
                               offsets.push_back(offset);
                               return OkStatus();
                             },
                             extend_tail)
                          .status());
  return offsets;
}

TEST_F(LogDeviceTest, LiveScanReadsTheChainOldestFirstAcrossAWrap) {
  const uint64_t record_data = 4096;
  while (log_->free_space() > 3 * (record_data + 256)) {
    ASSERT_TRUE(Append(record_data).ok());
  }
  log_->MarkEmpty();
  ASSERT_TRUE(log_->WriteStatus().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Append(record_data, static_cast<uint8_t>(i)).ok());
  }
  ASSERT_TRUE(log_->Sync().ok());
  auto chain = log_->CollectRecordOffsets();  // newest first, filler included
  ASSERT_TRUE(chain.ok());
  std::reverse(chain->begin(), chain->end());
  ASSERT_EQ(chain->size(), 5u) << "expected four records and a wrap filler";

  // The live log itself, and recovery's view of it after a crash: the
  // status block names the head, the records lie past its tail.
  auto live = LiveScanOffsets(*log_, /*extend_tail=*/false);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(*live, *chain);
  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  auto recovered = LiveScanOffsets(**reopened, /*extend_tail=*/true);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, *chain);
  EXPECT_EQ((*reopened)->status().tail, log_->status().tail);
}

TEST_F(LogDeviceTest, LiveScanRejectsBrokenRecordsBeforeTheTail) {
  // Three records the status block vouches for; the middle one is then
  // damaged three ways. The visitor-less tail extension starts at the tail
  // and does not read it; the live scan does, and fails stop.
  enum class Damage { kFlippedByte, kSeqnoJump, kForeignPrevOffset };
  for (Damage damage :
       {Damage::kFlippedByte, Damage::kSeqnoJump, Damage::kForeignPrevOffset}) {
    SCOPED_TRACE(static_cast<int>(damage));
    ASSERT_TRUE(LogDevice::Create(&env_, "/log", kLogSize, true).ok());
    auto opened = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(opened.ok());
    log_ = std::move(*opened);
    std::vector<uint64_t> offsets;
    for (uint8_t i = 0; i < 3; ++i) {
      auto offset = Append(64, i);
      ASSERT_TRUE(offset.ok());
      offsets.push_back(*offset);
    }
    ASSERT_TRUE(log_->WriteStatus().ok());
    auto middle = log_->ReadRecordAt(offsets[1]);
    ASSERT_TRUE(middle.ok());
    const RecordHeader& header = middle->parsed.header;
    std::vector<uint8_t> rewritten;
    if (damage == Damage::kFlippedByte) {
      rewritten = middle->bytes;
      rewritten[kRecordHeaderSize + 4] ^= 0xFF;
    } else {
      // A well-formed record (valid CRC) that does not follow its
      // predecessor.
      const uint64_t prev = damage == Damage::kForeignPrevOffset
                                ? offsets[2]
                                : header.prev_offset;
      rewritten = EncodeTransactionRecord(
          header.seqno + (damage == Damage::kSeqnoJump ? 5 : 0), header.tid,
          prev, middle->parsed.ranges, header.flags);
    }
    ASSERT_EQ(rewritten.size(), middle->bytes.size());
    {
      auto file = env_.Open("/log", OpenMode::kReadWrite);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->WriteAt(offsets[1], rewritten).ok());
    }

    if (damage != Damage::kSeqnoJump) {
      // (A jumped seqno also trips the tail extension's successor probe.)
      auto extended = LogDevice::Open(&env_, "/log");
      ASSERT_TRUE(extended.ok());
      EXPECT_TRUE((*extended)->ExtendTailForward().ok());
    }
    auto scanned = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(scanned.ok());
    auto offsets_read = LiveScanOffsets(**scanned, /*extend_tail=*/true);
    ASSERT_FALSE(offsets_read.ok()) << "a broken committed record was read";
    EXPECT_EQ(offsets_read.status().code(), ErrorCode::kCorruption)
        << offsets_read.status().ToString();
  }
}

TEST_F(LogDeviceTest, LogFullWhenNoSpace) {
  Status status = OkStatus();
  // With head pinned at the start, the area must eventually fill.
  for (int i = 0; i < 100; ++i) {
    auto offset = Append(4096);
    if (!offset.ok()) {
      status = offset.status();
      break;
    }
  }
  EXPECT_EQ(status.code(), ErrorCode::kLogFull);
}

TEST_F(LogDeviceTest, OversizeRecordRejected) {
  auto offset = Append(log_->capacity());
  EXPECT_EQ(offset.status().code(), ErrorCode::kLogFull);
}

TEST_F(LogDeviceTest, StatusAlternatesSlotsAtomically) {
  // Each WriteStatus bumps the generation; both slots stay parseable and the
  // newest wins on open.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Append(10).ok());
    ASSERT_TRUE(log_->Sync().ok());
    ASSERT_TRUE(log_->WriteStatus().ok());
  }
  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().generation, log_->status().generation);
  EXPECT_EQ((*reopened)->status().tail, log_->status().tail);
}

TEST_F(LogDeviceTest, CorruptOneStatusSlotStillOpens) {
  ASSERT_TRUE(log_->WriteStatus().ok());  // generation 2 -> slot 0
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  std::vector<uint8_t> junk(kStatusBlockSize, 0xFF);
  // Corrupt slot 1 (the older copy).
  ASSERT_TRUE((*file)->WriteAt(kStatusBlockSize, junk).ok());
  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().generation, log_->status().generation);
}

TEST_F(LogDeviceTest, BothStatusSlotsCorruptFailsToOpen) {
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  std::vector<uint8_t> junk(2 * kStatusBlockSize, 0xFF);
  ASSERT_TRUE((*file)->WriteAt(0, junk).ok());
  EXPECT_EQ(LogDevice::Open(&env_, "/log").status().code(),
            ErrorCode::kCorruption);
}

TEST_F(LogDeviceTest, UsedAccountsAcrossWrap) {
  // Drive the log around the circle with interleaved appends and MarkEmpty,
  // verifying used() never exceeds capacity and reaches 0 after MarkEmpty.
  Xoshiro256 rng(3);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i) {
      auto offset = Append(rng.Range(100, 3000));
      if (!offset.ok()) {
        break;
      }
      EXPECT_LE(log_->used(), log_->capacity());
    }
    log_->MarkEmpty();
    EXPECT_EQ(log_->used(), 0u);
  }
}

// --- Bounded torn-tail probe -------------------------------------------------
//
// A log large enough that the probe window (max_record_bytes plus a header)
// is a small part of the area, so the window's edges are observable.

class BoundedProbeTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kLogSize = kLogDataStart + 1024 * 1024;
  // Range data that makes a one-range record exactly `record_bytes` long.
  static size_t DataFor(uint64_t record_bytes) {
    return record_bytes - kRecordHeaderSize - kRangeHeaderSize;
  }

  void SetUp() override {
    ASSERT_TRUE(LogDevice::Create(&env_, "/log", kLogSize, false).ok());
    Reopen();
  }

  void Reopen() {
    auto opened = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    log_ = std::move(*opened);
  }

  StatusOr<uint64_t> AppendRecordOfSize(uint64_t record_bytes,
                                        uint8_t seed = 0) {
    data_.push_back(Payload(DataFor(record_bytes), seed));
    RangeView range{.segment = 1, .offset = 0, .data = data_.back()};
    return log_->AppendTransaction(1, {&range, 1});
  }

  void FlipPayloadByte(uint64_t record_offset) {
    auto file = env_.Open("/log", OpenMode::kReadWrite);
    ASSERT_TRUE(file.ok());
    uint8_t byte = 0;
    const uint64_t at = record_offset + kRecordHeaderSize + 4;
    ASSERT_TRUE((*file)->ReadAt(at, std::span<uint8_t>(&byte, 1)).ok());
    byte ^= 0xFF;
    ASSERT_TRUE((*file)->WriteAt(at, std::span<const uint8_t>(&byte, 1)).ok());
  }

  // Reopens the log as recovery would and runs the forward scan, both the
  // visitor-less tail extension and recovery's live scan, which must agree.
  StatusOr<uint64_t> RecoverTail() {
    auto reopened = LogDevice::Open(&env_, "/log");
    if (!reopened.ok()) {
      return reopened.status();
    }
    StatusOr<uint64_t> extended = (*reopened)->ExtendTailForward();
    auto rescanned = LogDevice::Open(&env_, "/log");
    if (!rescanned.ok()) {
      return rescanned.status();
    }
    StatusOr<uint64_t> scanned = (*rescanned)->ScanLiveForward(
        [](uint64_t, const ParsedRecord&) { return OkStatus(); },
        /*extend_tail=*/true);
    EXPECT_EQ(scanned.status().code(), extended.status().code())
        << "live scan: " << scanned.status().ToString();
    if (scanned.ok() && extended.ok()) {
      EXPECT_EQ(*scanned, *extended);
    }
    return extended;
  }

  MemEnv env_;
  std::unique_ptr<LogDevice> log_;
  std::vector<std::vector<uint8_t>> data_;
};

TEST_F(BoundedProbeTest, FreshLogCarriesTheInitialBound) {
  EXPECT_EQ(log_->status().max_record_bytes, kInitialMaxRecordBytes);
}

TEST_F(BoundedProbeTest, SuccessorAtTheWindowEdgeIsCorruption) {
  // The damaged record is exactly as long as the bound allows, so its intact
  // successor starts max_record_bytes past it: the farthest a successor can
  // be, and still inside the probe window.
  ASSERT_TRUE(log_->WriteStatus().ok());  // durable tail: before both
  auto damaged = AppendRecordOfSize(kInitialMaxRecordBytes, 1);
  auto successor = AppendRecordOfSize(256, 2);
  ASSERT_TRUE(damaged.ok() && successor.ok());
  ASSERT_TRUE(log_->Sync().ok());
  ASSERT_EQ(*successor, *damaged + kInitialMaxRecordBytes);
  EXPECT_EQ(log_->status().max_record_bytes, kInitialMaxRecordBytes)
      << "a record exactly at the bound must not raise it";
  FlipPayloadByte(*damaged);

  auto found = RecoverTail();
  ASSERT_FALSE(found.ok()) << "intact successor at the window edge missed";
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption)
      << found.status().ToString();
}

TEST_F(BoundedProbeTest, SuccessorAfterAFillerlessWrapIsCorruption) {
  // The damaged record ends too close to the end of the area for a wrap
  // filler, so its successor starts at kLogDataStart: the window runs off
  // the end of the area and must continue there.
  while (log_->status().tail < kLogSize - 3 * kInitialMaxRecordBytes) {
    ASSERT_TRUE(AppendRecordOfSize(kInitialMaxRecordBytes / 2).ok());
  }
  ASSERT_TRUE(log_->Sync().ok());
  log_->MarkEmpty();  // a truncation consumed everything so far
  ASSERT_TRUE(log_->WriteStatus().ok());
  const uint64_t room = kLogSize - log_->status().tail;
  ASSERT_GT(room, kInitialMaxRecordBytes);
  // Fill to within a header of the end with records no larger than the
  // bound, the last one damaged.
  uint64_t damaged = 0;
  while (kLogSize - log_->status().tail >= kRecordHeaderSize + 4096) {
    const uint64_t left = kLogSize - log_->status().tail - kRecordHeaderSize / 2;
    auto offset = AppendRecordOfSize(std::min(left, kInitialMaxRecordBytes));
    ASSERT_TRUE(offset.ok()) << offset.status().ToString();
    damaged = *offset;
  }
  ASSERT_LT(kLogSize - log_->status().tail, kRecordHeaderSize);
  auto successor = AppendRecordOfSize(256, 3);
  ASSERT_TRUE(successor.ok());
  ASSERT_EQ(*successor, kLogDataStart) << "successor should have wrapped";
  ASSERT_TRUE(log_->Sync().ok());
  FlipPayloadByte(damaged);

  auto found = RecoverTail();
  ASSERT_FALSE(found.ok()) << "successor in the wrap region missed";
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption)
      << found.status().ToString();
}

TEST_F(BoundedProbeTest, LargeRecordRaisesTheDurableBoundFirst) {
  // A record past the bound raises it to the next power of two with a
  // synced status write before the record is appended, so the raised
  // window finds a successor the initial one could not reach.
  ASSERT_TRUE(log_->WriteStatus().ok());
  const uint64_t large = kInitialMaxRecordBytes + kInitialMaxRecordBytes / 2;
  auto damaged = AppendRecordOfSize(large, 4);
  ASSERT_TRUE(damaged.ok());
  EXPECT_EQ(log_->status().max_record_bytes, 2 * kInitialMaxRecordBytes);
  {
    auto durable = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(durable.ok());
    EXPECT_EQ((*durable)->status().max_record_bytes,
              2 * kInitialMaxRecordBytes);
    EXPECT_EQ((*durable)->status().tail, *damaged)
        << "the raise names the tail the large record is appended at";
  }
  auto successor = AppendRecordOfSize(256, 5);
  ASSERT_TRUE(successor.ok());
  ASSERT_GT(*successor, *damaged + kInitialMaxRecordBytes + kRecordHeaderSize);
  ASSERT_TRUE(log_->Sync().ok());
  FlipPayloadByte(*damaged);

  auto found = RecoverTail();
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption)
      << found.status().ToString();
}

TEST_F(BoundedProbeTest, BlockWithoutRecordBoundProbesTheWholeArea) {
  // A status block written before max_record_bytes existed bounds nothing:
  // recovery must fall back to probing the whole area. The successor here
  // lies past any window the initial bound would give.
  ASSERT_TRUE(log_->WriteStatus().ok());
  LogStatusBlock before = log_->status();
  auto damaged = AppendRecordOfSize(3 * kInitialMaxRecordBytes, 6);
  auto successor = AppendRecordOfSize(256, 7);
  ASSERT_TRUE(damaged.ok() && successor.ok());
  ASSERT_TRUE(log_->Sync().ok());
  // Overwrite the newest status slot with the older format, naming the
  // tail before both records.
  before.generation = log_->status().generation + 1;
  const uint64_t slot = before.generation % 2 == 0 ? 0 : kStatusBlockSize;
  {
    auto file = env_.Open("/log", OpenMode::kReadWrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->WriteAt(slot, EncodeStatusBlockWithoutRecordBound(before))
                    .ok());
  }
  FlipPayloadByte(*damaged);

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().max_record_bytes, 0u);
  auto found = (*reopened)->ExtendTailForward();
  ASSERT_FALSE(found.ok()) << "whole-area probe missed a distant successor";
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption)
      << found.status().ToString();
}

TEST_F(BoundedProbeTest, AppendToABlockWithoutRecordBoundSetsOne) {
  // The first append after opening an older log records a bound before it
  // writes, so from then on recovery probes a window again.
  LogStatusBlock old = log_->status();
  old.generation += 1;
  const uint64_t slot = old.generation % 2 == 0 ? 0 : kStatusBlockSize;
  {
    auto file = env_.Open("/log", OpenMode::kReadWrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        (*file)->WriteAt(slot, EncodeStatusBlockWithoutRecordBound(old)).ok());
  }
  Reopen();
  ASSERT_EQ(log_->status().max_record_bytes, 0u);
  ASSERT_TRUE(AppendRecordOfSize(512).ok());
  auto durable = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ((*durable)->status().max_record_bytes, kInitialMaxRecordBytes);
}

// A failed read is no answer about the bytes it was to fetch. When the
// forward scan reads the record just past the status tail, a read error
// there, in the torn-tail probe's window or in the probe's re-read of a
// successor candidate must not make that record (or its successor) look
// torn. So every one-shot read fault ends at the full tail or in the I/O
// error (or, on a damaged log, in kCorruption) — never at a shorter tail.
// Covered with that record intact and followed by a successor, damaged and
// followed by one, and intact as the last record.
TEST(ForwardScanReadFaultTest, ReadFaultPastTheTailNeverShortensIt) {
  constexpr uint64_t kLogSize = kLogDataStart + 1024 * 1024;
  constexpr uint64_t kFirstRead = 64 * 1024;  // the scan's read size
  const std::vector<uint8_t> data = Payload(3000, 1);
  const RangeView range{.segment = 1, .offset = 0, .data = data};
  const uint64_t record_bytes = kRecordHeaderSize + kRangeHeaderSize + 3000;
  struct Case {
    const char* name;
    bool damaged;
    bool successor;
  };
  for (const Case& c : {Case{"intact", false, true},
                        Case{"damaged", true, true},
                        Case{"intact, last", false, false}}) {
    SCOPED_TRACE(c.name);
    const bool damaged = c.damaged;
    MemEnv mem;
    FaultInjectionEnv env(&mem);
    ASSERT_TRUE(LogDevice::Create(&env, "/log", kLogSize, false).ok());
    uint64_t past_tail = 0;
    uint64_t full_tail = 0;
    {
      auto log = LogDevice::Open(&env, "/log");
      ASSERT_TRUE(log.ok());
      // The status tail names the first record that does not fit in the
      // scan's first read, so reading it keeps a held prefix and reads on.
      while ((*log)->status().tail + record_bytes <= kLogDataStart + kFirstRead) {
        ASSERT_TRUE((*log)->AppendTransaction(1, {&range, 1}).ok());
      }
      ASSERT_TRUE((*log)->WriteStatus().ok());
      auto appended = (*log)->AppendTransaction(2, {&range, 1});
      ASSERT_TRUE(appended.ok());
      past_tail = *appended;
      if (c.successor) {
        ASSERT_TRUE((*log)->AppendTransaction(3, {&range, 1}).ok());
      }
      ASSERT_TRUE((*log)->Sync().ok());
      full_tail = (*log)->status().tail;
    }
    ASSERT_LT(past_tail, kLogDataStart + kFirstRead);
    ASSERT_GT(past_tail + record_bytes, kLogDataStart + kFirstRead);
    if (damaged) {
      auto file = mem.Open("/log", OpenMode::kReadWrite);
      ASSERT_TRUE(file.ok());
      const uint8_t junk = 0x5A;
      ASSERT_TRUE((*file)
                      ->WriteAt(past_tail + record_bytes - 8,
                                std::span<const uint8_t>(&junk, 1))
                      .ok());
    }

    for (bool live : {false, true}) {
      SCOPED_TRACE(live ? "ScanLiveForward" : "ExtendTailForward");
      // Arms `fault` (if set) after Open, then runs the scan.
      auto scan = [&](std::optional<uint64_t> fault, uint64_t* tail,
                      uint64_t* reads) -> Status {
        auto log = LogDevice::Open(&env, "/log");
        RVM_RETURN_IF_ERROR(log.status());
        const uint64_t before = env.operations(FaultOp::kReadAt, "/log");
        if (fault.has_value()) {
          FaultSpec spec;
          spec.op = FaultOp::kReadAt;
          spec.after = *fault;
          env.InjectFault(spec);
        }
        StatusOr<uint64_t> found =
            live ? (*log)->ScanLiveForward(
                       [](uint64_t, const ParsedRecord&) { return OkStatus(); },
                       /*extend_tail=*/true)
                 : (*log)->ExtendTailForward();
        env.ClearFaults();
        *tail = (*log)->status().tail;
        *reads = env.operations(FaultOp::kReadAt, "/log") - before;
        return found.status();
      };
      uint64_t tail = 0;
      uint64_t reads = 0;
      Status clean = scan(std::nullopt, &tail, &reads);
      if (damaged) {
        ASSERT_EQ(clean.code(), ErrorCode::kCorruption) << clean.ToString();
      } else {
        ASSERT_TRUE(clean.ok()) << clean.ToString();
        ASSERT_EQ(tail, full_tail);
      }
      ASSERT_GE(reads, 2u);
      for (uint64_t n = 0; n < reads; ++n) {
        SCOPED_TRACE("fault on read " + std::to_string(n));
        uint64_t ignored = 0;
        Status faulted = scan(n, &tail, &ignored);
        if (faulted.ok()) {
          EXPECT_EQ(tail, full_tail) << "a committed record was dropped";
        } else if (damaged) {
          EXPECT_TRUE(faulted.code() == ErrorCode::kCorruption ||
                      faulted.code() == ErrorCode::kIoError)
              << faulted.ToString();
        } else {
          // An intact log is not corrupt: the fault surfaces as itself.
          EXPECT_EQ(faulted.code(), ErrorCode::kIoError) << faulted.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace rvm
