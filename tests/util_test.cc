// Unit tests for src/util: Status, CRC-32, serialization, IntervalSet, PRNG.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/interval_set.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace rvm {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = IoError("disk on fire");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_EQ(status.ToString(), "io error: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(ErrorCode::kInternal); ++code) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(code)), "unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* input = "123456789";
  EXPECT_EQ(Crc32(AsBytes(input)), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  Xoshiro256 rng(7);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(0, 137));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(137, 400));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(537));
  EXPECT_EQ(Crc32Finish(state), Crc32(data));
}

// Reference: the plain one-byte-at-a-time table loop.
uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  uint32_t state = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    state = (state >> 8) ^ table[(state ^ byte) & 0xFFu];
  }
  return state ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseOverRandomLengthsAndAlignments) {
  std::vector<uint8_t> data(9000 + 8);
  Xoshiro256 rng(11);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  for (int trial = 0; trial < 400; ++trial) {
    const size_t start = rng.Next() % 8;
    const size_t length = trial < 20 ? trial : rng.Next() % 9001;
    std::span<const uint8_t> slice =
        std::span<const uint8_t>(data).subspan(start, length);
    ASSERT_EQ(Crc32(slice), BytewiseCrc32(slice))
        << "start " << start << " length " << length;
    // Split incrementally at a random point: the sliced loop must carry its
    // state across an unaligned boundary.
    const size_t cut = rng.Next() % (length + 1);
    uint32_t state = Crc32Update(Crc32Init(), slice.subspan(0, cut));
    state = Crc32Update(state, slice.subspan(cut));
    ASSERT_EQ(Crc32Finish(state), BytewiseCrc32(slice))
        << "start " << start << " length " << length << " cut " << cut;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xAB);
  uint32_t original = Crc32(data);
  for (size_t bit = 0; bit < 64 * 8; bit += 17) {
    std::vector<uint8_t> corrupted = data;
    corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(corrupted), original) << "undetected flip at bit " << bit;
  }
}

// --- Serialization --------------------------------------------------------

TEST(SerializeTest, RoundTripScalars) {
  ByteWriter writer;
  writer.U8(0xAB);
  writer.U16(0xBEEF);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.I64(-42);

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.U8(), 0xAB);
  EXPECT_EQ(reader.U16(), 0xBEEF);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.I64(), -42);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SerializeTest, LittleEndianLayout) {
  ByteWriter writer;
  writer.U32(0x01020304);
  ASSERT_EQ(writer.size(), 4u);
  EXPECT_EQ(writer.buffer()[0], 0x04);
  EXPECT_EQ(writer.buffer()[3], 0x01);
}

TEST(SerializeTest, LengthPrefixedString) {
  ByteWriter writer;
  writer.LengthPrefixedString("hello");
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.LengthPrefixedString(), "hello");
  EXPECT_TRUE(reader.ok());
}

TEST(SerializeTest, OverReadSetsFailedAndReturnsZero) {
  ByteWriter writer;
  writer.U16(7);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.U64(), 0u);
  EXPECT_TRUE(reader.failed());
}

TEST(SerializeTest, TruncatedLengthPrefixFails) {
  ByteWriter writer;
  writer.U32(1000);  // claims 1000 bytes follow; none do
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(reader.LengthPrefixed().empty());
  EXPECT_TRUE(reader.failed());
}

// --- IntervalSet ----------------------------------------------------------

TEST(IntervalSetTest, AddAndContains) {
  IntervalSet set;
  set.Add(10, 20);
  EXPECT_TRUE(set.Contains(10, 20));
  EXPECT_TRUE(set.Contains(12, 15));
  EXPECT_FALSE(set.Contains(5, 12));
  EXPECT_FALSE(set.Contains(15, 25));
  EXPECT_EQ(set.total_length(), 10u);
}

TEST(IntervalSetTest, MergesAdjacent) {
  IntervalSet set;
  set.Add(10, 20);
  set.Add(20, 30);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.Contains(10, 30));
}

TEST(IntervalSetTest, MergesOverlapping) {
  IntervalSet set;
  set.Add(10, 20);
  set.Add(15, 40);
  set.Add(5, 12);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.Contains(5, 40));
  EXPECT_EQ(set.total_length(), 35u);
}

TEST(IntervalSetTest, DisjointStayDisjoint) {
  IntervalSet set;
  set.Add(10, 20);
  set.Add(30, 40);
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_FALSE(set.Contains(10, 40));
  EXPECT_TRUE(set.Intersects(15, 35));
  EXPECT_FALSE(set.Intersects(20, 30));
}

TEST(IntervalSetTest, UncoveredOfEmptySetIsWholeRange) {
  IntervalSet set;
  std::vector<Interval> uncovered = set.Uncovered(10, 20);
  ASSERT_EQ(uncovered.size(), 1u);
  EXPECT_EQ(uncovered[0], (Interval{10, 20}));
}

TEST(IntervalSetTest, UncoveredSplitsAroundCoverage) {
  IntervalSet set;
  set.Add(15, 18);
  set.Add(25, 40);
  std::vector<Interval> uncovered = set.Uncovered(10, 30);
  ASSERT_EQ(uncovered.size(), 2u);
  EXPECT_EQ(uncovered[0], (Interval{10, 15}));
  EXPECT_EQ(uncovered[1], (Interval{18, 25}));
}

TEST(IntervalSetTest, UncoveredFullyCoveredIsEmpty) {
  IntervalSet set;
  set.Add(0, 100);
  EXPECT_TRUE(set.Uncovered(10, 90).empty());
}

TEST(IntervalSetTest, RemoveSplitsInterval) {
  IntervalSet set;
  set.Add(0, 100);
  set.Remove(40, 60);
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_TRUE(set.Contains(0, 40));
  EXPECT_TRUE(set.Contains(60, 100));
  EXPECT_FALSE(set.Intersects(40, 60));
}

TEST(IntervalSetTest, RemoveAcrossMultipleIntervals) {
  IntervalSet set;
  set.Add(0, 10);
  set.Add(20, 30);
  set.Add(40, 50);
  set.Remove(5, 45);
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_TRUE(set.Contains(0, 5));
  EXPECT_TRUE(set.Contains(45, 50));
  EXPECT_EQ(set.total_length(), 10u);
}

TEST(IntervalSetTest, EmptyRangeOperationsAreNoOps) {
  IntervalSet set;
  set.Add(10, 10);
  EXPECT_TRUE(set.empty());
  set.Add(10, 20);
  set.Remove(15, 15);
  EXPECT_EQ(set.total_length(), 10u);
  EXPECT_TRUE(set.Contains(5, 5));     // empty range trivially contained
  EXPECT_FALSE(set.Intersects(5, 5));  // and trivially non-intersecting
}

// Property test: IntervalSet must agree with a naive bitmap implementation
// under random Add/Remove/Uncovered sequences.
class IntervalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetPropertyTest, MatchesNaiveBitmap) {
  constexpr uint64_t kUniverse = 256;
  Xoshiro256 rng(GetParam());
  IntervalSet set;
  std::vector<bool> bitmap(kUniverse, false);

  for (int step = 0; step < 300; ++step) {
    uint64_t start = rng.Below(kUniverse);
    uint64_t end = start + rng.Below(kUniverse - start + 1);
    int op = static_cast<int>(rng.Below(3));
    if (op == 0) {
      set.Add(start, end);
      for (uint64_t i = start; i < end; ++i) {
        bitmap[i] = true;
      }
    } else if (op == 1) {
      set.Remove(start, end);
      for (uint64_t i = start; i < end; ++i) {
        bitmap[i] = false;
      }
    } else {
      // Verify Uncovered against the bitmap.
      std::vector<bool> uncovered_bitmap(kUniverse, false);
      for (const Interval& piece : set.Uncovered(start, end)) {
        ASSERT_LE(start, piece.start);
        ASSERT_LE(piece.end, end);
        for (uint64_t i = piece.start; i < piece.end; ++i) {
          ASSERT_FALSE(uncovered_bitmap[i]) << "overlapping uncovered pieces";
          uncovered_bitmap[i] = true;
        }
      }
      for (uint64_t i = start; i < end; ++i) {
        ASSERT_EQ(uncovered_bitmap[i], !bitmap[i]) << "at byte " << i;
      }
    }
    // Check aggregate invariants every step.
    uint64_t expected_total = 0;
    for (bool bit : bitmap) {
      expected_total += bit ? 1 : 0;
    }
    ASSERT_EQ(set.total_length(), expected_total);
  }
  // Final full containment check.
  for (uint64_t i = 0; i < kUniverse; ++i) {
    ASSERT_EQ(set.Contains(i, i + 1), static_cast<bool>(bitmap[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- PRNG -----------------------------------------------------------------

TEST(RandomTest, Deterministic) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, BelowStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
  }
}

TEST(RandomTest, RangeInclusive) {
  Xoshiro256 rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, RoughlyUniform) {
  Xoshiro256 rng(17);
  std::map<uint64_t, int> histogram;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    ++histogram[rng.Below(10)];
  }
  for (uint64_t bucket = 0; bucket < 10; ++bucket) {
    EXPECT_GT(histogram[bucket], kSamples / 10 / 2) << "bucket " << bucket;
    EXPECT_LT(histogram[bucket], kSamples / 10 * 2) << "bucket " << bucket;
  }
}

}  // namespace
}  // namespace rvm
