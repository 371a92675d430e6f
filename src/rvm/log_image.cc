#include "src/rvm/log_image.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

namespace rvm {
namespace {

std::vector<uint8_t> Copy(std::span<const uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

}  // namespace

void LogImage::Add(const ParsedRecord& record) {
  const RecordHeader& header = record.header;
  if (header.type == RecordType::kWrapFiller) {
    return;
  }
  if (IsDecision(header)) {
    decided_.insert(header.tid);
  }
  if (header.flags & kRecordFlagShardPrepare) {
    prepared_.insert(header.tid);
    HeldPrepare held{header.tid, header.seqno, {}};
    for (const RangeView& range : record.ranges) {
      held.ranges.push_back({range.segment, range.offset, Copy(range.data)});
    }
    prepares_.push_back(std::move(held));
    return;
  }
  ++records_;
  for (const RangeView& range : record.ranges) {
    Put(range.segment, range.offset, header.seqno, range.data);
  }
}

void LogImage::ResolvePrepares(
    const std::function<bool(TransactionId)>& decided) {
  for (const HeldPrepare& held : prepares_) {
    if (!decided(held.tid)) {
      continue;  // presumed abort: no decision anywhere, no effect anywhere
    }
    ++records_;
    for (const HeldRange& range : held.ranges) {
      Put(range.segment, range.offset, held.seqno, range.bytes);
    }
  }
  prepares_.clear();
}

void LogImage::Put(SegmentId segment, uint64_t offset, uint64_t seqno,
                   std::span<const uint8_t> bytes) {
  if (bytes.empty()) {
    return;
  }
  SegmentImage& image = segments_[segment];
  const uint64_t end = offset + bytes.size();
  auto it = image.upper_bound(offset);
  if (it != image.begin() &&
      std::prev(it)->first + std::prev(it)->second.bytes.size() > offset) {
    --it;
  }
  // Walk the extents overlapping [offset, end): newer ones keep their bytes
  // and split the new run around them; older ones lose the overlap and keep
  // what lies outside it.
  std::vector<std::pair<uint64_t, uint64_t>> pieces;
  std::vector<std::pair<uint64_t, Extent>> remnants;
  uint64_t cursor = offset;
  while (it != image.end() && it->first < end) {
    const uint64_t start = it->first;
    Extent& extent = it->second;
    const uint64_t extent_end = start + extent.bytes.size();
    if (extent.seqno > seqno) {
      if (start > cursor) {
        pieces.emplace_back(cursor, start);
      }
      cursor = std::max(cursor, extent_end);
      ++it;
      continue;
    }
    const std::span<const uint8_t> held(extent.bytes);
    if (start < offset) {
      remnants.emplace_back(
          start, Extent{extent.seqno, Copy(held.first(offset - start))});
    }
    if (extent_end > end) {
      remnants.emplace_back(
          end, Extent{extent.seqno, Copy(held.subspan(end - start))});
    }
    it = image.erase(it);
  }
  if (cursor < end) {
    pieces.emplace_back(cursor, end);
  }
  for (auto& [start, extent] : remnants) {
    image.emplace(start, std::move(extent));
  }
  for (const auto& [lo, hi] : pieces) {
    image.emplace(lo,
                  Extent{seqno, Copy(bytes.subspan(lo - offset, hi - lo))});
  }
}

}  // namespace rvm
