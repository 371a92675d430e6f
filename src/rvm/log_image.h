// LogImage: the newest committed bytes of one shard's live log, per segment
// — §5.1.2's "in-memory tree of the latest committed changes".
//
// Recovery and epoch truncation build it from one forward read of the log
// (LogDevice::ScanLiveForward) and write it to the segments in offset order.
// The image is a byte-extent map per segment: each extent holds the bytes of
// the newest record that wrote them and that record's seqno, so memory is
// bounded by the distinct bytes the live log writes, not by its length.
//
// Records arrive in log (seqno) order, so an ordinary record's ranges simply
// overwrite whatever they cover. A 2PC prepare record (DESIGN.md §12) applies
// only if its transaction turns out to be decided, which recovery knows only
// after every shard has been read; prepares are held aside until
// ResolvePrepares and then merged by the same rule — the higher seqno wins.
// Undecided prepares are dropped (presumed abort).
#ifndef RVM_RVM_LOG_IMAGE_H_
#define RVM_RVM_LOG_IMAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/rvm/log_format.h"

namespace rvm {

class LogImage {
 public:
  // One run of segment bytes written by the record with `seqno`; keyed by
  // its start offset in the segment.
  struct Extent {
    uint64_t seqno = 0;
    std::vector<uint8_t> bytes;
  };
  using SegmentImage = std::map<uint64_t, Extent>;

  // True if the record decides its 2PC transaction: a coordinator's
  // decision or a participant's commit marker. A prepare applies only if
  // some shard's log holds such a record for its tid.
  static bool IsDecision(const RecordHeader& header) {
    return (header.flags &
            (kRecordFlagShardDecision | kRecordFlagShardCommit)) != 0;
  }

  // Adds the next record in log order (copies what it keeps).
  void Add(const ParsedRecord& record);

  // Merges the held prepares whose transaction `decided` accepts, each
  // against the image by seqno, and drops the others. Call once, after the
  // last Add.
  void ResolvePrepares(const std::function<bool(TransactionId)>& decided);

  // Records the image applies: every record but wrap fillers and dropped
  // prepares, including records with no ranges (2PC control records).
  uint64_t records() const { return records_; }
  // Transaction ids of the 2PC prepare records seen, and of the decision or
  // commit-marker records seen.
  const std::set<TransactionId>& prepared() const { return prepared_; }
  const std::set<TransactionId>& decided() const { return decided_; }

  const std::map<SegmentId, SegmentImage>& segments() const {
    return segments_;
  }

 private:
  struct HeldRange {
    SegmentId segment;
    uint64_t offset;
    std::vector<uint8_t> bytes;
  };
  struct HeldPrepare {
    TransactionId tid;
    uint64_t seqno;
    std::vector<HeldRange> ranges;
  };

  // Writes `bytes` at `offset` of `segment` wherever no extent with a
  // higher seqno already holds the byte.
  void Put(SegmentId segment, uint64_t offset, uint64_t seqno,
           std::span<const uint8_t> bytes);

  std::map<SegmentId, SegmentImage> segments_;
  std::vector<HeldPrepare> prepares_;
  std::set<TransactionId> prepared_;
  std::set<TransactionId> decided_;
  uint64_t records_ = 0;
};

}  // namespace rvm

#endif  // RVM_RVM_LOG_IMAGE_H_
