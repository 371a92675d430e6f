// IntervalSet: a set of disjoint half-open byte ranges [start, end).
//
// Used in two places that the paper calls out:
//  - intra-transaction optimization (§5.2): coalescing duplicate, overlapping
//    and adjacent set_range calls, and
//  - walking a log tail-to-head and keeping only the *latest* committed
//    value for each byte (log-based page repair, the Camelot baseline's
//    recovery), which requires tracking which bytes have already been
//    covered by newer records.
#ifndef RVM_UTIL_INTERVAL_SET_H_
#define RVM_UTIL_INTERVAL_SET_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace rvm {

struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;  // exclusive

  uint64_t length() const { return end - start; }
  bool empty() const { return end <= start; }
  bool operator==(const Interval&) const = default;
};

class IntervalSet {
 public:
  // Inserts [start, end), merging with overlapping or adjacent intervals.
  void Add(uint64_t start, uint64_t end);

  // Removes [start, end) from the set, splitting intervals as needed.
  void Remove(uint64_t start, uint64_t end);

  // True if every byte of [start, end) is in the set.
  bool Contains(uint64_t start, uint64_t end) const;

  // True if any byte of [start, end) is in the set.
  bool Intersects(uint64_t start, uint64_t end) const;

  // The sub-intervals of [start, end) NOT currently in the set, in order.
  // This is the recovery primitive: the parts of an old record not yet
  // superseded by newer records.
  std::vector<Interval> Uncovered(uint64_t start, uint64_t end) const;

  size_t interval_count() const { return intervals_.size(); }
  uint64_t total_length() const;
  bool empty() const { return intervals_.empty(); }
  void Clear() { intervals_.clear(); }

  std::vector<Interval> ToVector() const;

 private:
  // start -> end, disjoint and non-adjacent.
  std::map<uint64_t, uint64_t> intervals_;
};

}  // namespace rvm

#endif  // RVM_UTIL_INTERVAL_SET_H_
