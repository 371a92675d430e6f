// Per-page CRC32 sidecar for external data segments (DESIGN.md section 14).
//
// The paper scopes media failure out of RVM entirely ("RVM does not provide
// media recovery", section 3.1): the log is CRC-protected record by record,
// but the data segments it replays into are trusted blindly. A flipped bit in
// a segment file would be mapped into memory, served to the application, and
// laundered into "committed" state by the next truncation. The checksum map
// closes that gap: every segment <path> gains a sidecar <path>.chk recording
// one CRC32 per page-size block of the segment file, recorded whenever
// truncation or recovery writes committed bytes into it: from the page image
// written for whole-page writeback, from the file read back for partial-page
// log apply. A live instance keeps each map in memory (RvmInstance's shards
// own them) and saves it after every change.
//
// Crash-safety contract: the sidecar is rewritten in full (single WriteAt at
// offset 0, then Sync) with a footer CRC over the whole body. A torn or
// interrupted rewrite fails the footer check and loads as the empty map — all
// pages unknown — so a torn checksum update can never make a good page look
// bad. The converse (a stale map making a bad page look good) is excluded by
// write ordering: segment writes are synced before the map is rewritten, and
// the log head only advances after both, so any page whose map entry could be
// stale is still covered by live log records and is re-written and
// re-checksummed by recovery (the atomicity argument in DESIGN.md section 14).
#ifndef RVM_RVM_CHECKSUM_MAP_H_
#define RVM_RVM_CHECKSUM_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/os/file.h"
#include "src/util/status.h"

namespace rvm {

class SegmentChecksumMap {
 public:
  // Sidecar path for a segment file: "<segment path>.chk".
  static std::string PathFor(const std::string& segment_path);

  // Loads the sidecar for `segment_path`. A missing, torn, or otherwise
  // invalid sidecar (bad magic/version/CRC, or a page size that differs from
  // `page_size`) yields an empty map with every page unknown — never an
  // error, per the contract above. page_size 0 adopts the sidecar's own
  // recorded page size (offline tools).
  static SegmentChecksumMap Load(Env* env, const std::string& segment_path,
                                 uint64_t page_size);

  SegmentChecksumMap(std::string sidecar_path, uint64_t page_size)
      : path_(std::move(sidecar_path)), page_size_(page_size) {}

  uint64_t page_size() const { return page_size_; }
  uint64_t num_pages() const { return known_.size(); }
  bool dirty() const { return dirty_; }

  // True if `page` has a recorded checksum.
  bool known(uint64_t page) const {
    return page < known_.size() && known_[page] != 0;
  }
  uint32_t crc(uint64_t page) const {
    return page < crcs_.size() ? crcs_[page] : 0;
  }

  // Records the checksum for `page`, growing the map as needed.
  void Set(uint64_t page, uint32_t crc);

  // Drops the record for `page` (back to unknown).
  void Forget(uint64_t page);

  // Atomically rewrites the sidecar: serialize the whole map, one WriteAt at
  // offset 0, Resize to the exact length, Sync. No-op when not dirty.
  Status Save(Env* env);

 private:
  std::string path_;
  uint64_t page_size_ = 0;
  std::vector<uint8_t> known_;  // 1 = crcs_[page] is valid
  std::vector<uint32_t> crcs_;
  bool dirty_ = false;
};

}  // namespace rvm

#endif  // RVM_RVM_CHECKSUM_MAP_H_
