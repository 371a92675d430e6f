// ProbeEnv: the benchmark's Env/File decorator between RVM and SimEnv.
//
// It does three things and changes nothing RVM or SimEnv observe:
//   - counts bytes read and written and syncs per file class (log, segment, checksum
//     sidecar, other), and opens an os span around every call when tracing;
//   - keeps the durable image of every file it has created: at each Sync
//     the ranges written through that handle since its last sync are copied
//     out of the file. SimFile still holds them as pending at that moment,
//     so the copy is charged no simulated disk time;
//   - cuts the power: CutPower() puts every byte written but not synced back
//     to its durable value, and afterwards every write, sync, resize, delete
//     and file creation fails. Neither Terminate nor the poison sidecar of
//     the dying instance can then change what the restart sees.
//     RestorePower() turns the files back on for the restarted instance.
//
// Single-threaded: the benchmark runs one client and inline truncation.
#ifndef PERFBENCH_PROBE_ENV_H_
#define PERFBENCH_PROBE_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/file.h"
#include "trace.h"

namespace perfbench {

enum class FileClass : uint8_t { kLog, kSegment, kSidecar, kOther };
inline constexpr int kNumFileClasses = 4;

struct IoCounts {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t syncs = 0;

  IoCounts operator-(const IoCounts& o) const {
    return {read_bytes - o.read_bytes, write_bytes - o.write_bytes,
            syncs - o.syncs};
  }
};

struct IoSnapshot {
  IoCounts by_class[kNumFileClasses];

  const IoCounts& operator[](FileClass c) const {
    return by_class[static_cast<int>(c)];
  }
  IoSnapshot operator-(const IoSnapshot& o) const {
    IoSnapshot d;
    for (int i = 0; i < kNumFileClasses; ++i) {
      d.by_class[i] = by_class[i] - o.by_class[i];
    }
    return d;
  }
};

class ProbeEnv final : public rvm::Env {
 public:
  // Paths equal to `log_path` or starting with "<log_path>.shard" are the
  // log; paths ending in ".chk" are checksum sidecars; paths under
  // `segment_prefix` are segments; everything else is "other".
  ProbeEnv(rvm::Env* inner, std::string log_path, std::string segment_prefix,
           Tracer* tracer);
  // Its files keep a pointer to it.
  ProbeEnv(const ProbeEnv&) = delete;
  ProbeEnv& operator=(const ProbeEnv&) = delete;

  rvm::StatusOr<std::unique_ptr<rvm::File>> Open(const std::string& path,
                                                 rvm::OpenMode mode) override;
  rvm::Status Delete(const std::string& path) override;
  bool Exists(const std::string& path) override;
  uint64_t NowMicros() override { return inner_->NowMicros(); }
  void ChargeCpu(double micros) override { inner_->ChargeCpu(micros); }
  void SleepMicros(uint64_t micros) override { inner_->SleepMicros(micros); }

  const IoSnapshot& counts() const { return counts_; }

  // Returns false if some unsynced bytes could not be put back (a file this
  // env did not create was written and not synced).
  bool CutPower();
  void RestorePower() { powered_ = true; }
  // Unsynced bytes CutPower() put back to their durable value, in total.
  uint64_t discarded_bytes() const { return discarded_bytes_; }

  // Bytes in all files this env has seen, at their durable sizes, and the
  // bytes it holds itself as durable images of them.
  uint64_t file_bytes() const;
  uint64_t image_bytes() const;

  // The file's durable bytes, as a restarted process would read them.
  std::vector<uint8_t> DurableImage(const std::string& path) const;

 private:
  friend class ProbeFile;

  struct Range {
    uint64_t offset;
    uint64_t length;
    const void* owner;  // the ProbeFile that wrote it; nullptr once closed
  };
  struct PathState {
    FileClass file_class = FileClass::kOther;
    // False for a file that existed before this env saw it: its durable
    // bytes are unknown, so unsynced writes to it cannot be undone.
    bool tracked = true;
    uint64_t durable_size = 0;
    std::vector<uint8_t> durable;  // bytes past its end are zero
    std::vector<Range> unsynced;
  };

  FileClass Classify(const std::string& path) const;
  IoCounts& Count(FileClass c) { return counts_.by_class[static_cast<int>(c)]; }

  rvm::Env* inner_;
  std::string log_path_;
  std::string segment_prefix_;
  Tracer* tracer_;
  bool powered_ = true;
  uint64_t discarded_bytes_ = 0;
  IoSnapshot counts_;
  std::map<std::string, std::shared_ptr<PathState>> paths_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_ENV_H_
