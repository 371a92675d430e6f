// Operating-system abstraction used by all RVM I/O.
//
// The paper's RVM relies only on a small, widely supported Unix subset
// (§3.2): open/read/write/fsync on files or raw partitions. We capture that
// subset behind the File/Env interfaces so the identical library code runs
// against:
//   - RealEnv:     POSIX files and the wall clock (production use),
//   - MemEnv:      in-memory files (fast unit tests),
//   - CrashSimEnv: in-memory files with a durable/volatile split and fault
//                  injection (crash-recovery property tests),
//   - SimEnv:      files on a simulated disk with a seek/rotation/transfer
//                  timing model (the paper's benchmark environment).
#ifndef RVM_OS_FILE_H_
#define RVM_OS_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace rvm {

// Random-access file. Implementations must be safe for concurrent reads;
// writers are externally synchronized (RVM serializes log writes internally).
class File {
 public:
  virtual ~File() = default;

  // Reads up to out.size() bytes at offset. Returns the number read, which is
  // less than out.size() only at end-of-file.
  virtual StatusOr<size_t> ReadAt(uint64_t offset, std::span<uint8_t> out) = 0;

  // Writes all of data at offset, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, std::span<const uint8_t> data) = 0;

  // Durability barrier: blocks until all previous writes are persistent.
  // RVM's permanence guarantee rests entirely on this call (§3.3).
  virtual Status Sync() = 0;

  virtual StatusOr<uint64_t> Size() = 0;

  // Grows or shrinks the file to exactly `size` bytes.
  virtual Status Resize(uint64_t size) = 0;

  // Materializes backing storage for [0, length) so later interior writes
  // never allocate. On a POSIX filesystem a resized-but-sparse log pays an
  // extent allocation — and with it a journal commit — inside every
  // post-append fsync; zero-filling once at creation moves that cost out of
  // the commit path entirely (the same reason Postgres zero-fills WAL
  // segments). In-memory environments model dense backing stores already,
  // so the default is a no-op.
  virtual Status Preallocate(uint64_t length) {
    (void)length;
    return OkStatus();
  }
};

enum class OpenMode {
  kReadOnly,
  kReadWrite,        // must exist
  kCreateIfMissing,  // read-write, created empty if absent
  kTruncate,         // read-write, created or truncated to empty
};

// File namespace + clock. One Env per "machine".
class Env {
 public:
  virtual ~Env() = default;

  virtual StatusOr<std::unique_ptr<File>> Open(const std::string& path,
                                               OpenMode mode) = 0;
  virtual Status Delete(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;

  // Monotonic time in microseconds. On SimEnv this is simulated time that
  // advances with modeled I/O and charged CPU.
  virtual uint64_t NowMicros() = 0;

  // Accounts `micros` of CPU work. Real environments ignore this (real CPU
  // time just elapses); the simulator advances its clock and CPU counters so
  // benchmarks can report amortized CPU cost per transaction (Fig. 9).
  virtual void ChargeCpu(double micros) { (void)micros; }

  // Blocks the calling thread for `micros` (retry backoff). The default is a
  // no-op so simulated environments — whose clocks advance with modeled I/O,
  // not wall time — never stall a single-threaded test; RealEnv sleeps.
  virtual void SleepMicros(uint64_t micros) { (void)micros; }

  // Replaces `to` with `from`. RealEnv overrides this with an atomic
  // ::rename — the property the metrics exposition file relies on (a scraper
  // never reads a half-written file). The default is a copy-then-delete
  // built on Open/WriteAt/Delete, which is not atomic but preserves the
  // same observable end state on the in-memory environments (whose files
  // appear whole to their single-threaded readers anyway). Like ::rename,
  // neither makes anything durable.
  virtual Status Rename(const std::string& from, const std::string& to);
};

// The default production environment (POSIX files, wall clock). Singleton.
Env* GetRealEnv();

// Convenience: read the entire file.
StatusOr<std::vector<uint8_t>> ReadWholeFile(File& file);

// Writes `content` to `path` via a "<path>.tmp" sibling plus Rename, so a
// concurrent reader sees either the previous complete file or the new one —
// never a prefix. Nothing is synced: the result is atomic for readers, not
// durable. The sampler tick uses this for the metrics exposition file, which
// every tick regenerates, so a crash that loses it loses nothing.
Status WriteFileAtomic(Env& env, const std::string& path,
                       std::string_view content);

}  // namespace rvm

#endif  // RVM_OS_FILE_H_
