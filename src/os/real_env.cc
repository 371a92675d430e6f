// POSIX implementation of File/Env.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "src/os/file.h"

namespace rvm {
namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

class RealFile final : public File {
 public:
  RealFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  RealFile(const RealFile&) = delete;
  RealFile& operator=(const RealFile&) = delete;

  StatusOr<size_t> ReadAt(uint64_t offset, std::span<uint8_t> out) override {
    size_t done = 0;
    while (done < out.size()) {
      ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                          static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return IoError(ErrnoMessage("pread", path_));
      }
      if (n == 0) {
        break;  // EOF
      }
      done += static_cast<size_t>(n);
    }
    return done;
  }

  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override {
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                           static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return IoError(ErrnoMessage("pwrite", path_));
      }
      done += static_cast<size_t>(n);
    }
    return OkStatus();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return IoError(ErrnoMessage("fsync", path_));
    }
    return OkStatus();
  }

  Status Preallocate(uint64_t length) override {
    // Write real zeros rather than fallocate: fallocate'd extents stay
    // "unwritten" and still force an extent-state journal commit on the
    // first write to each block, which is exactly the per-fsync cost this
    // call exists to remove.
    std::vector<uint8_t> zeros(1 << 20, 0);
    for (uint64_t offset = 0; offset < length; offset += zeros.size()) {
      uint64_t chunk = std::min<uint64_t>(zeros.size(), length - offset);
      std::span<const uint8_t> data(zeros.data(), chunk);
      RVM_RETURN_IF_ERROR(WriteAt(offset, data));
    }
    return OkStatus();
  }

  StatusOr<uint64_t> Size() override {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      return IoError(ErrnoMessage("fstat", path_));
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Status Resize(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return IoError(ErrnoMessage("ftruncate", path_));
    }
    return OkStatus();
  }

 private:
  int fd_;
  std::string path_;
};

class RealEnv final : public Env {
 public:
  StatusOr<std::unique_ptr<File>> Open(const std::string& path,
                                       OpenMode mode) override {
    int flags = 0;
    switch (mode) {
      case OpenMode::kReadOnly:
        flags = O_RDONLY;
        break;
      case OpenMode::kReadWrite:
        flags = O_RDWR;
        break;
      case OpenMode::kCreateIfMissing:
        flags = O_RDWR | O_CREAT;
        break;
      case OpenMode::kTruncate:
        flags = O_RDWR | O_CREAT | O_TRUNC;
        break;
    }
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      if (errno == ENOENT) {
        return NotFound(ErrnoMessage("open", path));
      }
      return IoError(ErrnoMessage("open", path));
    }
    return std::unique_ptr<File>(new RealFile(fd, path));
  }

  Status Delete(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) {
        return NotFound(ErrnoMessage("unlink", path));
      }
      return IoError(ErrnoMessage("unlink", path));
    }
    return OkStatus();
  }

  bool Exists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  uint64_t NowMicros() override {
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now).count());
  }

  void SleepMicros(uint64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      if (errno == ENOENT) {
        return NotFound(ErrnoMessage("rename", from));
      }
      return IoError(ErrnoMessage("rename", from));
    }
    return OkStatus();
  }
};

}  // namespace

Env* GetRealEnv() {
  static RealEnv* env = new RealEnv();
  return env;
}

StatusOr<std::vector<uint8_t>> ReadWholeFile(File& file) {
  RVM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::vector<uint8_t> data(size);
  if (size > 0) {
    RVM_ASSIGN_OR_RETURN(size_t n, file.ReadAt(0, data));
    data.resize(n);
  }
  return data;
}

Status Env::Rename(const std::string& from, const std::string& to) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> source,
                       Open(from, OpenMode::kReadOnly));
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadWholeFile(*source));
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> target,
                       Open(to, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(target->WriteAt(0, data));
  return Delete(from);
}

Status WriteFileAtomic(Env& env, const std::string& path,
                       std::string_view content) {
  // No Sync (file.h): readers need the swap atomic, not the bytes durable.
  const std::string tmp = path + ".tmp";
  {
    RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                         env.Open(tmp, OpenMode::kTruncate));
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t*>(content.data()), content.size());
    RVM_RETURN_IF_ERROR(file->WriteAt(0, bytes));
  }
  return env.Rename(tmp, path);
}

}  // namespace rvm
