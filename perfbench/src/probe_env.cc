#include "probe_env.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

using rvm::File;
using rvm::OpenMode;
using rvm::Status;
using rvm::StatusOr;

namespace {

Status PowerCut() { return rvm::IoError("power cut"); }

}  // namespace

class ProbeFile final : public File {
 public:
  ProbeFile(ProbeEnv* env, std::shared_ptr<ProbeEnv::PathState> state,
            std::unique_ptr<File> inner)
      : env_(env), state_(std::move(state)), inner_(std::move(inner)) {}

  ~ProbeFile() override {
    // Writes never synced through this handle stay pending until a cut.
    for (ProbeEnv::Range& range : state_->unsynced) {
      if (range.owner == this) {
        range.owner = nullptr;
      }
    }
  }

  StatusOr<size_t> ReadAt(uint64_t offset, std::span<uint8_t> out) override {
    ScopedSpan span(env_->tracer_, SpanName::kOsRead);
    StatusOr<size_t> n = inner_->ReadAt(offset, out);
    if (n.ok()) {
      env_->Count(state_->file_class).read_bytes += *n;
    }
    return n;
  }

  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override {
    ScopedSpan span(env_->tracer_, SpanName::kOsWrite);
    if (!env_->powered_) {
      return PowerCut();
    }
    RVM_RETURN_IF_ERROR(inner_->WriteAt(offset, data));
    env_->Count(state_->file_class).write_bytes += data.size();
    if (!data.empty()) {
      std::vector<ProbeEnv::Range>& unsynced = state_->unsynced;
      if (!unsynced.empty() && unsynced.back().owner == this &&
          unsynced.back().offset + unsynced.back().length == offset) {
        unsynced.back().length += data.size();
      } else {
        unsynced.push_back({offset, data.size(), this});
      }
    }
    return rvm::OkStatus();
  }

  Status Sync() override {
    ScopedSpan span(env_->tracer_, SpanName::kOsSync);
    if (!env_->powered_) {
      return PowerCut();
    }
    // Copy this handle's unsynced ranges into the durable image before the
    // inner sync: SimFile still has them pending, so reading them back is
    // free on the simulated clock.
    std::vector<ProbeEnv::Range>& unsynced = state_->unsynced;
    ProbeEnv::PathState& state = *state_;
    for (const ProbeEnv::Range& range : unsynced) {
      if (range.owner != this) {
        continue;
      }
      const uint64_t end = range.offset + range.length;
      if (state.durable.size() < end) {
        state.durable.resize(end);
      }
      std::span<uint8_t> dst(state.durable.data() + range.offset, range.length);
      RVM_ASSIGN_OR_RETURN(size_t n, inner_->ReadAt(range.offset, dst));
      std::memset(dst.data() + n, 0, dst.size() - n);
      state.durable_size = std::max(state.durable_size, range.offset + n);
    }
    std::erase_if(unsynced,
                  [this](const ProbeEnv::Range& r) { return r.owner == this; });
    RVM_RETURN_IF_ERROR(inner_->Sync());
    ++env_->Count(state_->file_class).syncs;
    return rvm::OkStatus();
  }

  StatusOr<uint64_t> Size() override {
    ScopedSpan span(env_->tracer_, SpanName::kOsMeta);
    return inner_->Size();
  }

  Status Resize(uint64_t size) override {
    ScopedSpan span(env_->tracer_, SpanName::kOsResize);
    if (!env_->powered_) {
      return PowerCut();
    }
    RVM_RETURN_IF_ERROR(inner_->Resize(size));
    // Size changes are taken as durable at once, as MemEnv applies them.
    ProbeEnv::PathState& state = *state_;
    state.durable_size = size;
    if (state.durable.size() > size) {
      state.durable.resize(size);
    }
    for (ProbeEnv::Range& range : state.unsynced) {
      range.length = range.offset >= size
                         ? 0
                         : std::min(range.length, size - range.offset);
    }
    std::erase_if(state.unsynced,
                  [](const ProbeEnv::Range& r) { return r.length == 0; });
    return rvm::OkStatus();
  }

  Status Preallocate(uint64_t length) override {
    ScopedSpan span(env_->tracer_, SpanName::kOsResize);
    if (!env_->powered_) {
      return PowerCut();
    }
    return inner_->Preallocate(length);
  }

 private:
  ProbeEnv* env_;
  std::shared_ptr<ProbeEnv::PathState> state_;
  std::unique_ptr<File> inner_;
};

ProbeEnv::ProbeEnv(rvm::Env* inner, std::string log_path,
                   std::string segment_prefix, Tracer* tracer)
    : inner_(inner),
      log_path_(std::move(log_path)),
      segment_prefix_(std::move(segment_prefix)),
      tracer_(tracer) {}

FileClass ProbeEnv::Classify(const std::string& path) const {
  if (path.ends_with(".chk")) {
    return FileClass::kSidecar;
  }
  if (path == log_path_ || path.starts_with(log_path_ + ".shard")) {
    return FileClass::kLog;
  }
  if (path.starts_with(segment_prefix_)) {
    return FileClass::kSegment;
  }
  return FileClass::kOther;
}

StatusOr<std::unique_ptr<File>> ProbeEnv::Open(const std::string& path,
                                               OpenMode mode) {
  ScopedSpan span(tracer_, SpanName::kOsOpen);
  const bool exists = inner_->Exists(path);
  const bool creates = mode == OpenMode::kTruncate ||
                       (mode == OpenMode::kCreateIfMissing && !exists);
  if (creates && !powered_) {
    return PowerCut();
  }
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> inner, inner_->Open(path, mode));
  std::shared_ptr<PathState>& state = paths_[path];
  if (state == nullptr || creates) {
    state = std::make_shared<PathState>();
    state->file_class = Classify(path);
    if (!creates) {
      RVM_ASSIGN_OR_RETURN(state->durable_size, inner->Size());
      state->tracked = state->durable_size == 0;
    }
  }
  return std::unique_ptr<File>(new ProbeFile(this, state, std::move(inner)));
}

Status ProbeEnv::Delete(const std::string& path) {
  ScopedSpan span(tracer_, SpanName::kOsMeta);
  if (!powered_) {
    return PowerCut();
  }
  RVM_RETURN_IF_ERROR(inner_->Delete(path));
  paths_.erase(path);
  return rvm::OkStatus();
}

bool ProbeEnv::Exists(const std::string& path) {
  ScopedSpan span(tracer_, SpanName::kOsMeta);
  return inner_->Exists(path);
}

bool ProbeEnv::CutPower() {
  powered_ = false;
  bool restored_all = true;
  for (auto& [path, state] : paths_) {
    if (state->unsynced.empty()) {
      continue;
    }
    if (!state->tracked) {
      restored_all = false;
      continue;
    }
    // A raw handle on the simulated env: its writes only become pending and
    // it is closed without a sync, so the put-back costs no simulated time.
    StatusOr<std::unique_ptr<File>> raw = inner_->Open(path, OpenMode::kReadWrite);
    if (!raw.ok()) {
      restored_all = false;
      continue;
    }
    for (const Range& range : state->unsynced) {
      std::vector<uint8_t> bytes(range.length, 0);
      if (range.offset < state->durable.size()) {
        const uint64_t have =
            std::min<uint64_t>(range.length, state->durable.size() - range.offset);
        std::memcpy(bytes.data(), state->durable.data() + range.offset, have);
      }
      restored_all &= (*raw)->WriteAt(range.offset, bytes).ok();
      discarded_bytes_ += range.length;
    }
    StatusOr<uint64_t> size = (*raw)->Size();
    if (size.ok() && *size > state->durable_size) {
      restored_all &= (*raw)->Resize(state->durable_size).ok();
    }
    state->unsynced.clear();
  }
  return restored_all;
}

uint64_t ProbeEnv::file_bytes() const {
  uint64_t total = 0;
  for (const auto& [path, state] : paths_) {
    total += state->durable_size;
  }
  return total;
}

uint64_t ProbeEnv::image_bytes() const {
  uint64_t total = 0;
  for (const auto& [path, state] : paths_) {
    total += state->durable.size();
  }
  return total;
}

std::vector<uint8_t> ProbeEnv::DurableImage(const std::string& path) const {
  auto it = paths_.find(path);
  if (it == paths_.end()) {
    return {};
  }
  const PathState& state = *it->second;
  std::vector<uint8_t> image(state.durable_size, 0);
  std::memcpy(image.data(), state.durable.data(),
              std::min<uint64_t>(state.durable.size(), image.size()));
  return image;
}

}  // namespace perfbench
