// Spans recorded by the benchmark around each public RvmInstance call and
// each file-system call RVM makes through ProbeEnv. A span knows its parent
// (the span open on the single benchmark thread when it started), so a
// call's self time is its duration minus the time its child spans cover.
//
// Tracing is off in the runs that produce end-to-end figures: a disabled
// tracer reads no clock and stores nothing. Spans are kept in memory, up to
// a fixed number, and written out once when the benchmark ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kCreateLog,
  kInitialize,
  kMap,
  kBegin,
  kSetRange,
  kCommit,
  kFlush,
  kOsOpen,
  kOsRead,
  kOsWrite,
  kOsSync,
  kOsResize,
  kOsMeta,
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kCreateLog: return "rvm.create_log";
    case SpanName::kInitialize: return "rvm.initialize";
    case SpanName::kMap: return "rvm.map";
    case SpanName::kBegin: return "rvm.begin";
    case SpanName::kSetRange: return "rvm.set_range";
    case SpanName::kCommit: return "rvm.commit";
    case SpanName::kFlush: return "rvm.flush";
    case SpanName::kOsOpen: return "os.open";
    case SpanName::kOsRead: return "os.read";
    case SpanName::kOsWrite: return "os.write";
    case SpanName::kOsSync: return "os.sync";
    case SpanName::kOsResize: return "os.resize";
    case SpanName::kOsMeta: return "os.meta";
    case SpanName::kCount: break;
  }
  return "?";
}

inline bool IsOsSpan(SpanName name) { return name >= SpanName::kOsOpen; }

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(size_t keep_limit) : keep_limit_(keep_limit) {
    // Reserved up front so that recording a span never reallocates inside
    // a timed call.
    stack_.reserve(16);
    spans_.reserve(keep_limit);
  }
  // Open spans keep a pointer to it.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Host nanoseconds spent in os spans since the last ResetOsTime().
  int64_t os_ns() const { return os_ns_; }
  void ResetOsTime() { os_ns_ = 0; }

  size_t kept() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Writes the kept spans as JSON lines:
  // {"id":N,"parent":P,"name":"rvm.commit","start_ns":S,"dur_ns":D}
  // (parent 0 = root; start_ns relative to the first span). Returns false if
  // the file cannot be written.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Record& span : spans_) {
      std::fprintf(out,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"dur_ns\":%lld}\n",
                   span.id, span.parent, SpanNameString(span.name),
                   static_cast<long long>(span.start_ns - origin),
                   static_cast<long long>(span.dur_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  friend class ScopedSpan;

  struct Frame {
    uint32_t id;
    int64_t child_ns;
  };
  struct Record {
    uint32_t id;
    uint32_t parent;
    SpanName name;
    int64_t start_ns;
    int64_t dur_ns;
  };

  bool enabled_ = false;
  size_t keep_limit_;
  uint32_t next_id_ = 1;
  uint64_t dropped_ = 0;
  int64_t os_ns_ = 0;
  std::vector<Frame> stack_;
  std::vector<Record> spans_;
};

// Opens a span for the lifetime of the object (or until Close()). When the
// tracer is disabled, construction and destruction do nothing.
class ScopedSpan {
 public:
  struct Times {
    int64_t dur_ns = 0;
    int64_t self_ns = 0;  // dur_ns minus the direct children's durations
  };

  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr),
        name_(name) {
    if (tracer_ == nullptr) {
      return;
    }
    id_ = tracer_->next_id_++;
    parent_ = tracer_->stack_.empty() ? 0 : tracer_->stack_.back().id;
    tracer_->stack_.push_back({id_, 0});
    start_ns_ = HostNowNs();
  }

  ~ScopedSpan() { Close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span and returns its times; later calls return the same.
  Times Close() {
    if (tracer_ == nullptr || closed_) {
      return times_;
    }
    closed_ = true;
    const int64_t end_ns = HostNowNs();
    times_.dur_ns = end_ns - start_ns_;
    times_.self_ns = times_.dur_ns - tracer_->stack_.back().child_ns;
    tracer_->stack_.pop_back();
    if (!tracer_->stack_.empty()) {
      tracer_->stack_.back().child_ns += times_.dur_ns;
    }
    if (IsOsSpan(name_)) {
      tracer_->os_ns_ += times_.dur_ns;
    }
    if (tracer_->spans_.size() < tracer_->keep_limit_) {
      tracer_->spans_.push_back({id_, parent_, name_, start_ns_, times_.dur_ns});
    } else {
      ++tracer_->dropped_;
    }
    return times_;
  }

 private:
  Tracer* tracer_;
  SpanName name_;
  bool closed_ = false;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  int64_t start_ns_ = 0;
  Times times_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
