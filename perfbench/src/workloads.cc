#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "probe_env.h"
#include "src/rvm/log_device.h"
#include "src/rvm/rvm.h"
#include "src/sim/sim_clock.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_env.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/workload/tpca.h"
#include "trace.h"

namespace perfbench {
namespace {

using rvm::CommitMode;
using rvm::RestoreMode;
using rvm::RvmInstance;
using rvm::Status;
using rvm::StatusOr;
using rvm::TransactionId;

constexpr char kLogPath[] = "/log/rvm";
constexpr char kSegmentPrefix[] = "/data/";
constexpr char kSegmentPath[] = "/data/seg";
// Unmounted, so the exposition rewrites cost no simulated disk time.
constexpr char kMetricsPath[] = "/metrics/rvm.prom";

// Transactions per timed batch for txn_host_us.
constexpr uint64_t kBatch = 64;
// In the monitoring-on rerun, one sampler tick (and exposition rewrite) per
// this many transactions.
constexpr uint64_t kSampleEvery = 256;
// Spans kept in memory for the trace file.
constexpr size_t kSpanKeepLimit = 100'000;

// The paper's disk (§7.1.2: ~17.4 ms log force), set here rather than taken
// from the library defaults so a default change cannot move a simulated
// figure.
rvm::SimDiskParams PaperDisk() {
  rvm::SimDiskParams p;
  p.settle_ms = 2.0;
  p.full_seek_ms = 16.0;
  p.capacity_bytes = 2ull << 30;
  p.rpm = 3600;
  p.transfer_mb_per_s = 1.5;
  p.near_distance_bytes = 2ull << 20;
  p.track_bytes = 256 * 1024;
  p.idle_streaming_us = 500.0;
  p.sync_overhead_ms = 8.8;
  return p;
}

// The DECstation 5000/200 CPU charges (§7.1, Fig. 9), likewise fixed here.
rvm::CpuModel PaperCpu() {
  rvm::CpuModel m;
  m.begin_txn_us = 80.0;
  m.set_range_us = 250.0;
  m.commit_fixed_us = 1000.0;
  m.abort_fixed_us = 300.0;
  m.per_range_us = 120.0;
  m.map_fixed_us = 2000.0;
  m.truncation_record_us = 200.0;
  m.recovery_record_us = 250.0;
  m.copy_us_per_byte = 0.05;
  m.log_assembly_us_per_byte = 0.08;
  m.scale = 1.0;
  return m;
}

// Separate log and data disks, as in the Table 1 caption.
struct Machine {
  rvm::SimClock clock;
  rvm::SimDisk log_disk{&clock, "log", PaperDisk()};
  rvm::SimDisk data_disk{&clock, "data", PaperDisk()};
  rvm::SimEnv sim{&clock};
  ProbeEnv env;

  explicit Machine(Tracer* tracer)
      : env(&sim, kLogPath, kSegmentPrefix, tracer) {
    sim.Mount("/log/", &log_disk);
    sim.Mount(kSegmentPrefix, &data_disk);
  }
};

enum class Mode {
  kUntraced,    // end-to-end figures
  kTraced,      // spans around every public and os call
  kMonitoring,  // untraced, with span sampling and metrics export on
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) /
                             static_cast<double>(v.size());
}

// Time accounting of traced calls: `parts` sums each call's self time and
// the os time the tracer accumulated while its span was open, `outer` the
// host time the client measured around the call, span included.
struct Closure {
  double parts = 0;
  double outer = 0;
  uint64_t calls = 0;

  void Add(const ScopedSpan::Times& times, int64_t os_ns, int64_t outer_ns) {
    parts += static_cast<double>(times.self_ns + os_ns);
    outer += static_cast<double>(outer_ns);
    ++calls;
  }
  void Add(const Closure& other) {
    parts += other.parts;
    outer += other.outer;
    calls += other.calls;
  }
};

// Host time that opening and closing one span adds to the time measured
// around it (the span's own two clock reads and its bookkeeping): the median
// of that difference over empty spans.
double SpanCostNs() {
  Tracer tracer(0);
  tracer.set_enabled(true);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    const int64_t t0 = HostNowNs();
    ScopedSpan span(&tracer, SpanName::kCommit);
    const ScopedSpan::Times times = span.Close();
    const int64_t t1 = HostNowNs();
    samples.push_back(static_cast<double>(t1 - t0 - times.dur_ns));
  }
  return Median(samples);
}

// What one round measured. Simulated figures are identical in every round
// of a run (same inputs, fresh machine); host figures are pooled.
struct RoundStats {
  bool verified = false;
  uint64_t txns = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  std::string problem;

  std::vector<double> commit_sim_us;
  // Sim time from the start of EndTransaction until the commit is durable:
  // its own end for a flush commit, the end of the next Flush or flush
  // commit for a no-flush one.
  std::vector<double> durable_sim_us;
  std::vector<double> flush_sim_us;
  std::vector<double> commit_host_ns;
  double commit_host_p50_ns = 0;
  std::vector<double> batch_txn_ns;
  double txn_host_p50_ns = 0;  // median over this round's batches
  uint64_t set_range_calls = 0;
  uint64_t declared_bytes = 0;
  double body_sim_us = 0;
  IoSnapshot body_io;
  double log_busy_us = 0;
  double data_busy_us = 0;
  uint64_t region_bytes = 0;
  uint64_t discarded_bytes = 0;  // unsynced bytes the power cut put back
  uint64_t file_bytes = 0;   // simulated files at the crash
  uint64_t image_bytes = 0;  // ProbeEnv's durable images of them

  // Traced rounds only.
  std::vector<double> begin_ns;
  std::vector<double> set_range_ns;
  std::vector<double> commit_self_ns;
  Closure commit_closure;
  Closure init_closure;
  double body_os_ns = 0;
  std::vector<double> snapshot_ns;
  std::vector<double> render_ns;
  double extend_host_ns = 0;
  double extend_sim_us = 0;
  uint64_t extend_read_bytes = 0;

  double restart_sim_us = 0;
  double init_sim_us = 0;
  double init_host_ns = 0;
  double init_self_ns = 0;
  double map_sim_us = 0;
  double map_host_ns = 0;
  IoSnapshot restart_io;
};

// A round's host figures: medians over its commits and its batches. A run
// reports the median of its rounds' figures.
void Summarize(RoundStats* round) {
  round->commit_host_p50_ns = Median(round->commit_host_ns);
  round->txn_host_p50_ns = Median(round->batch_txn_ns);
}

// Keeps a round's figures and drops its per-commit samples, so that the
// benchmark's own memory does not grow with the number of rounds (it would
// show in peak_rss_mb). The first round of each kind keeps its samples: the
// simulated figures come from it.
void Compact(RoundStats* round) {
  Summarize(round);
  for (std::vector<double>* samples :
       {&round->commit_sim_us, &round->durable_sim_us, &round->flush_sim_us,
        &round->commit_host_ns, &round->batch_txn_ns}) {
    samples->clear();
    samples->shrink_to_fit();
  }
}

// The one client: every call into RvmInstance goes through here, so each is
// timed on both clocks and, when tracing, wrapped in a span. Application
// writes go to the mapped region and to a pending list that is applied to
// the shadow image only when the commit returns OK. The list holds a fill's
// value, not its bytes, so that the benchmark's own bookkeeping inside a
// timed transaction stays a few stores per write; the shadow is written
// after EndTransaction returns, outside the timed window.
class Client {
 public:
  Client(RvmInstance* rvm, uint8_t* base, std::vector<uint8_t>* shadow,
         Tracer* tracer, rvm::SimClock* clock, RoundStats* stats,
         bool monitoring)
      : rvm_(rvm),
        base_(base),
        shadow_(shadow),
        tracer_(tracer),
        clock_(clock),
        stats_(stats),
        monitoring_(monitoring) {}

  StatusOr<TransactionId> Begin(RestoreMode mode) {
    txn_start_ns_ = HostNowNs();
    ScopedSpan span(tracer_, SpanName::kBegin);
    StatusOr<TransactionId> tid = rvm_->BeginTransaction(mode);
    Record(span, &stats_->begin_ns);
    return Check(std::move(tid));
  }

  Status SetRange(TransactionId tid, uint64_t offset, uint64_t length) {
    ScopedSpan span(tracer_, SpanName::kSetRange);
    Status status = rvm_->SetRange(tid, base_ + offset, length);
    Record(span, &stats_->set_range_ns);
    ++stats_->set_range_calls;
    declared_pending_ += length;
    return Check(std::move(status));
  }

  // An application write inside the current transaction.
  void Write(uint64_t offset, const void* data, uint64_t length) {
    std::memcpy(base_ + offset, data, length);
    const auto* bytes = static_cast<const uint8_t*>(data);
    pending_.push_back({offset, length, kBytes});
    pending_bytes_.insert(pending_bytes_.end(), bytes, bytes + length);
  }
  void Fill(uint64_t offset, uint8_t value, uint64_t length) {
    std::memset(base_ + offset, value, length);
    pending_.push_back({offset, length, value});
  }
  // The committed value of a word, from the shadow image.
  template <typename T>
  T Committed(uint64_t offset) const {
    T value;
    std::memcpy(&value, shadow_->data() + offset, sizeof(T));
    return value;
  }

  Status End(TransactionId tid, CommitMode mode) {
    const double sim0 = clock_->now_micros();
    const int64_t host0 = HostNowNs();
    const int64_t os0 = tracer_->os_ns();
    ScopedSpan span(tracer_, SpanName::kCommit);
    Status status = rvm_->EndTransaction(tid, mode);
    const ScopedSpan::Times times = span.Close();
    const int64_t host1 = HostNowNs();
    const double sim1 = clock_->now_micros();
    stats_->commit_sim_us.push_back(sim1 - sim0);
    stats_->commit_host_ns.push_back(static_cast<double>(host1 - host0));
    if (tracer_->enabled()) {
      stats_->commit_self_ns.push_back(static_cast<double>(times.self_ns));
      stats_->commit_closure.Add(times, tracer_->os_ns() - os0, host1 - host0);
    }
    RVM_RETURN_IF_ERROR(Check(std::move(status)));
    const uint8_t* bytes = pending_bytes_.data();
    for (const PendingWrite& w : pending_) {
      if (w.fill == kBytes) {
        std::memcpy(shadow_->data() + w.offset, bytes, w.length);
        bytes += w.length;
      } else {
        std::memset(shadow_->data() + w.offset, w.fill, w.length);
      }
    }
    pending_.clear();
    pending_bytes_.clear();
    not_durable_.push_back(sim0);
    if (mode == CommitMode::kFlush) {
      MarkDurable(sim1);
    }
    stats_->declared_bytes += declared_pending_;
    declared_pending_ = 0;
    ++committed_;
    ++stats_->txns;
    // The transaction's host time ends when EndTransaction returns.
    batch_ns_ += host1 - txn_start_ns_;
    if (monitoring_ && committed_ % kSampleEvery == 0) {
      const int64_t sample0 = HostNowNs();
      rvm_->SampleNow();
      batch_ns_ += HostNowNs() - sample0;
    }
    if (++batch_txns_ == kBatch) {
      stats_->batch_txn_ns.push_back(static_cast<double>(batch_ns_) / kBatch);
      batch_ns_ = 0;
      batch_txns_ = 0;
    }
    return rvm::OkStatus();
  }

  // Forces spooled no-flush commits; its host time counts toward the
  // current batch of transactions.
  Status Flush() {
    const double sim0 = clock_->now_micros();
    const int64_t host0 = HostNowNs();
    ScopedSpan span(tracer_, SpanName::kFlush);
    Status status = rvm_->Flush();
    span.Close();
    batch_ns_ += HostNowNs() - host0;
    const double sim1 = clock_->now_micros();
    stats_->flush_sim_us.push_back(sim1 - sim0);
    RVM_RETURN_IF_ERROR(Check(std::move(status)));
    MarkDurable(sim1);
    return rvm::OkStatus();
  }

 private:
  void Record(ScopedSpan& span, std::vector<double>* out) {
    if (tracer_->enabled()) {
      out->push_back(static_cast<double>(span.Close().dur_ns));
    }
  }
  void MarkDurable(double sim_now) {
    for (double start : not_durable_) {
      stats_->durable_sim_us.push_back(sim_now - start);
    }
    not_durable_.clear();
  }
  template <typename T>
  T Check(T result) {
    if (!result.ok()) {
      ++stats_->failed;
    }
    return result;
  }

  RvmInstance* rvm_;
  uint8_t* base_;
  std::vector<uint8_t>* shadow_;
  Tracer* tracer_;
  rvm::SimClock* clock_;
  RoundStats* stats_;
  bool monitoring_;
  // Writes of the open transaction: a fill's value, or kBytes for a write
  // whose bytes follow in pending_bytes_.
  static constexpr int kBytes = -1;
  struct PendingWrite {
    uint64_t offset;
    uint64_t length;
    int fill;
  };
  std::vector<PendingWrite> pending_;
  std::vector<uint8_t> pending_bytes_;
  uint64_t declared_pending_ = 0;
  std::vector<double> not_durable_;  // sim start times of no-flush commits
  uint64_t committed_ = 0;
  int64_t txn_start_ns_ = 0;
  int64_t batch_ns_ = 0;
  uint64_t batch_txns_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual uint64_t log_bytes() const = 0;
  virtual uint64_t region_bytes() const = 0;
  // Runs the round's transactions. Inputs come only from the seed, so every
  // round of a run issues the same calls.
  virtual Status Run(Client& client) = 0;
  // Checks the workload's own invariant on a recovered image.
  virtual bool CheckInvariant(const uint8_t* image, std::string* why) const {
    (void)image;
    (void)why;
    return true;
  }
};

// The paper's TPC-A variant (§7.1.1), localized pattern, one flush commit
// per transaction in restore mode. Each account, teller and branch record
// starts with an int64 balance and the sequence number of the transaction
// that last changed it; the audit record holds account, teller, delta and
// sequence number.
class TpcaFlush final : public Workload {
 public:
  struct Shape {
    uint64_t accounts;
    uint64_t txns;
    uint64_t log_bytes;
  };
  // ~8 MB of recoverable memory over a 1 MB log: inline truncation runs
  // over a dozen cycles per round, and its stalls are over 1% of commits,
  // so the p99 falls among them and varies little from seed to seed.
  static constexpr Shape kBenchShape{32768, 16000, 1ull << 20};

  TpcaFlush(uint64_t seed, Shape shape) : shape_(shape), seed_(seed) {
    config_.num_accounts = shape.accounts;
    config_.pattern = rvm::TpcaPattern::kLocalized;
    config_.seed = seed;
    accounts_ = 0;
    audit_ = config_.accounts_bytes();
    tellers_ = audit_ + config_.audit_bytes();
    branches_ = tellers_ + config_.tellers_bytes();
  }

  uint64_t log_bytes() const override { return shape_.log_bytes; }
  uint64_t region_bytes() const override { return config_.rmem_bytes(); }
  int64_t delta_sum() const { return delta_sum_; }

  Status Run(Client& c) override {
    constexpr uint64_t kRecord = rvm::TpcaConfig::kAccountBytes;
    constexpr uint64_t kAudit = rvm::TpcaConfig::kAuditBytes;
    rvm::TpcaWorkload generator(config_);
    rvm::Xoshiro256 deltas(seed_ ^ 0xD1B54A32D192ED03ull);
    for (uint64_t seq = 1; seq <= shape_.txns; ++seq) {
      const rvm::TpcaTxn txn = generator.Next();
      const int64_t delta = static_cast<int64_t>(deltas.Below(2001)) - 1000;
      const uint64_t account = accounts_ + txn.account * kRecord;
      const uint64_t audit = audit_ + txn.audit_slot * kAudit;
      const uint64_t teller = tellers_ + txn.teller * kRecord;
      const uint64_t branch = branches_ + txn.branch * kRecord;
      RVM_ASSIGN_OR_RETURN(TransactionId tid, c.Begin(RestoreMode::kRestore));
      RVM_RETURN_IF_ERROR(c.SetRange(tid, account, kRecord));
      RVM_RETURN_IF_ERROR(c.SetRange(tid, audit, kAudit));
      RVM_RETURN_IF_ERROR(c.SetRange(tid, teller, kRecord));
      RVM_RETURN_IF_ERROR(c.SetRange(tid, branch, kRecord));
      for (uint64_t record : {account, teller, branch}) {
        const int64_t balance[2] = {c.Committed<int64_t>(record) + delta,
                                    static_cast<int64_t>(seq)};
        c.Write(record, balance, sizeof(balance));
      }
      const int64_t history[4] = {static_cast<int64_t>(txn.account),
                                  static_cast<int64_t>(txn.teller), delta,
                                  static_cast<int64_t>(seq)};
      c.Write(audit, history, sizeof(history));
      RVM_RETURN_IF_ERROR(c.End(tid, CommitMode::kFlush));
      delta_sum_ += delta;
    }
    return rvm::OkStatus();
  }

  // Balance invariant: the account total, the teller total, the branch
  // balance and the audit trail's delta total each equal the sum of the
  // generated deltas of committed transactions (all balances start at 0).
  bool CheckInvariant(const uint8_t* image, std::string* why) const override {
    return CheckBalances(image, delta_sum_, why);
  }

  bool CheckBalances(const uint8_t* image, int64_t expected,
                     std::string* why) const {
    auto sum = [&](uint64_t base, uint64_t count, uint64_t stride,
                   uint64_t field) {
      int64_t total = 0;
      for (uint64_t i = 0; i < count; ++i) {
        int64_t v;
        std::memcpy(&v, image + base + i * stride + field, sizeof(v));
        total += v;
      }
      return total;
    };
    constexpr uint64_t kRecord = rvm::TpcaConfig::kAccountBytes;
    const int64_t accounts = sum(accounts_, config_.num_accounts, kRecord, 0);
    const int64_t tellers =
        sum(tellers_, rvm::TpcaConfig::kTellers, kRecord, 0);
    const int64_t branch =
        sum(branches_, rvm::TpcaConfig::kBranches, kRecord, 0);
    const int64_t audit = sum(audit_, config_.audit_records(),
                              rvm::TpcaConfig::kAuditBytes, 16);
    if (accounts == expected && tellers == expected && branch == expected &&
        audit == expected) {
      return true;
    }
    *why = "TPC-A balances disagree: accounts " + std::to_string(accounts) +
           ", tellers " + std::to_string(tellers) + ", branch " +
           std::to_string(branch) + ", audit " + std::to_string(audit) +
           ", generated deltas " + std::to_string(expected);
    return false;
  }

 private:
  Shape shape_;
  uint64_t seed_;
  rvm::TpcaConfig config_;
  uint64_t accounts_;
  uint64_t audit_;
  uint64_t tellers_;
  uint64_t branches_;
  int64_t delta_sum_ = 0;
};

// The Table 2 Coda client mix (CodaProfile in src/workload/coda.h, client
// settings), generated here so every call can be timed: no-flush bursts of
// 2-16 updates on one of 64 directories, half of them status updates of the
// previous block, defensive duplicate SetRanges at rate 0.5, and a Flush
// every 64 operations.
class CodaNoflush final : public Workload {
 public:
  static constexpr uint64_t kOps = 8000;
  static constexpr uint64_t kDirectories = 64;
  static constexpr uint64_t kDirectoryBytes = 4096;
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint64_t kBlockBytes = 512;
  static constexpr uint64_t kBlocks =
      (kDirectoryBytes - kHeaderBytes) / kBlockBytes;
  static constexpr uint64_t kFlushEvery = 64;

  explicit CodaNoflush(uint64_t seed) : seed_(seed) {}

  // A round logs ~3 MB, under the truncation threshold of this log: the
  // round exercises the commit path, not truncation, and its whole log is
  // live at the crash, so the restart does not depend on where in a
  // truncation cycle the crash fell.
  uint64_t log_bytes() const override { return 8ull << 20; }
  uint64_t region_bytes() const override {
    return (kDirectories + 1) * kDirectoryBytes;
  }

  Status Run(Client& c) override {
    rvm::Xoshiro256 rng(seed_);
    uint64_t done = 0;
    while (done < kOps) {
      const uint64_t directory = rng.Below(kDirectories);
      const uint64_t burst = rng.Range(2, 16);
      uint64_t block = rng.Below(kBlocks);
      for (uint64_t i = 0; i < burst && done < kOps; ++i, ++done) {
        if (i > 0 && rng.NextDouble() >= 0.5) {
          block = (block + 1) % kBlocks;
        }
        // Inputs are drawn before Begin, so the generator is not timed.
        const auto header_fill = static_cast<uint8_t>(rng.Next());
        const auto content_fill = static_cast<uint8_t>(rng.Next());
        const bool duplicate = rng.NextDouble() < 0.5;
        RVM_ASSIGN_OR_RETURN(TransactionId tid,
                             c.Begin(RestoreMode::kNoRestore));
        const uint64_t header = (directory + 1) * kDirectoryBytes;
        const uint64_t content = header + kHeaderBytes + block * kBlockBytes;
        RVM_RETURN_IF_ERROR(c.SetRange(tid, header, kHeaderBytes));
        c.Fill(header, header_fill, kHeaderBytes);
        RVM_RETURN_IF_ERROR(c.SetRange(tid, content, kBlockBytes));
        c.Fill(content, content_fill, kBlockBytes);
        if (duplicate) {
          RVM_RETURN_IF_ERROR(c.SetRange(tid, header, kHeaderBytes));
          RVM_RETURN_IF_ERROR(c.SetRange(tid, content, kBlockBytes));
        }
        const uint64_t shared = 8 * (directory % 256);
        RVM_RETURN_IF_ERROR(c.SetRange(tid, shared, 8));
        c.Fill(shared, static_cast<uint8_t>(directory), 8);
        RVM_RETURN_IF_ERROR(c.End(tid, CommitMode::kNoFlush));
        if (done % kFlushEvery == 0) {
          RVM_RETURN_IF_ERROR(c.Flush());
        }
      }
    }
    return rvm::OkStatus();
  }

 private:
  uint64_t seed_;
};

// ~2 MB of flush commits into a 64 MB log over an 8 MB segment: 1400
// transactions of 1-4 ranges of 64-1024 bytes at random 8-byte-aligned
// offsets. Below the truncation threshold, so the whole fill is live log at
// the crash.
class CrashRestart final : public Workload {
 public:
  static constexpr uint64_t kTxns = 1400;

  explicit CrashRestart(uint64_t seed) : seed_(seed) {}

  uint64_t log_bytes() const override { return 64ull << 20; }
  uint64_t region_bytes() const override { return 8ull << 20; }

  Status Run(Client& c) override {
    rvm::Xoshiro256 rng(seed_);
    struct Range {
      uint64_t offset;
      uint64_t length;
      uint8_t fill;
    };
    for (uint64_t t = 0; t < kTxns; ++t) {
      // Inputs are drawn before Begin, so the generator is not timed.
      Range ranges[4];
      const uint64_t count = rng.Range(1, 4);
      for (uint64_t r = 0; r < count; ++r) {
        const uint64_t length = 64 * rng.Range(1, 16);
        const uint64_t offset = 8 * rng.Below((region_bytes() - length) / 8);
        ranges[r] = {offset, length, static_cast<uint8_t>(rng.Next())};
      }
      RVM_ASSIGN_OR_RETURN(TransactionId tid,
                           c.Begin(RestoreMode::kNoRestore));
      for (uint64_t r = 0; r < count; ++r) {
        RVM_RETURN_IF_ERROR(c.SetRange(tid, ranges[r].offset, ranges[r].length));
        c.Fill(ranges[r].offset, ranges[r].fill, ranges[r].length);
      }
      RVM_RETURN_IF_ERROR(c.End(tid, CommitMode::kFlush));
    }
    return rvm::OkStatus();
  }

 private:
  uint64_t seed_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "tpca_flush") {
    return std::make_unique<TpcaFlush>(seed, TpcaFlush::kBenchShape);
  }
  if (name == "coda_noflush") {
    return std::make_unique<CodaNoflush>(seed);
  }
  if (name == "crash_restart") {
    return std::make_unique<CrashRestart>(seed);
  }
  return nullptr;
}

rvm::RvmOptions InstanceOptions(rvm::Env* env, Mode mode) {
  rvm::RvmOptions options;
  options.env = env;
  options.log_path = kLogPath;
  options.cpu_model = PaperCpu();
  options.truncation_mode = rvm::TruncationMode::kInline;
  if (mode == Mode::kMonitoring) {
    options.span_sample_rate = 1;
    options.sample_capacity = 64;
    options.metrics_export_path = kMetricsPath;
  }
  return options;
}

// Returns an empty string when the images match, else where they differ.
std::string CompareImages(const uint8_t* recovered,
                          const std::vector<uint8_t>& shadow) {
  if (std::memcmp(recovered, shadow.data(), shadow.size()) == 0) {
    return "";
  }
  uint64_t first = 0;
  while (recovered[first] == shadow[first]) {
    ++first;
  }
  return "recovered segment differs from the shadow image at byte " +
         std::to_string(first);
}

// Times LogDevice::Open and ExtendTailForward on a copy of the crashed log,
// on a log disk of its own.
void ProbeExtendTail(const std::vector<uint8_t>& log_image, RoundStats* stats) {
  rvm::SimClock clock;
  rvm::SimDisk disk(&clock, "log", PaperDisk());
  rvm::SimEnv env(&clock);
  env.Mount("/log/", &disk);
  {
    auto file = env.Open(kLogPath, rvm::OpenMode::kTruncate);
    if (!file.ok() || !(*file)->WriteAt(0, log_image).ok()) {
      stats->problem = "could not copy the crashed log";
      return;
    }
  }
  auto device = rvm::LogDevice::Open(&env, kLogPath);
  if (!device.ok()) {
    stats->problem = "LogDevice::Open failed on the crashed log: " +
                     device.status().ToString();
    return;
  }
  const uint64_t read0 = disk.bytes_read();
  const double sim0 = clock.now_micros();
  const int64_t host0 = HostNowNs();
  StatusOr<uint64_t> found = (*device)->ExtendTailForward();
  stats->extend_host_ns = static_cast<double>(HostNowNs() - host0);
  stats->extend_sim_us = clock.now_micros() - sim0;
  stats->extend_read_bytes = disk.bytes_read() - read0;
  if (!found.ok()) {
    stats->problem = "ExtendTailForward failed on the crashed log: " +
                     found.status().ToString();
  }
}

struct RoundImages {
  std::vector<uint8_t> recovered;
  std::vector<uint8_t> shadow;
};

// One round: set up, run the workload, flush, cut the power, restart, and
// compare the recovered image with the shadow. `images`, if given, receives
// both images (the self-test corrupts them).
RoundStats RunRound(Workload& workload, Mode mode, Tracer* tracer,
                    RoundImages* images = nullptr) {
  RoundStats stats;
  tracer->set_enabled(mode == Mode::kTraced);
  const bool traced = mode == Mode::kTraced;
  Machine machine(tracer);
  const rvm::RvmOptions options = InstanceOptions(&machine.env, mode);
  // Failures of the client's calls are counted by the client; the others
  // (set-up, restart) here.
  auto fail = [&](const std::string& what, const Status& status,
                  bool counted = false) {
    stats.failed += counted ? 0 : 1;
    stats.problem = what + ": " + status.ToString();
    tracer->set_enabled(false);
    return stats;
  };

  const int64_t setup0 = HostNowNs();
  {
    ScopedSpan span(tracer, SpanName::kCreateLog);
    Status created = RvmInstance::CreateLog(&machine.env, kLogPath,
                                            workload.log_bytes());
    if (!created.ok()) {
      return fail("CreateLog", created);
    }
  }
  std::unique_ptr<RvmInstance> rvm;
  {
    ScopedSpan span(tracer, SpanName::kInitialize);
    auto initialized = RvmInstance::Initialize(options);
    if (!initialized.ok()) {
      return fail("Initialize", initialized.status());
    }
    rvm = std::move(*initialized);
  }
  rvm::RegionDescriptor region;
  region.segment_path = kSegmentPath;
  region.length = workload.region_bytes();
  {
    ScopedSpan span(tracer, SpanName::kMap);
    Status mapped = rvm->Map(region);
    if (!mapped.ok()) {
      return fail("Map", mapped);
    }
  }
  stats.setup_s = static_cast<double>(HostNowNs() - setup0) / 1e9;
  stats.region_bytes = workload.region_bytes();

  std::vector<uint8_t> shadow(workload.region_bytes(), 0);
  Client client(rvm.get(), static_cast<uint8_t*>(region.address), &shadow,
                tracer, &machine.clock, &stats, mode == Mode::kMonitoring);
  const IoSnapshot io0 = machine.env.counts();
  const double sim0 = machine.clock.now_micros();
  const double log_busy0 = machine.log_disk.busy_micros();
  const double data_busy0 = machine.data_disk.busy_micros();
  tracer->ResetOsTime();
  Status ran = workload.Run(client);
  if (!ran.ok()) {
    return fail("workload", ran, /*counted=*/true);
  }
  // Everything committed is made durable before the crash, so the restart
  // must show every committed write.
  Status flushed = client.Flush();
  if (!flushed.ok()) {
    return fail("Flush", flushed, /*counted=*/true);
  }
  stats.body_sim_us = machine.clock.now_micros() - sim0;
  stats.body_io = machine.env.counts() - io0;
  stats.log_busy_us = machine.log_disk.busy_micros() - log_busy0;
  stats.data_busy_us = machine.data_disk.busy_micros() - data_busy0;
  stats.body_os_ns = static_cast<double>(tracer->os_ns());

  if (traced) {
    // Telemetry read paths, timed from outside and untraced.
    tracer->set_enabled(false);
    for (int i = 0; i < 200; ++i) {
      const int64_t t0 = HostNowNs();
      rvm::RvmStatistics snapshot = rvm->statistics().Snapshot();
      const int64_t t1 = HostNowNs();
      stats.snapshot_ns.push_back(static_cast<double>(t1 - t0));
      if (snapshot.transactions_committed == 0) {
        stats.problem = "statistics snapshot shows no commits";
      }
    }
    for (int i = 0; i < 20; ++i) {
      const int64_t t0 = HostNowNs();
      std::string text = rvm->RenderMetrics();
      const int64_t t1 = HostNowNs();
      stats.render_ns.push_back(static_cast<double>(t1 - t0));
      if (text.empty()) {
        stats.problem = "empty metrics exposition";
      }
    }
    tracer->set_enabled(true);
  }

  // Power cut: no Terminate, and nothing the dying instance writes lands.
  if (!machine.env.CutPower()) {
    stats.problem = "power cut could not discard every unsynced write";
  }
  stats.discarded_bytes = machine.env.discarded_bytes();
  stats.file_bytes = machine.env.file_bytes();
  stats.image_bytes = machine.env.image_bytes();
  if (traced) {
    ProbeExtendTail(machine.env.DurableImage(kLogPath), &stats);
  }
  {
    const bool was = tracer->enabled();
    tracer->set_enabled(false);
    rvm.reset();
    tracer->set_enabled(was);
  }
  machine.env.RestorePower();

  // Restart: Initialize through the last Map.
  const IoSnapshot io1 = machine.env.counts();
  const double restart_sim0 = machine.clock.now_micros();
  const int64_t restart_host0 = HostNowNs();
  {
    const int64_t os0 = tracer->os_ns();
    ScopedSpan span(tracer, SpanName::kInitialize);
    auto initialized = RvmInstance::Initialize(options);
    const ScopedSpan::Times times = span.Close();
    stats.init_self_ns = static_cast<double>(times.self_ns);
    if (traced) {
      stats.init_closure.Add(times, tracer->os_ns() - os0,
                             HostNowNs() - restart_host0);
    }
    if (!initialized.ok()) {
      return fail("restart Initialize", initialized.status());
    }
    rvm = std::move(*initialized);
  }
  const double init_sim1 = machine.clock.now_micros();
  const int64_t init_host1 = HostNowNs();
  rvm::RegionDescriptor recovered;
  recovered.segment_path = kSegmentPath;
  recovered.length = workload.region_bytes();
  {
    ScopedSpan span(tracer, SpanName::kMap);
    Status mapped = rvm->Map(recovered);
    if (!mapped.ok()) {
      return fail("restart Map", mapped);
    }
  }
  const double restart_sim1 = machine.clock.now_micros();
  const int64_t restart_host1 = HostNowNs();
  tracer->set_enabled(false);
  stats.restart_io = machine.env.counts() - io1;
  stats.init_sim_us = init_sim1 - restart_sim0;
  stats.init_host_ns = static_cast<double>(init_host1 - restart_host0);
  stats.map_sim_us = restart_sim1 - init_sim1;
  stats.map_host_ns = static_cast<double>(restart_host1 - init_host1);
  stats.restart_sim_us = restart_sim1 - restart_sim0;

  const auto* image = static_cast<const uint8_t*>(recovered.address);
  std::string why = CompareImages(image, shadow);
  if (why.empty()) {
    workload.CheckInvariant(image, &why);
  }
  if (stats.problem.empty()) {
    stats.problem = why;
  }
  stats.verified = stats.problem.empty();
  if (images != nullptr) {
    images->recovered.assign(image, image + workload.region_bytes());
    images->shadow = std::move(shadow);
  }
  return stats;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Median ns per byte of Crc32 over 64 B, record-sized (640 B, about one
// TPC-A log record) and 4 KB inputs.
double Crc32NsPerByte(uint64_t seed) {
  rvm::Xoshiro256 rng(seed);
  std::vector<uint8_t> buffer(4096);
  for (uint8_t& b : buffer) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<double> samples;
  volatile uint32_t sink = 0;
  for (int batch = 0; batch < 31; ++batch) {
    const int64_t t0 = HostNowNs();
    uint64_t bytes = 0;
    for (int i = 0; i < 200; ++i) {
      for (size_t size : {size_t{64}, size_t{640}, size_t{4096}}) {
        sink = sink ^ rvm::Crc32(std::span<const uint8_t>(buffer.data(), size));
        bytes += size;
      }
    }
    samples.push_back(static_cast<double>(HostNowNs() - t0) /
                      static_cast<double>(bytes));
  }
  return Median(samples);
}

template <typename Fn>
std::vector<double> Collect(const std::vector<RoundStats>& rounds, Fn fn) {
  std::vector<double> out;
  for (const RoundStats& round : rounds) {
    fn(round, &out);
  }
  return out;
}

std::vector<double> Pool(const std::vector<RoundStats>& rounds,
                         std::vector<double> RoundStats::*field) {
  return Collect(rounds, [field](const RoundStats& r, std::vector<double>* out) {
    out->insert(out->end(), (r.*field).begin(), (r.*field).end());
  });
}

std::vector<double> Each(const std::vector<RoundStats>& rounds,
                         double RoundStats::*field) {
  return Collect(rounds, [field](const RoundStats& r, std::vector<double>* out) {
    out->push_back(r.*field);
  });
}

// Runs rounds in `mode` until `seconds` of host time have passed (at least
// one round), folding correctness and counts into `outcome`.
std::vector<RoundStats> RunRounds(const RunOptions& options, Mode mode,
                                  double seconds, Tracer* tracer,
                                  Outcome* outcome) {
  std::vector<RoundStats> rounds;
  const int64_t start = HostNowNs();
  do {
    std::unique_ptr<Workload> workload =
        MakeWorkload(options.workload, options.seed);
    RoundStats round = RunRound(*workload, mode, tracer);
    if (rounds.empty()) {
      Summarize(&round);
    } else {
      Compact(&round);
    }
    outcome->attempted += round.txns + round.failed + 1;  // + the restart
    outcome->failed += round.failed;
    if (!round.verified) {
      outcome->correct = false;
      outcome->notes.push_back("round " + std::to_string(rounds.size()) +
                               ": " + round.problem);
    }
    rounds.push_back(std::move(round));
  } while (static_cast<double>(HostNowNs() - start) / 1e9 < seconds);
  return rounds;
}

void AddEndToEnd(const std::vector<RoundStats>& rounds, Outcome* out) {
  const RoundStats& first = rounds.front();
  const double txns = static_cast<double>(std::max<uint64_t>(first.txns, 1));
  const IoSnapshot& io = first.body_io;
  const double disk_bytes =
      static_cast<double>(io[FileClass::kLog].write_bytes +
                          io[FileClass::kSegment].write_bytes +
                          io[FileClass::kSidecar].write_bytes);
  out->metrics = {
      {"commit_mean_sim_ms", Mean(first.durable_sim_us) / 1e3, "ms"},
      {"commit_p99_sim_ms", Percentile(first.durable_sim_us, 0.99) / 1e3, "ms"},
      {"txn_per_s_sim", txns / (first.body_sim_us / 1e6), "1/s"},
      {"txn_host_us", Median(Each(rounds, &RoundStats::txn_host_p50_ns)) / 1e3,
       "us"},
      {"disk_bytes_per_user_byte",
       disk_bytes / static_cast<double>(std::max<uint64_t>(first.declared_bytes, 1)),
       "B/B"},
      {"restart_sim_ms", Median(Each(rounds, &RoundStats::restart_sim_us)) / 1e3,
       "ms"},
      {"setup_s", Median(Each(rounds, &RoundStats::setup_s)), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  out->notes.push_back(
      std::to_string(rounds.size()) + " rounds of " +
      std::to_string(first.txns) +
      " transactions; host figures are the median over rounds of each "
      "round's median batch of " +
      std::to_string(kBatch) + " transactions, and of its set-up; " +
      std::to_string(first.discarded_bytes) +
      " unsynced bytes discarded at each power cut");
  char memory[160];
  std::snprintf(memory, sizeof(memory),
                "memory at the crash: %.1f MB of simulated files, %.1f MB of "
                "durable images, %.1f MB mapped region",
                static_cast<double>(first.file_bytes) / 1048576,
                static_cast<double>(first.image_bytes) / 1048576,
                static_cast<double>(first.region_bytes) / 1048576);
  out->notes.push_back(memory);
}

void AddPerLayer(const std::vector<RoundStats>& untraced,
                 const std::vector<RoundStats>& traced,
                 const std::vector<RoundStats>& monitored, uint64_t seed,
                 Outcome* out) {
  const RoundStats& t = traced.front();
  const double txns = static_cast<double>(std::max<uint64_t>(t.txns, 1));
  const IoSnapshot& io = t.body_io;
  const double commit_sim_p50 = Percentile(t.commit_sim_us, 0.5);
  const double stalls = static_cast<double>(
      std::count_if(t.commit_sim_us.begin(), t.commit_sim_us.end(),
                    [&](double us) { return us > 2 * commit_sim_p50; }));
  const double base_txn = Median(Each(untraced, &RoundStats::txn_host_p50_ns));
  const double traced_txn = Median(Each(traced, &RoundStats::txn_host_p50_ns));
  const double monitored_txn =
      Median(Each(monitored, &RoundStats::txn_host_p50_ns));
  auto per_txn = [&](uint64_t v) { return static_cast<double>(v) / txns; };
  out->metrics = {
      {"rvm.begin.host_ns_p50", Median(Pool(traced, &RoundStats::begin_ns)), "ns"},
      {"rvm.set_range.host_ns_p50", Median(Pool(traced, &RoundStats::set_range_ns)),
       "ns"},
      {"rvm.set_range.calls_per_txn", per_txn(t.set_range_calls), "count"},
      {"rvm.commit.host_us_p50",
       Median(Each(traced, &RoundStats::commit_host_p50_ns)) / 1e3, "us"},
      {"rvm.commit.self_host_us_p50",
       Median(Pool(traced, &RoundStats::commit_self_ns)) / 1e3, "us"},
      {"rvm.commit.sim_ms_p50", commit_sim_p50 / 1e3, "ms"},
      {"rvm.flush.sim_ms_p50", Percentile(t.flush_sim_us, 0.5) / 1e3, "ms"},
      {"rvm.commit.stalls", stalls, "count"},
      {"rvm.initialize.host_ms", Median(Each(traced, &RoundStats::init_host_ns)) / 1e6,
       "ms"},
      {"rvm.initialize.self_host_ms",
       Median(Each(traced, &RoundStats::init_self_ns)) / 1e6, "ms"},
      {"rvm.initialize.sim_ms", t.init_sim_us / 1e3, "ms"},
      {"rvm.map.host_ms", Median(Each(traced, &RoundStats::map_host_ns)) / 1e6, "ms"},
      {"rvm.map.sim_ms", t.map_sim_us / 1e3, "ms"},
      {"log_device.extend_tail.host_ms",
       Median(Each(traced, &RoundStats::extend_host_ns)) / 1e6, "ms"},
      {"log_device.extend_tail.sim_ms", t.extend_sim_us / 1e3, "ms"},
      {"log_device.extend_tail.read_bytes",
       static_cast<double>(t.extend_read_bytes), "B"},
      {"os.log.syncs_per_txn", per_txn(io[FileClass::kLog].syncs), "count"},
      {"os.log.write_bytes_per_txn", per_txn(io[FileClass::kLog].write_bytes), "B"},
      {"os.segment.write_bytes_per_txn",
       per_txn(io[FileClass::kSegment].write_bytes), "B"},
      {"os.sidecar.write_bytes_per_txn",
       per_txn(io[FileClass::kSidecar].write_bytes), "B"},
      {"os.log.read_bytes_per_restart",
       static_cast<double>(t.restart_io[FileClass::kLog].read_bytes), "B"},
      {"os.host_us_per_txn", Median(Each(traced, &RoundStats::body_os_ns)) / txns / 1e3,
       "us"},
      {"sim.log_disk.busy_ms_per_txn", t.log_busy_us / txns / 1e3, "ms"},
      {"sim.data_disk.busy_ms_per_txn", t.data_busy_us / txns / 1e3, "ms"},
      {"crc32.ns_per_byte", Crc32NsPerByte(seed), "ns"},
      {"telemetry.snapshot.host_us", Median(Pool(traced, &RoundStats::snapshot_ns)) / 1e3,
       "us"},
      {"telemetry.render_metrics.host_us",
       Median(Pool(traced, &RoundStats::render_ns)) / 1e3, "us"},
      {"telemetry.monitoring_on.commit_overhead_host_us",
       (monitored_txn - base_txn) / 1e3, "us"},
      {"bench.tracing_overhead_pct", (traced_txn - base_txn) / base_txn * 100, "%"},
  };

  // Closure: self time plus os time must add up, within 5%, to the host
  // time measured around the call, less the measured cost of the call's
  // own span.
  Closure commit, init;
  for (const RoundStats& r : traced) {
    commit.Add(r.commit_closure);
    init.Add(r.init_closure);
  }
  const double span_cost_ns = SpanCostNs();
  auto closure = [&](const char* call, const Closure& c) {
    const double call_ns = c.outer - static_cast<double>(c.calls) * span_cost_ns;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "%s: self + os time = %.4f of the time measured around the "
                  "call less %.0f ns of span cost per call (%.4f before "
                  "that correction)",
                  call, call_ns > 0 ? c.parts / call_ns : 0.0, span_cost_ns,
                  c.outer > 0 ? c.parts / c.outer : 0.0);
    out->notes.push_back(line);
    if (!(call_ns > 0) || std::abs(c.parts - call_ns) / call_ns > 0.05) {
      out->correct = false;
      out->notes.push_back(std::string(call) + ": self + os time is off the "
                           "measured call time by more than 5%");
    }
  };
  closure("EndTransaction", commit);
  closure("Initialize", init);
  out->notes.push_back(std::to_string(untraced.size()) + " untraced, " +
                       std::to_string(traced.size()) + " traced and " +
                       std::to_string(monitored.size()) +
                       " monitoring-on rounds");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpca_flush", "coda_noflush",
                                                 "crash_restart"};
  return names;
}

Outcome RunWorkload(const RunOptions& options) {
  Outcome outcome;
  Tracer tracer(kSpanKeepLimit);
  if (!options.trace) {
    std::vector<RoundStats> rounds =
        RunRounds(options, Mode::kUntraced, options.seconds, &tracer, &outcome);
    AddEndToEnd(rounds, &outcome);
    return outcome;
  }
  // A traced run spends a third of its time on each of: untraced rounds
  // (the base for the tracing overhead), traced rounds, and untraced rounds
  // with span sampling and metrics export on.
  const double third = options.seconds / 3;
  std::vector<RoundStats> untraced =
      RunRounds(options, Mode::kUntraced, third, &tracer, &outcome);
  std::vector<RoundStats> traced =
      RunRounds(options, Mode::kTraced, third, &tracer, &outcome);
  std::vector<RoundStats> monitored =
      RunRounds(options, Mode::kMonitoring, third, &tracer, &outcome);
  AddPerLayer(untraced, traced, monitored, options.seed, &outcome);
  if (!options.trace_out.empty()) {
    if (tracer.WriteJsonl(options.trace_out)) {
      outcome.notes.push_back("spans: " + std::to_string(tracer.kept()) +
                              " written to " + options.trace_out + ", " +
                              std::to_string(tracer.dropped()) +
                              " past the in-memory limit");
    } else {
      outcome.correct = false;
      outcome.notes.push_back("could not write " + options.trace_out);
    }
  }
  return outcome;
}

Outcome RunSelfTest() {
  Outcome outcome;
  Tracer tracer(0);
  auto expect = [&](bool ok, const std::string& what) {
    ++outcome.attempted;
    outcome.notes.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
    if (!ok) {
      outcome.correct = false;
    }
  };

  // A small TPC-A round: its checks pass on the true images and fail when
  // one byte of the shadow or one generated delta is wrong.
  TpcaFlush tpca(7, TpcaFlush::Shape{1024, 200, 256 << 10});
  RoundImages images;
  RoundStats round = RunRound(tpca, Mode::kUntraced, &tracer, &images);
  expect(round.verified && round.failed == 0,
         "small TPC-A round recovers equal to its shadow " + round.problem);
  std::string why;
  std::vector<uint8_t> bad_shadow = images.shadow;
  rvm::Xoshiro256 rng(11);
  bad_shadow[rng.Below(bad_shadow.size())] ^= 0x01;
  expect(!CompareImages(images.recovered.data(), bad_shadow).empty(),
         "shadow comparison fails with one shadow byte flipped");
  expect(!tpca.CheckBalances(images.recovered.data(), tpca.delta_sum() + 1, &why),
         "balance invariant fails with one delta off by one");

  // Power cut at the file level: a write synced before the cut survives; an
  // unsynced one, and any write or sync after the cut, does not.
  {
    rvm::SimClock clock;
    rvm::SimEnv sim(&clock);
    ProbeEnv env(&sim, kLogPath, kSegmentPrefix, &tracer);
    auto file = env.Open("/data/probe", rvm::OpenMode::kCreateIfMissing);
    const std::vector<uint8_t> a(16, 'A'), b(16, 'B'), c(16, 'C');
    bool ok = file.ok() && (*file)->WriteAt(0, a).ok() && (*file)->Sync().ok() &&
              (*file)->WriteAt(0, b).ok() && (*file)->WriteAt(16, b).ok();
    ok = ok && env.CutPower();
    ok = ok && !(*file)->WriteAt(0, c).ok() && !(*file)->Sync().ok();
    env.RestorePower();
    std::vector<uint8_t> read(64, 0);
    StatusOr<size_t> n = ok ? (*file)->ReadAt(0, read) : StatusOr<size_t>(0);
    expect(ok && n.ok() && *n == 16 &&
               std::equal(a.begin(), a.end(), read.begin()),
           "after a power cut a file holds only its synced bytes");
  }

  // Power cut under RVM: a transaction committed after the cut is absent
  // after the restart; the one committed before it is present.
  {
    Machine machine(&tracer);
    const rvm::RvmOptions options = InstanceOptions(&machine.env, Mode::kUntraced);
    bool ok = RvmInstance::CreateLog(&machine.env, kLogPath, 256 << 10).ok();
    auto rvm = RvmInstance::Initialize(options);
    ok = ok && rvm.ok();
    rvm::RegionDescriptor region{.segment_path = kSegmentPath, .length = 4096};
    ok = ok && (*rvm)->Map(region).ok();
    auto* base = static_cast<uint8_t*>(region.address);
    auto commit = [&](uint8_t value) {
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
      if (!tid.ok() || !(*rvm)->SetRange(*tid, base, 64).ok()) {
        return false;
      }
      std::memset(base, value, 64);
      return (*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok();
    };
    ok = ok && commit('X');
    ok = ok && machine.env.CutPower();
    const bool refused = ok && !commit('Y');
    if (rvm.ok()) {
      rvm->reset();
    }
    machine.env.RestorePower();
    auto restarted = RvmInstance::Initialize(options);
    rvm::RegionDescriptor again{.segment_path = kSegmentPath, .length = 4096};
    const bool mapped = restarted.ok() && (*restarted)->Map(again).ok();
    const auto* image = static_cast<const uint8_t*>(again.address);
    expect(ok && refused && mapped && image[0] == 'X' && image[63] == 'X',
           "a commit issued after the power cut is absent after the restart");
  }
  return outcome;
}

}  // namespace perfbench
