// RvmGauges: a structured point-in-time view of the instance's log-space and
// pipeline state — the quantities §5.1–§5.3 and Fig. 6–7 reason about but
// RvmStatistics' monotonic counters cannot express. Where counters answer
// "how much work has happened", gauges answer "what does the instance look
// like right now": log head/tail geometry, utilization, how many bytes a
// truncation could reclaim, queue depths, and per-region page-vector state.
//
// Every metric has one name and one definition (DESIGN.md §10): a gauge
// never copies an RvmStatistics counter, so ForEachCounter, ForEachGauge and
// ForEachHistogram name disjoint sets, and each per-shard / per-region field
// is listed once, in its row's ForEachField. Every view — the time-series
// sample, the OpenMetrics exposition, the SLO signal map, `rvmutl stats` —
// is rendered from those visitors.
//
// Produced by RvmInstance::Introspect() under the staged locks, consumed by
// the StatsSampler time series, the exposition, `rvmutl`, and tests. The
// flat numeric JSON rendering (GaugesJson) is the "gauges" member of every
// rvm-timeseries-v3 sample line.
#ifndef RVM_RVM_GAUGES_H_
#define RVM_RVM_GAUGES_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/json.h"

namespace rvm {

// Page-vector state of one mapped region (Fig. 7). "reserved" pages are
// those an incremental truncation must skip: they carry uncommitted or
// committed-but-unflushed changes (PageEntry::write_blocked).
struct RegionGauges {
  std::string segment_path;
  uint64_t num_pages = 0;
  uint64_t dirty_pages = 0;        // committed changes not yet in the segment
  uint64_t queued_pages = 0;       // present in the page queue
  uint64_t uncommitted_pages = 0;  // pages with uncommitted_refs > 0
  uint64_t reserved_pages = 0;     // write-blocked (uncommitted or unflushed)
  uint64_t active_transactions = 0;

  // Visits every numeric field as (name, value): the keys of a time-series
  // region row (after "segment") and the rvm_region_<name>{segment=...}
  // series.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    fn("pages", num_pages);
    fn("dirty_pages", dirty_pages);
    fn("queued_pages", queued_pages);
    fn("uncommitted_pages", uncommitted_pages);
    fn("reserved_pages", reserved_pages);
    fn("active_transactions", active_transactions);
  }
};

// One log shard's slice of the snapshot (DESIGN.md §12). On a multi-shard
// instance the top-level log gauges are aggregates (capacities and depths
// summed, geometry from shard 0); the per-shard rows carry the detail.
struct ShardGauges {
  uint64_t index = 0;
  uint64_t log_capacity = 0;
  uint64_t log_head = 0;
  uint64_t log_tail = 0;
  uint64_t log_wrapped = 0;
  uint64_t log_bytes_in_use = 0;
  uint64_t appended_lsn = 0;
  uint64_t durable_lsn = 0;
  uint64_t page_queue_depth = 0;
  uint64_t spool_entries = 0;
  uint64_t spool_bytes = 0;
  uint64_t group_waiters = 0;
  uint64_t group_leader_active = 0;
  uint64_t records_appended = 0;
  uint64_t forces = 0;
  uint64_t prepares = 0;  // cross-shard 2PC prepare records
  uint64_t truncations = 0;
  uint64_t poisoned = 0;
  // Transient-I/O retry attempts on this shard's device (DESIGN.md §13).
  uint64_t retries = 0;
  // Fault-domain state: 0 = ok, 1 = retrying (a transient-retry loop is in
  // flight right now), 2 = quarantined, 3 = repairing. `rvmutl health`
  // renders these and derives its exit code from the worst shard.
  uint64_t health = 0;

  // Visits every numeric field but the index as (name, value): the keys of
  // a time-series shard row (after "shard"), the rvm_shard_<name>{shard=K}
  // series and the `rvmutl stats` shard rows.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    fn("log_capacity", log_capacity);
    fn("log_head", log_head);
    fn("log_tail", log_tail);
    fn("log_wrapped", log_wrapped);
    fn("log_bytes_in_use", log_bytes_in_use);
    fn("appended_lsn", appended_lsn);
    fn("durable_lsn", durable_lsn);
    fn("page_queue_depth", page_queue_depth);
    fn("spool_entries", spool_entries);
    fn("spool_bytes", spool_bytes);
    fn("group_waiters", group_waiters);
    fn("group_leader_active", group_leader_active);
    fn("records_appended", records_appended);
    fn("forces", forces);
    fn("prepares", prepares);
    fn("truncations", truncations);
    fn("poisoned", poisoned);
    fn("retries", retries);
    fn("health", health);
  }
};

struct RvmGauges {
  uint64_t timestamp_us = 0;

  // Log geometry (absolute file offsets; the record area starts after the
  // two status blocks). wrapped is 1 when the live range crosses the end of
  // the area, i.e. tail < head in file order. With log_shards > 1 capacity,
  // bytes-in-use, LSNs and depths are sums across shards and the geometry
  // fields describe shard 0; see `shards` for the full picture.
  uint64_t log_capacity = 0;
  uint64_t log_head = 0;
  uint64_t log_tail = 0;
  uint64_t log_wrapped = 0;
  uint64_t log_bytes_in_use = 0;
  double log_utilization = 0;  // bytes in use / capacity, 0..1
  // Live bytes between the head and the first record whose page is
  // write-blocked — what an incremental truncation could reclaim right now
  // without falling back to an epoch (§5.1.2). Equals bytes in use when
  // nothing blocks.
  uint64_t log_reclaimable_bytes = 0;
  uint64_t appended_lsn = 0;
  uint64_t durable_lsn = 0;

  // Pipeline depths.
  uint64_t page_queue_depth = 0;
  uint64_t spool_entries = 0;
  uint64_t spool_bytes = 0;
  uint64_t open_transactions = 0;
  uint64_t group_waiters = 0;
  uint64_t group_leader_active = 0;
  // truncations_started - truncations_completed at the snapshot instant.
  uint64_t truncations_in_flight = 0;
  uint64_t log_shards = 1;

  // Span tracing (DESIGN.md §15): spans recorded across every shard ring,
  // and spans lost to ring wrap-around. Both zero when span tracing is
  // disabled.
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;

  // Shards currently in quarantine (ShardHealth::kQuarantined), so health
  // rules need not walk the per-shard rows. 0 on single-shard instances.
  uint64_t quarantined_shards = 0;

  // Derived commit-latency percentiles, interpolated from the cumulative
  // commit_latency_us histogram at snapshot time (DESIGN.md §16). Carried as
  // gauges so the time series, the OpenMetrics exposition, and the SLO
  // signal map all see the same number under the same name — which is what
  // lets `rvmutl slo --replay` re-evaluate commit-p99 rules offline. They
  // are derived, not copies: no counter or histogram carries them.
  double commit_p50_us = 0;
  double commit_p90_us = 0;
  double commit_p99_us = 0;

  std::vector<RegionGauges> regions;
  // Per-shard rows; empty on a single-shard instance (whose snapshot is
  // fully described by the top-level gauges, keeping its JSON unchanged).
  std::vector<ShardGauges> shards;

  // Totals across regions, so consumers that only want one number per
  // dimension need not walk the region list.
  uint64_t total_dirty_pages() const {
    uint64_t n = 0;
    for (const RegionGauges& r : regions) {
      n += r.dirty_pages;
    }
    return n;
  }
  uint64_t total_reserved_pages() const {
    uint64_t n = 0;
    for (const RegionGauges& r : regions) {
      n += r.reserved_pages;
    }
    return n;
  }

  // Visits every scalar gauge as (name, value): the keys of the flat
  // "gauges" object in a time-series sample and the rvm_<name> gauge
  // families. Per-region and per-shard detail is emitted separately (see
  // ForEachField).
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    fn("log_capacity", static_cast<double>(log_capacity));
    fn("log_head", static_cast<double>(log_head));
    fn("log_tail", static_cast<double>(log_tail));
    fn("log_wrapped", static_cast<double>(log_wrapped));
    fn("log_bytes_in_use", static_cast<double>(log_bytes_in_use));
    fn("log_utilization", log_utilization);
    fn("log_reclaimable_bytes", static_cast<double>(log_reclaimable_bytes));
    fn("appended_lsn", static_cast<double>(appended_lsn));
    fn("durable_lsn", static_cast<double>(durable_lsn));
    fn("page_queue_depth", static_cast<double>(page_queue_depth));
    fn("spool_entries", static_cast<double>(spool_entries));
    fn("spool_bytes", static_cast<double>(spool_bytes));
    fn("open_transactions", static_cast<double>(open_transactions));
    fn("group_waiters", static_cast<double>(group_waiters));
    fn("group_leader_active", static_cast<double>(group_leader_active));
    fn("truncations_in_flight", static_cast<double>(truncations_in_flight));
    fn("dirty_pages", static_cast<double>(total_dirty_pages()));
    fn("reserved_pages", static_cast<double>(total_reserved_pages()));
    fn("log_shards", static_cast<double>(log_shards));
    fn("spans_recorded", static_cast<double>(spans_recorded));
    fn("spans_dropped", static_cast<double>(spans_dropped));
    fn("quarantined_shards", static_cast<double>(quarantined_shards));
    fn("commit_p50_us", commit_p50_us);
    fn("commit_p90_us", commit_p90_us);
    fn("commit_p99_us", commit_p99_us);
  }
};

namespace gauges_internal {

// Appends one time-series row: the label member, then every field of the
// row's ForEachField.
template <typename Row>
void AppendRowJson(std::string& out, const std::string& label,
                   const Row& row) {
  out += "{" + label;
  row.ForEachField([&](const char* name, uint64_t value) {
    out += ",\"" + std::string(name) + "\":" + std::to_string(value);
  });
  out += '}';
}

}  // namespace gauges_internal

// The gauges as one flat JSON object of numbers plus "regions" and (on a
// multi-shard instance) "shards" row arrays — the "gauges" member of an
// rvm-timeseries-v3 sample line.
inline std::string GaugesJson(const RvmGauges& gauges) {
  std::string out = "{";
  bool first = true;
  gauges.ForEachGauge([&](const char* name, double value) {
    char buf[64];
    // Integral gauges render without a fraction so documents diff cleanly.
    if (value == static_cast<double>(static_cast<uint64_t>(value))) {
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%.6f", value);
    }
    out += (first ? "\"" : ",\"") + std::string(name) + "\":" + buf;
    first = false;
  });
  out += ",\"regions\":[";
  for (size_t i = 0; i < gauges.regions.size(); ++i) {
    const RegionGauges& region = gauges.regions[i];
    out += i > 0 ? "," : "";
    gauges_internal::AppendRowJson(
        out, "\"segment\":\"" + JsonEscape(region.segment_path) + "\"",
        region);
  }
  out += ']';
  if (!gauges.shards.empty()) {
    out += ",\"shards\":[";
    for (size_t i = 0; i < gauges.shards.size(); ++i) {
      const ShardGauges& shard = gauges.shards[i];
      out += i > 0 ? "," : "";
      gauges_internal::AppendRowJson(
          out, "\"shard\":" + std::to_string(shard.index), shard);
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace rvm

#endif  // RVM_RVM_GAUGES_H_
