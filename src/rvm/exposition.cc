#include "src/rvm/exposition.h"

#include <string>
#include <vector>

namespace rvm {
namespace {

constexpr char kCounterHelp[] = "Monotonic RVM operation counter.";
constexpr char kGaugeHelp[] = "Point-in-time RVM state gauge.";
constexpr char kHistogramHelp[] =
    "RVM latency distribution in microseconds (power-of-two buckets).";

}  // namespace

MetricsRegistry BuildMetricsRegistry(const RvmStatistics& stats,
                                     const RvmGauges& gauges) {
  MetricsRegistry registry;
  stats.ForEachCounter([&](const char* name, uint64_t value) {
    registry.AddCounter(std::string("rvm_") + name, kCounterHelp, value);
  });
  stats.ForEachHistogram([&](const char* name,
                             const LatencyHistogram& histogram) {
    registry.AddHistogram(std::string("rvm_") + name, kHistogramHelp,
                          histogram.TakeSnapshot());
  });
  gauges.ForEachGauge([&](const char* name, double value) {
    registry.AddGauge(std::string("rvm_") + name, kGaugeHelp, value);
  });
  // Per-shard rows as labeled series. Emitted only when the snapshot carries
  // them (multi-shard instances), mirroring the time-series JSON.
  for (const ShardGauges& shard : gauges.shards) {
    const std::vector<MetricLabel> labels = {
        {"shard", std::to_string(shard.index)}};
    shard.ForEachField([&](const char* name, uint64_t value) {
      registry.AddGauge(std::string("rvm_shard_") + name, kGaugeHelp,
                        static_cast<double>(value), labels);
    });
  }
  for (const RegionGauges& region : gauges.regions) {
    const std::vector<MetricLabel> labels = {{"segment", region.segment_path}};
    region.ForEachField([&](const char* name, uint64_t value) {
      registry.AddGauge(std::string("rvm_region_") + name, kGaugeHelp,
                        static_cast<double>(value), labels);
    });
  }
  return registry;
}

std::string RenderMetricsText(const RvmStatistics& stats,
                              const RvmGauges& gauges) {
  return BuildMetricsRegistry(stats, gauges).RenderOpenMetrics();
}

std::map<std::string, double> SloSignals(const RvmStatistics& stats,
                                        const RvmGauges& gauges) {
  std::map<std::string, double> signals;
  stats.ForEachCounter([&](const char* name, uint64_t value) {
    signals[name] = static_cast<double>(value);
  });
  gauges.ForEachGauge([&](const char* name, double value) {
    signals[name] = value;
  });
  return signals;
}

}  // namespace rvm
