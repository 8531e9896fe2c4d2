#ifndef BTRIM_OBS_METRIC_H_
#define BTRIM_OBS_METRIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace btrim {
namespace obs {

/// Metric kinds exported by the registry. Counters are monotone event
/// totals (ShardedCounter-backed on hot paths), gauges are current-state
/// values that can move both ways, histograms are LatencyHistogram
/// snapshots with power-of-two microsecond buckets.
enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// The stable label set of the export schema (DESIGN.md Sec. 10):
/// `subsystem` names the producing component instance ("wal/syslogs",
/// "buffer_cache", "ilm"), `table`/`partition` scope per-partition metrics
/// and stay empty for process-wide ones. `tenant` scopes per-client-tenant
/// metrics from the net server (DESIGN.md Sec. 16); the JSON exporter
/// omits it when empty so pre-server exports are byte-identical.
/// The default member initializers let callers name only the fields they
/// set, e.g. `{.subsystem = "syslogs"}`, without missing-initializer noise.
struct MetricLabels {
  std::string subsystem = {};
  std::string table = {};
  std::string partition = {};
  std::string tenant = {};

  bool operator==(const MetricLabels& other) const {
    return subsystem == other.subsystem && table == other.table &&
           partition == other.partition && tenant == other.tenant;
  }
};

/// One evaluated metric: the unit of Snapshot() and of the JSON exporter.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  MetricLabels labels;

  /// Counter / gauge value. For histograms this is the total sample count.
  int64_t value = 0;

  /// Histogram payload (histograms only).
  LatencyHistogram::Snapshot hist;

  /// True when the source was unregistered and this is its final value
  /// (snapshot-at-unregistration — retired partitions keep reporting).
  bool retained = false;
};

/// --- minimal JSON emission (no external deps) ------------------------------

/// Appends `s` JSON-escaped, with surrounding quotes.
void AppendJsonString(std::string* out, const std::string& s);

/// Appends one metric object:
///   {"name":..., "type":..., "labels":{...}, "value":N}
/// histograms instead carry "total", "sum_us" and "buckets":[[upper_us,n],...]
/// (zero buckets omitted).
void AppendMetricJson(std::string* out, const MetricSample& m);

/// Appends a JSON array of metric objects.
void AppendMetricsJson(std::string* out, const std::vector<MetricSample>& ms);

}  // namespace obs
}  // namespace btrim

#endif  // BTRIM_OBS_METRIC_H_
