// Test helper: reads the counters of a bare subsystem (Log, BufferCache,
// BTree, LockManager, ...) the way every engine counter is read — through a
// MetricsRegistry — instead of a per-subsystem stats struct.

#ifndef BTRIM_TESTS_METRIC_READER_H_
#define BTRIM_TESTS_METRIC_READER_H_

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"

namespace btrim {

/// Registers one subsystem on a private registry with empty labels. Reads
/// are live: every Value() call evaluates the subsystem's counters anew.
/// The subsystem must outlive the reader.
class MetricReader {
 public:
  template <typename Subsystem>
  explicit MetricReader(const Subsystem& subsystem) {
    const Status s = subsystem.RegisterMetrics(&registry_, {});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  int64_t Value(const std::string& name) const {
    return registry_.Value(name);
  }

  /// Histogram snapshot; empty when `name` is not registered.
  LatencyHistogram::Snapshot Histogram(const std::string& name) const {
    obs::MetricSample sample;
    if (!registry_.Lookup(name, {}, &sample)) return {};
    return sample.hist;
  }

 private:
  obs::MetricsRegistry registry_;
};

}  // namespace btrim

#endif  // BTRIM_TESTS_METRIC_READER_H_
