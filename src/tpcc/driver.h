#ifndef BTRIM_TPCC_DRIVER_H_
#define BTRIM_TPCC_DRIVER_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/counters.h"
#include "common/histogram.h"
#include "common/status.h"
#include "tpcc/txns.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace tpcc {

/// Transaction mix percentages (spec 5.2.3: the standard 45/43/4/4/4 mix).
struct Mix {
  int new_order = 45;
  int payment = 43;
  int order_status = 4;
  int delivery = 4;
  int stock_level = 4;
};

/// Driver configuration.
struct DriverOptions {
  int workers = 4;            ///< concurrent terminals
  int64_t total_txns = 20000; ///< committed transactions to run
  Mix mix;
  uint64_t seed = 7;

  /// Invoke `window_observer` each time this many transactions commit
  /// (the experiments' sampling axis). 0 disables.
  int64_t window_txns = 2000;
  std::function<void(int64_t committed)> window_observer;
};

/// Aggregate run statistics. The counts are the deltas of the driver's
/// registered `tpcc.*` counters across Run(); the latency percentiles are
/// exact, computed from every committed transaction's latency.
struct DriverStats {
  int64_t committed = 0;
  int64_t system_aborts = 0;  ///< lock-timeout/NoSpace aborts
  int64_t user_aborts = 0;    ///< the 1% NewOrder rollbacks
  int64_t by_type[5] = {0, 0, 0, 0, 0};  // committed, in Mix order
  double wall_seconds = 0.0;

  /// End-to-end latency of committed transactions, in microseconds (the
  /// commit-latency question the paper leaves to future work, Sec. VIII).
  int64_t latency_p50_us = 0;
  int64_t latency_p95_us = 0;
  int64_t latency_p99_us = 0;
  double latency_mean_us = 0.0;

  double Tpm() const {
    return wall_seconds > 0
               ? static_cast<double>(committed) * 60.0 / wall_seconds
               : 0.0;
  }
};

/// Multi-threaded TPC-C terminal driver: each worker picks a random home
/// warehouse per transaction and draws the type from the mix. Aborted
/// transactions are counted and the worker moves on (no retry loops — the
/// experiments count committed throughput).
class TpccDriver {
 public:
  TpccDriver(TpccContext* ctx, DriverOptions options)
      : ctx_(ctx), options_(std::move(options)) {}

  /// Runs to `total_txns` committed transactions; blocking.
  DriverStats Run();

  /// Registers the driver's live workload telemetry under `tpcc.*`
  /// ({subsystem: "tpcc"}): committed / abort totals, the per-type mix
  /// counters, and the end-to-end commit-latency histogram. Call
  /// UnregisterMetrics before destroying the driver — the final values
  /// survive as retained samples in the registry.
  [[nodiscard]] Status RegisterMetrics(obs::MetricsRegistry* registry) const;
  void UnregisterMetrics(obs::MetricsRegistry* registry) const;

 private:
  void Worker(int worker_id, std::vector<int64_t>* latencies_us);

  TpccContext* const ctx_;
  const DriverOptions options_;
  std::atomic<int64_t> committed_{0};

  // Live telemetry registered into the metrics registry; Run() also reads
  // its DriverStats counts from these.
  mutable ShardedCounter system_aborts_;
  mutable ShardedCounter user_aborts_;
  mutable ShardedCounter by_type_[5];  // Mix order
  mutable LatencyHistogram latency_;
};

}  // namespace tpcc
}  // namespace btrim

#endif  // BTRIM_TPCC_DRIVER_H_
