#include "tpcc/driver.h"

#include <algorithm>

#include "obs/metrics_registry.h"

namespace btrim {
namespace tpcc {

Status TpccDriver::RegisterMetrics(obs::MetricsRegistry* registry) const {
  const obs::MetricLabels l{"tpcc", "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounterFn(
      "tpcc.committed", l,
      [this] { return committed_.load(std::memory_order_relaxed); }));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("tpcc.system_aborts", l, &system_aborts_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("tpcc.user_aborts", l, &user_aborts_));
  static const char* kTypeNames[5] = {"tpcc.new_order", "tpcc.payment",
                                      "tpcc.order_status", "tpcc.delivery",
                                      "tpcc.stock_level"};
  for (int i = 0; i < 5; ++i) {
    BTRIM_RETURN_IF_ERROR(
        registry->RegisterCounter(kTypeNames[i], l, &by_type_[i]));
  }
  return registry->RegisterHistogram("tpcc.latency_us", l, &latency_);
}

void TpccDriver::UnregisterMetrics(obs::MetricsRegistry* registry) const {
  obs::MetricLabels match;
  match.subsystem = "tpcc";
  registry->UnregisterMatching(match);
}

void TpccDriver::Worker(int worker_id, std::vector<int64_t>* latencies_us) {
  TpccRandom rnd(options_.seed * 1000003 + static_cast<uint64_t>(worker_id));
  const Mix& mix = options_.mix;

  while (committed_.load(std::memory_order_relaxed) < options_.total_txns) {
    const int w_id = static_cast<int>(rnd.Uniform(1, ctx_->scale.warehouses));
    const int dice = static_cast<int>(rnd.Uniform(1, 100));

    WallTimer txn_timer;
    TxnResult result;
    int type;
    if (dice <= mix.new_order) {
      type = 0;
      result = RunNewOrder(ctx_, &rnd, w_id);
    } else if (dice <= mix.new_order + mix.payment) {
      type = 1;
      result = RunPayment(ctx_, &rnd, w_id);
    } else if (dice <= mix.new_order + mix.payment + mix.order_status) {
      type = 2;
      result = RunOrderStatus(ctx_, &rnd, w_id);
    } else if (dice <=
               mix.new_order + mix.payment + mix.order_status + mix.delivery) {
      type = 3;
      result = RunDelivery(ctx_, &rnd, w_id);
    } else {
      type = 4;
      result = RunStockLevel(ctx_, &rnd, w_id);
    }

    if (result.committed) {
      const int64_t elapsed_us = txn_timer.ElapsedMicros();
      latencies_us->push_back(elapsed_us);
      latency_.Record(elapsed_us);
      by_type_[type].Inc();
      const int64_t total =
          committed_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.window_observer && options_.window_txns > 0 &&
          total % options_.window_txns == 0) {
        options_.window_observer(total);
      }
    } else if (result.user_abort) {
      user_aborts_.Inc();
    } else {
      system_aborts_.Inc();
    }
  }
}

DriverStats TpccDriver::Run() {
  committed_.store(0, std::memory_order_relaxed);
  // The counters outlive a run; the stats are their deltas across this one.
  auto counts = [this] {
    DriverStats c;
    c.system_aborts = system_aborts_.Load();
    c.user_aborts = user_aborts_.Load();
    for (int i = 0; i < 5; ++i) c.by_type[i] = by_type_[i].Load();
    return c;
  };
  const DriverStats before = counts();
  std::vector<std::vector<int64_t>> per_worker_latencies(
      static_cast<size_t>(options_.workers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options_.workers));

  WallTimer timer;
  for (int i = 0; i < options_.workers; ++i) {
    threads.emplace_back([this, i, &per_worker_latencies] {
      Worker(i, &per_worker_latencies[static_cast<size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();

  DriverStats total = counts();
  total.wall_seconds = timer.ElapsedSeconds();
  total.system_aborts -= before.system_aborts;
  total.user_aborts -= before.user_aborts;
  for (int i = 0; i < 5; ++i) total.by_type[i] -= before.by_type[i];
  total.committed = committed_.load(std::memory_order_relaxed);
  std::vector<int64_t> latencies;
  for (const std::vector<int64_t>& worker : per_worker_latencies) {
    latencies.insert(latencies.end(), worker.begin(), worker.end());
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto at = [&](double q) {
      return latencies[std::min(latencies.size() - 1,
                                static_cast<size_t>(q * latencies.size()))];
    };
    total.latency_p50_us = at(0.50);
    total.latency_p95_us = at(0.95);
    total.latency_p99_us = at(0.99);
    int64_t sum = 0;
    for (int64_t v : latencies) sum += v;
    total.latency_mean_us =
        static_cast<double>(sum) / static_cast<double>(latencies.size());
  }
  return total;
}

}  // namespace tpcc
}  // namespace btrim
