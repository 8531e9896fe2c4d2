#ifndef BTRIM_ILM_PACK_H_
#define BTRIM_ILM_PACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/fragment_allocator.h"
#include "common/counters.h"
#include "common/histogram.h"
#include "common/thread_pool.h"
#include "ilm/config.h"
#include "ilm/ilm_queue.h"
#include "ilm/partition_state.h"
#include "ilm/tsf.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Pack intensity, derived from IMRS cache utilization (Sec. VI.A).
enum class PackLevel : uint8_t {
  kIdle,        ///< utilization below the steady threshold — no packing
  kSteady,      ///< pack cold rows only (ILM hotness rules apply)
  kAggressive,  ///< pack without hotness filtering; even hot rows go
};

/// Outcome of one pack cycle.
struct PackCycleResult {
  PackLevel level = PackLevel::kIdle;
  bool bypass_active = false;
  bool backed_off = false;  ///< cycle skipped: waiting out an I/O error
  bool io_error = false;    ///< a PackBatch in this cycle hit an I/O error
  int64_t target_bytes = 0;
  int64_t bytes_packed = 0;
  int64_t rows_packed = 0;
  int64_t rows_skipped_hot = 0;
  int64_t partitions_packed = 0;
};

/// What one PackBatch call accomplished.
struct PackBatchOutcome {
  int64_t bytes_released = 0;
  /// The batch hit a log/device I/O failure (as opposed to benign lock
  /// contention). The subsystem responds by backing off: a wedged device
  /// will not get healthier by being hammered with pack transactions.
  bool io_error = false;
};

/// Physical relocation service implemented by the engine: the Pack
/// subsystem selects rows; the client moves them (logged-delete from the
/// IMRS + logged-insert/update in the page store, in one small pack
/// transaction with conditional row locks — Sec. VI.B, VII.B).
class PackClient {
 public:
  virtual ~PackClient() = default;

  /// Packs `batch` (all from one partition in per-partition mode). Every
  /// row in `batch` holds the kRowReclaimBusy claim, taken by the caller
  /// at queue pop; PackBatch releases it for rows it disposes of itself
  /// (packed or dropped) and keeps it held for rows appended to `requeue`,
  /// which the caller re-links and only then releases — so a concurrent GC
  /// purge can never free a row that is checked out of the queue. Reports
  /// the fragment bytes released and whether the batch failed on I/O
  /// (which triggers pack backoff).
  virtual PackBatchOutcome PackBatch(PartitionState* partition,
                                     const std::vector<ImrsRow*>& batch,
                                     std::vector<ImrsRow*>* requeue) = 0;
};

/// The Pack subsystem (paper Sec. VI): locates cold rows via the
/// partition-level relaxed-LRU queues, applies the timestamp filter, and
/// relocates them to the page store through the PackClient, apportioning
/// each cycle's byte budget across partitions by Packability Index.
///
/// Per cycle (Sec. VI.C):
///   NumBytesToPack = pack_cycle_pct * bytes_in_use
///   UI(p)  = reuse_w(p) / Σ reuse_w          (window SUD ops on IMRS rows)
///   CUI(p) = mem(p) / Σ mem                  (IMRS footprint share)
///   PI(p)  = (CUI/UI) / Σ (CUI/UI)
///   PACK_BYTES(p) = PI(p) * NumBytesToPack
///
/// Levels (Sec. VI.A): packing starts above the steady-utilization
/// threshold; beyond threshold + (capacity-threshold)/2 packing turns
/// aggressive (no hotness checks), and if utilization still grows the
/// subsystem raises the IMRS-bypass flag: the engine stops admitting new
/// rows to the IMRS until utilization drops back under the aggressive line.
class PackSubsystem {
 public:
  PackSubsystem(const IlmConfig* config, FragmentAllocator* allocator,
                TsfLearner* tsf, PackClient* client);

  PackSubsystem(const PackSubsystem&) = delete;
  PackSubsystem& operator=(const PackSubsystem&) = delete;

  /// Runs one pack cycle over `partitions`. `now` is the current commit
  /// timestamp. Apportioning and level/backoff bookkeeping run on the
  /// calling (driver) thread; with a thread pool attached, the per-partition
  /// drains fan out to pool workers (each partition's relaxed-LRU queues are
  /// drained independently under its pack_mu). Concurrent calls are allowed
  /// (partition pack locks keep them disjoint) but the typical deployment is
  /// one cycle at a time.
  PackCycleResult RunPackCycle(const std::vector<PartitionState*>& partitions,
                               uint64_t now);

  /// Attaches the shared background pool used for per-partition fan-out.
  /// Call once at wiring time, before the first cycle and before
  /// RegisterMetrics (per-worker counters are sized from the pool). Null or
  /// a <= 1-worker pool keeps the cycle fully serial on the driver thread.
  void SetThreadPool(ThreadPool* pool);

  /// True while the engine must route new rows to the page store
  /// (utilization grew during aggressive pack — Sec. VI.A).
  bool BypassActive() const {
    return bypass_.load(std::memory_order_relaxed);
  }

  /// Level that a cycle starting now would run at.
  PackLevel LevelForUtilization(double util) const;

  /// The single database-wide queue used in QueueMode::kSingleGlobal.
  IlmQueue* global_queue() { return &global_queue_; }

  /// Routes a row back to the queue it is popped from (its partition's
  /// source queue, or the global queue).
  void Requeue(PartitionState* partition, ImrsRow* row);

  /// Registers the cumulative pack counters of Figs. 5, 7 and 10 (cycles,
  /// bytes_packed, rows_packed, rows_skipped_hot, transactions,
  /// bypass_activations, io_error_cycles: cycles that hit a PackBatch I/O
  /// error, backoff_cycles: cycles skipped while backing off) and the
  /// bypass flag as a gauge into the unified metrics registry under
  /// `pack.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  struct PartitionBudget {
    PartitionState* part;
    int64_t bytes_target;
    double window_reuse_rate;
  };

  /// Computes per-partition byte targets for this cycle.
  std::vector<PartitionBudget> Apportion(
      const std::vector<PartitionState*>& partitions, int64_t total_bytes);

  /// Packs up to `budget.bytes_target` bytes from one partition's queues.
  void PackPartition(const PartitionBudget& budget, PackLevel level,
                     uint64_t now, PackCycleResult* result);

  /// One fan-out task: acquires the partition pack lock (recording the
  /// wait), drains the partition (recording the drain latency), and credits
  /// the executing worker's throughput counter.
  void PackPartitionTask(const PartitionBudget& budget, PackLevel level,
                         uint64_t now, PackCycleResult* result);

  /// Global-queue variant (ablation mode).
  void PackGlobal(const std::vector<PartitionState*>& partitions,
                  int64_t total_bytes, PackLevel level, uint64_t now,
                  PackCycleResult* result);

  /// Pops the next row from a partition, cycling through the three source
  /// queues. Returns nullptr when all are empty.
  static ImrsRow* PopNext(PartitionState* part, int* source_cursor);

  /// True when the row is protected by the timestamp filter.
  bool IsRowHot(const ImrsRow* row, double window_reuse_rate,
                uint64_t now) const;

  void FlushBatch(PartitionState* part, std::vector<ImrsRow*>* batch,
                  PackCycleResult* result, int64_t* remaining);

  const IlmConfig* const config_;
  FragmentAllocator* const allocator_;
  TsfLearner* const tsf_;
  PackClient* const client_;

  /// Shared background pool (not owned); null until SetThreadPool.
  ThreadPool* pool_ = nullptr;

  IlmQueue global_queue_;

  std::atomic<bool> bypass_{false};
  double last_cycle_util_ = 0.0;  // pack thread only
  PackLevel last_cycle_level_ = PackLevel::kIdle;
  // I/O-failure backoff (pack thread only, like the fields above): after a
  // cycle whose PackBatch hit an I/O error, skip 2^k cycles (capped) before
  // trying again; consecutive failing cycles double the wait. A clean cycle
  // resets it. Rows from failed batches were requeued, so nothing is lost
  // while backing off — the IMRS just stays fuller for a while.
  int64_t backoff_remaining_ = 0;
  int consecutive_io_failures_ = 0;

  mutable ShardedCounter cycles_, bytes_packed_, rows_packed_, rows_skipped_,
      pack_txns_, bypass_activations_, io_error_cycles_, backoff_cycles_;

  /// Fan-out observability: time a task waits for its partition pack lock,
  /// and the full queue-drain latency of one partition in one cycle.
  mutable LatencyHistogram lock_wait_us_, partition_pack_us_;

  /// Per-worker packed bytes (lane 0 = driver/inline, 1..N = pool workers),
  /// sized by SetThreadPool and exported with the lane as the `partition`
  /// label. unique_ptr because ShardedCounter is not movable.
  std::vector<std::unique_ptr<ShardedCounter>> worker_bytes_packed_;
};

}  // namespace btrim

#endif  // BTRIM_ILM_PACK_H_
