#include "ilm/pack.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "obs/metrics_registry.h"
#include "obs/trace_ring.h"

namespace btrim {

namespace {
constexpr double kEpsilon = 1e-9;
}  // namespace

PackSubsystem::PackSubsystem(const IlmConfig* config,
                             FragmentAllocator* allocator, TsfLearner* tsf,
                             PackClient* client)
    : config_(config), allocator_(allocator), tsf_(tsf), client_(client) {
  // Lane 0 (driver/inline) always exists; SetThreadPool adds pool lanes.
  worker_bytes_packed_.push_back(std::make_unique<ShardedCounter>());
}

void PackSubsystem::SetThreadPool(ThreadPool* pool) {
  pool_ = pool;
  const int lanes = pool == nullptr ? 0 : pool->worker_count();
  while (static_cast<int>(worker_bytes_packed_.size()) < lanes + 1) {
    worker_bytes_packed_.push_back(std::make_unique<ShardedCounter>());
  }
}

PackLevel PackSubsystem::LevelForUtilization(double util) const {
  const double steady = config_->steady_cache_pct;
  if (util < steady) return PackLevel::kIdle;
  const double aggressive_line =
      steady + (1.0 - steady) * config_->aggressive_fraction;
  return util < aggressive_line ? PackLevel::kSteady : PackLevel::kAggressive;
}

void PackSubsystem::Requeue(PartitionState* partition, ImrsRow* row) {
  if (config_->queue_mode == QueueMode::kSingleGlobal) {
    global_queue_.PushTail(row);
  } else {
    partition->QueueFor(row->source).PushTail(row);
  }
}

ImrsRow* PackSubsystem::PopNext(PartitionState* part, int* source_cursor) {
  for (int i = 0; i < kNumRowSources; ++i) {
    const int src = (*source_cursor + i) % kNumRowSources;
    ImrsRow* row = part->queues[src].PopHead();
    if (row != nullptr) {
      *source_cursor = (src + 1) % kNumRowSources;
      return row;
    }
  }
  return nullptr;
}

bool PackSubsystem::IsRowHot(const ImrsRow* row, double window_reuse_rate,
                             uint64_t now) const {
  // Sec. VI.D.2: the timestamp filter protects only partitions with
  // meaningful reuse; low-reuse partitions (e.g. history) pack regardless
  // of recency.
  if (window_reuse_rate < config_->low_reuse_rate) return false;
  return tsf_->IsRecent(row->last_access_ts.load(std::memory_order_relaxed),
                        now);
}

std::vector<PackSubsystem::PartitionBudget> PackSubsystem::Apportion(
    const std::vector<PartitionState*>& partitions, int64_t total_bytes) {
  struct Raw {
    PartitionState* part;
    double reuse_w;
    double mem;
    double reuse_rate;
  };
  std::vector<Raw> raws;
  double sum_reuse = 0.0;
  double sum_mem = 0.0;
  for (PartitionState* part : partitions) {
    const MetricsSnapshot cur = part->metrics.Snapshot();
    part->pack_last = cur;
    part->pack_have_last = true;

    if (cur.imrs_bytes <= 0) continue;  // nothing resident, nothing to pack
    if (part->pinned.load(std::memory_order_relaxed)) continue;
    // Usefulness is cumulative (Sec. VI.C: "how useful it is, or has
    // been"): lifetime SUD ops on IMRS rows, and the per-row reuse rate
    // over all rows ever admitted. Pack cycles are far more frequent than
    // tuning windows, so per-cycle deltas would be noise.
    Raw raw;
    raw.part = part;
    raw.reuse_w = static_cast<double>(cur.ReuseOps());
    raw.mem = static_cast<double>(cur.imrs_bytes);
    raw.reuse_rate =
        static_cast<double>(cur.ReuseOps()) /
        static_cast<double>(std::max<int64_t>(cur.NewRows(), 1));
    raws.push_back(raw);
    sum_reuse += raw.reuse_w;
    sum_mem += raw.mem;
  }

  std::vector<PartitionBudget> budgets;
  if (raws.empty() || sum_mem <= 0.0) return budgets;

  if (config_->apportion_mode == ApportionMode::kUniform) {
    // The naive baseline of Sec. VI.C: equal split across active
    // partitions, regardless of footprint or usefulness.
    const int64_t each = total_bytes / static_cast<int64_t>(raws.size());
    for (const Raw& raw : raws) {
      budgets.push_back(PartitionBudget{raw.part, each, raw.reuse_rate});
    }
    return budgets;
  }

  // Packability-index apportioning.
  //   UI = reuse share, CUI = memory share, score = CUI / UI,
  //   PI = normalized score.
  double sum_score = 0.0;
  std::vector<double> scores(raws.size());
  for (size_t i = 0; i < raws.size(); ++i) {
    const double ui =
        sum_reuse > 0.0 ? raws[i].reuse_w / sum_reuse
                        : 1.0 / static_cast<double>(raws.size());
    const double cui = raws[i].mem / sum_mem;
    scores[i] = cui / std::max(ui, kEpsilon);
    sum_score += scores[i];
  }
  for (size_t i = 0; i < raws.size(); ++i) {
    const double pi = scores[i] / std::max(sum_score, kEpsilon);
    budgets.push_back(PartitionBudget{
        raws[i].part, static_cast<int64_t>(pi * static_cast<double>(total_bytes)),
        raws[i].reuse_rate});
  }
  return budgets;
}

void PackSubsystem::FlushBatch(PartitionState* part,
                               std::vector<ImrsRow*>* batch,
                               PackCycleResult* result, int64_t* remaining) {
  if (batch->empty()) return;
  std::vector<ImrsRow*> requeue;
  const PackBatchOutcome outcome = client_->PackBatch(part, *batch, &requeue);
  const int64_t released = outcome.bytes_released;
  if (outcome.io_error) result->io_error = true;
  pack_txns_.Inc();
  const int64_t packed =
      static_cast<int64_t>(batch->size() - requeue.size());
  result->bytes_packed += released;
  result->rows_packed += packed;
  *remaining -= released;

  part->metrics.rows_packed.Add(packed);
  part->metrics.bytes_packed.Add(released);
  rows_packed_.Add(packed);
  bytes_packed_.Add(released);

  // Requeued rows come back from PackBatch still claimed: re-link first,
  // release the claim second, so a concurrent GC purge can never free a
  // row this thread is about to push.
  for (ImrsRow* row : requeue) {
    Requeue(part, row);
    row->ClearFlag(kRowReclaimBusy);
  }
  batch->clear();
}

void PackSubsystem::PackPartition(const PartitionBudget& budget,
                                  PackLevel level, uint64_t now,
                                  PackCycleResult* result) {
  int64_t remaining = budget.bytes_target;
  if (remaining <= 0) return;

  // Scan budget: bounded number of queue pops, proportional to the target
  // row count, so a queue full of hot rows cannot stall the cycle.
  const int64_t rows_in_part =
      std::max<int64_t>(budget.part->metrics.imrs_rows.Load(), 1);
  const int64_t bytes_in_part =
      std::max<int64_t>(budget.part->metrics.imrs_bytes.Load(), 1);
  const int64_t avg_row_bytes = std::max<int64_t>(bytes_in_part / rows_in_part, 1);
  const int64_t target_rows = std::max<int64_t>(remaining / avg_row_bytes, 1);
  int64_t scan_budget =
      target_rows * config_->scan_budget_factor + config_->pack_batch_rows;
  // Visit each queued row at most once per cycle: skipped-hot rows go to
  // the tail and must not be re-examined until the next cycle.
  scan_budget = std::min(scan_budget, budget.part->TotalQueuedRows());

  const bool apply_tsf = level == PackLevel::kSteady;
  std::vector<ImrsRow*> batch;
  batch.reserve(config_->pack_batch_rows);
  int source_cursor = 0;
  bool packed_any = false;

  while (remaining > 0 && scan_budget-- > 0) {
    ImrsRow* row = PopNext(budget.part, &source_cursor);
    if (row == nullptr) break;
    // Claim the row for the whole time it is checked out of the queue: a
    // popped-but-unclaimed row could be purged and deferred-freed by a
    // concurrent GC pass, and requeueing it afterwards would re-link a
    // dangling pointer. On claim failure GC owns the row's fate — drop it
    // without touching it again; if the row survives the pass it re-enters
    // the queue with its next committed change (the GC enqueue piggyback).
    if (!row->TryClaimReclaim()) continue;
    if (row->HasFlag(kRowPurged) || row->HasFlag(kRowPacked)) {
      row->ClearFlag(kRowReclaimBusy);
      continue;  // stale queue entry, drop
    }
    if (apply_tsf && IsRowHot(row, budget.window_reuse_rate, now)) {
      // Hot: relocate to the tail; colder rows bubble up to the head.
      // Re-link before releasing the claim so a concurrent purge always
      // sees the row either claimed or linked (and unlinks it).
      budget.part->QueueFor(row->source).PushTail(row);
      row->ClearFlag(kRowReclaimBusy);
      budget.part->metrics.rows_skipped_hot.Inc();
      rows_skipped_.Inc();
      ++result->rows_skipped_hot;
      continue;
    }
    batch.push_back(row);  // claim stays held through PackBatch
    if (static_cast<int>(batch.size()) >= config_->pack_batch_rows) {
      FlushBatch(budget.part, &batch, result, &remaining);
      packed_any = true;
    }
  }
  FlushBatch(budget.part, &batch, result, &remaining);
  if (packed_any || remaining < budget.bytes_target) {
    ++result->partitions_packed;
  }
}

void PackSubsystem::PackPartitionTask(const PartitionBudget& budget,
                                      PackLevel level, uint64_t now,
                                      PackCycleResult* result) {
  const int64_t wait_start = obs::TraceRing::NowUs();
  SpinLockGuard guard(budget.part->pack_mu);
  const int64_t drain_start = obs::TraceRing::NowUs();
  lock_wait_us_.Record(drain_start - wait_start);

  const int64_t bytes_before = result->bytes_packed;
  PackPartition(budget, level, now, result);

  partition_pack_us_.Record(obs::TraceRing::NowUs() - drain_start);
  const int lane = std::min<int>(ThreadPool::CurrentWorkerId(),
                                 static_cast<int>(worker_bytes_packed_.size()) - 1);
  worker_bytes_packed_[lane]->Add(result->bytes_packed - bytes_before);
}

void PackSubsystem::PackGlobal(const std::vector<PartitionState*>& partitions,
                               int64_t total_bytes, PackLevel level,
                               uint64_t now, PackCycleResult* result) {
  // Per-partition reuse rates still gate the TSF even with a global queue.
  std::unordered_map<PartitionState*, double> reuse_rate;
  for (PartitionState* part : partitions) {
    const MetricsSnapshot cur = part->metrics.Snapshot();
    reuse_rate[part] =
        static_cast<double>(cur.ReuseOps()) /
        static_cast<double>(std::max<int64_t>(cur.NewRows(), 1));
  }
  std::unordered_map<uint64_t, PartitionState*> part_by_key;
  for (PartitionState* part : partitions) {
    part_by_key[(static_cast<uint64_t>(part->table_id) << 32) |
                part->partition_id] = part;
  }

  int64_t remaining = total_bytes;
  int64_t scan_budget =
      std::max<int64_t>(total_bytes / 64, 1) * config_->scan_budget_factor +
      config_->pack_batch_rows;
  scan_budget = std::min(scan_budget, global_queue_.Size());
  const bool apply_tsf = level == PackLevel::kSteady;

  // Per-partition mini-batches: PackBatch operates on one partition at a
  // time (the consolidation benefit the paper attributes to per-partition
  // queues is exactly what this mode has to reconstruct by grouping).
  std::unordered_map<PartitionState*, std::vector<ImrsRow*>> batches;

  while (remaining > 0 && scan_budget-- > 0) {
    ImrsRow* row = global_queue_.PopHead();
    if (row == nullptr) break;
    // Same checkout protocol as PackPartition: claim before inspecting,
    // drop on claim failure, release only after the row is re-linked.
    if (!row->TryClaimReclaim()) continue;
    if (row->HasFlag(kRowPurged) || row->HasFlag(kRowPacked)) {
      row->ClearFlag(kRowReclaimBusy);
      continue;
    }
    auto it = part_by_key.find((static_cast<uint64_t>(row->table_id) << 32) |
                               row->partition_id);
    if (it == part_by_key.end()) {
      row->ClearFlag(kRowReclaimBusy);
      continue;
    }
    PartitionState* part = it->second;
    if (part->pinned.load(std::memory_order_relaxed)) {
      row->ClearFlag(kRowReclaimBusy);
      continue;  // pinned rows never pack; drop from the queue
    }

    if (apply_tsf && IsRowHot(row, reuse_rate[part], now)) {
      global_queue_.PushTail(row);
      row->ClearFlag(kRowReclaimBusy);
      part->metrics.rows_skipped_hot.Inc();
      rows_skipped_.Inc();
      ++result->rows_skipped_hot;
      continue;
    }
    auto& batch = batches[part];
    batch.push_back(row);
    if (static_cast<int>(batch.size()) >= config_->pack_batch_rows) {
      FlushBatch(part, &batch, result, &remaining);
    }
  }
  for (auto& [part, batch] : batches) {
    FlushBatch(part, &batch, result, &remaining);
  }
  result->partitions_packed = static_cast<int64_t>(batches.size());
}

PackCycleResult PackSubsystem::RunPackCycle(
    const std::vector<PartitionState*>& partitions, uint64_t now) {
  PackCycleResult result;
  cycles_.Inc();

  if (backoff_remaining_ > 0) {
    --backoff_remaining_;
    backoff_cycles_.Inc();
    result.backed_off = true;
    result.level = LevelForUtilization(allocator_->Utilization());
    result.bypass_active = bypass_.load(std::memory_order_relaxed);
    return result;
  }

  const double util = allocator_->Utilization();
  const PackLevel level = LevelForUtilization(util);
  result.level = level;

  // Bypass control (Sec. VI.A): utilization still climbing during
  // aggressive pack -> stop admitting new rows to the IMRS; re-admit once
  // utilization falls back under the aggressive line.
  if (level == PackLevel::kAggressive &&
      last_cycle_level_ == PackLevel::kAggressive &&
      util > last_cycle_util_) {
    if (!bypass_.exchange(true, std::memory_order_relaxed)) {
      bypass_activations_.Inc();
    }
  } else if (level != PackLevel::kAggressive) {
    bypass_.store(false, std::memory_order_relaxed);
  }
  last_cycle_util_ = util;
  last_cycle_level_ = level;
  result.bypass_active = bypass_.load(std::memory_order_relaxed);

  if (level == PackLevel::kIdle) return result;

  const int64_t in_use = allocator_->InUseBytes();
  result.target_bytes =
      static_cast<int64_t>(config_->pack_cycle_pct * static_cast<double>(in_use));
  if (result.target_bytes <= 0) return result;

  if (config_->queue_mode == QueueMode::kSingleGlobal) {
    PackGlobal(partitions, result.target_bytes, level, now, &result);
  } else {
    // Apportioning runs on the driver thread before any fan-out, so the
    // UI/CUI/PI split is identical regardless of worker count; only the
    // per-partition drains parallelize.
    const std::vector<PartitionBudget> budgets =
        Apportion(partitions, result.target_bytes);
    if (pool_ != nullptr && pool_->worker_count() > 1 && budgets.size() > 1) {
      std::vector<PackCycleResult> partials(budgets.size());
      std::vector<std::function<void()>> tasks;
      tasks.reserve(budgets.size());
      for (size_t i = 0; i < budgets.size(); ++i) {
        tasks.push_back([this, &budgets, &partials, i, level, now] {
          PackPartitionTask(budgets[i], level, now, &partials[i]);
        });
      }
      pool_->RunTasks(std::move(tasks));
      for (const PackCycleResult& p : partials) {
        result.bytes_packed += p.bytes_packed;
        result.rows_packed += p.rows_packed;
        result.rows_skipped_hot += p.rows_skipped_hot;
        result.partitions_packed += p.partitions_packed;
        result.io_error = result.io_error || p.io_error;
      }
    } else {
      for (const PartitionBudget& budget : budgets) {
        PackPartitionTask(budget, level, now, &result);
      }
    }
  }
  if (result.io_error) {
    io_error_cycles_.Inc();
    consecutive_io_failures_ =
        std::min(consecutive_io_failures_ + 1, 6);  // cap the wait at 64
    backoff_remaining_ = int64_t{1} << consecutive_io_failures_;
  } else {
    consecutive_io_failures_ = 0;
  }
  return result;
}

Status PackSubsystem::RegisterMetrics(obs::MetricsRegistry* registry,
                                      const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("pack.cycles", l, &cycles_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("pack.bytes_packed", l, &bytes_packed_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("pack.rows_packed", l, &rows_packed_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("pack.rows_skipped_hot", l, &rows_skipped_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("pack.transactions", l, &pack_txns_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("pack.bypass_activations", l,
                                                  &bypass_activations_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("pack.io_error_cycles", l,
                                                  &io_error_cycles_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("pack.backoff_cycles", l, &backoff_cycles_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "pack.bypass_active", l, [this] { return BypassActive() ? 1 : 0; }));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterHistogram("pack.lock_wait_us", l, &lock_wait_us_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterHistogram("pack.partition_pack_us",
                                                    l, &partition_pack_us_));
  // One throughput counter per executing lane; the lane index rides in the
  // `partition` label (lane 0 = driver/inline execution).
  for (size_t lane = 0; lane < worker_bytes_packed_.size(); ++lane) {
    const obs::MetricLabels wl{subsystem, "", std::to_string(lane), ""};
    BTRIM_RETURN_IF_ERROR(registry->RegisterCounter(
        "pack.worker_bytes_packed", wl, worker_bytes_packed_[lane].get()));
  }
  return Status::OK();
}

}  // namespace btrim
