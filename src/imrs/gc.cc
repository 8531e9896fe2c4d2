#include "imrs/gc.h"

#include <functional>
#include <limits>

#include "obs/metrics_registry.h"

namespace btrim {

ImrsGc::ImrsGc(ImrsStore* store, GcHooks hooks)
    : store_(store), hooks_(std::move(hooks)) {}

int ImrsGc::ShardFor(const ImrsRow* row) {
  // Fibonacci-hash the RID so heap-adjacent rows spread across shards.
  const uint64_t h = row->rid.Encode() * 0x9E3779B97F4A7C15ull;
  return static_cast<int>(h >> 60) & (kGcShards - 1);
}

void ImrsGc::EnqueueCommitted(ImrsRow* row, bool newly_created) {
  Shard& shard = shards_[ShardFor(row)];
  MutexGuard guard(shard.mu);
  shard.work.push_back(WorkItem{row, newly_created});
}

void ImrsGc::DeferFree(void* fragment, uint64_t not_before_ts) {
  MutexGuard guard(deferred_mu_);
  deferred_.push_back(Deferred{fragment, not_before_ts});
}

bool ImrsGc::ProcessRow(ImrsRow* row, bool newly_created,
                        uint64_t oldest_snapshot, uint64_t now) {
  if (row->HasFlag(kRowPurged)) return false;
  if (row->HasFlag(kRowPacked)) return false;  // Pack owns its cleanup

  if (newly_created && !row->HasFlag(kRowInQueue) &&
      hooks_.enqueue_to_ilm_queue) {
    hooks_.enqueue_to_ilm_queue(row);
    rows_enqueued_.Inc();
  }

  // Find the pivot: the newest committed version visible to the oldest
  // active snapshot. Everything strictly older is unreachable.
  RowVersion* pivot = nullptr;
  int chain_len = 0;
  for (RowVersion* v = row->latest.load(std::memory_order_acquire);
       v != nullptr; v = v->older.load(std::memory_order_acquire)) {
    ++chain_len;
    const uint64_t cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts != 0 && cts <= oldest_snapshot) {
      pivot = v;
      break;
    }
  }
  if (pivot == nullptr) {
    // Every version is newer than the oldest snapshot (or uncommitted);
    // nothing reclaimable yet. Revisit if there is a chain to trim.
    return chain_len > 1;
  }

  // Trim versions older than the pivot. After the exchange no new walk can
  // reach them, but a reader that loaded the chain before the unlink may
  // still hold pointers; readers synchronize with GC only through the
  // active-transaction set, so physical reuse must wait until every
  // snapshot that could have observed these versions has ended. Defer past
  // the trim-time watermark, exactly like purged rows.
  RowVersion* dead = pivot->older.exchange(nullptr, std::memory_order_acq_rel);
  int64_t freed_bytes = 0;
  int64_t freed_versions = 0;
  while (dead != nullptr) {
    RowVersion* next = dead->older.load(std::memory_order_relaxed);
    freed_bytes += ImrsStore::FragmentCharge(dead);
    ++freed_versions;
    DeferFree(dead, now);
    dead = next;
  }
  if (freed_versions > 0) {
    versions_freed_.Add(freed_versions);
    bytes_freed_.Add(freed_bytes);
    if (hooks_.on_freed) {
      hooks_.on_freed(row->table_id, row->partition_id, freed_bytes, 0);
    }
  }

  // Dead-row purge: the newest version is a committed delete marker that
  // every current and future snapshot observes.
  RowVersion* head = row->latest.load(std::memory_order_acquire);
  const uint64_t head_cts = head->commit_ts.load(std::memory_order_acquire);
  if (head->is_delete && head_cts != 0 && head_cts <= oldest_snapshot) {
    if (hooks_.purge_page_store_home && !hooks_.purge_page_store_home(row)) {
      return true;  // page-store home busy; retry later
    }
    row->SetFlag(kRowPurged);
    store_->rid_map()->Erase(row->rid);
    if (hooks_.unlink_from_ilm_queue) hooks_.unlink_from_ilm_queue(row);

    // Readers may still hold the row pointer: defer all frees past every
    // snapshot that could have obtained it.
    int64_t purged_bytes = 0;
    for (RowVersion* v = head; v != nullptr;
         v = v->older.load(std::memory_order_relaxed)) {
      purged_bytes += ImrsStore::FragmentCharge(v);
      DeferFree(v, now);
    }
    purged_bytes += ImrsStore::FragmentCharge(row);
    DeferFree(row, now);

    rows_purged_.Inc();
    bytes_freed_.Add(purged_bytes);
    if (hooks_.on_freed) {
      hooks_.on_freed(row->table_id, row->partition_id, purged_bytes, 1);
    }
    return false;
  }

  // Revisit rows that still have history to reclaim later.
  RowVersion* remaining = row->latest.load(std::memory_order_acquire);
  return remaining != nullptr &&
         remaining->older.load(std::memory_order_relaxed) != nullptr;
}

void ImrsGc::DrainShard(int shard_index, size_t budget,
                        uint64_t oldest_snapshot, uint64_t now,
                        std::atomic<int64_t>* remaining,
                        std::atomic<int64_t>* processed) {
  Shard& shard = shards_[shard_index];
  // One drainer per shard at a time: a row enqueued once per commit can sit
  // in the deque repeatedly, and two drainers of the same shard could pick
  // up both copies.
  MutexGuard drain(shard.drain_mu);

  std::vector<WorkItem> revisit;
  for (size_t i = 0; i < budget; ++i) {
    if (remaining->fetch_sub(1, std::memory_order_relaxed) <= 0) break;
    WorkItem item;
    {
      MutexGuard guard(shard.mu);
      if (shard.work.empty()) break;
      item = shard.work.front();
      shard.work.pop_front();
    }
    if (!item.row->TryClaimReclaim()) {
      // Pack is relocating the row right now; look again next pass (with
      // `newly_created` preserved so the ILM enqueue is not lost if the
      // relocation bails out).
      revisit.push_back(item);
      continue;
    }
    processed->fetch_add(1, std::memory_order_relaxed);
    const bool again =
        ProcessRow(item.row, item.newly_created, oldest_snapshot, now);
    item.row->ClearFlag(kRowReclaimBusy);
    if (again) revisit.push_back(WorkItem{item.row, false});
  }
  if (!revisit.empty()) {
    MutexGuard guard(shard.mu);
    for (const auto& item : revisit) shard.work.push_back(item);
  }
}

int64_t ImrsGc::RunOnce(uint64_t oldest_snapshot, uint64_t now,
                        int64_t max_items) {
  size_t budgets[kGcShards];
  for (int i = 0; i < kGcShards; ++i) {
    MutexGuard guard(shards_[i].mu);
    budgets[i] = shards_[i].work.size();
  }

  std::atomic<int64_t> remaining{
      max_items > 0 ? max_items : std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> processed{0};

  if (pool_ != nullptr && pool_->worker_count() > 1) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < kGcShards; ++i) {
      if (budgets[i] == 0) continue;
      const size_t budget = budgets[i];
      tasks.push_back([this, i, budget, oldest_snapshot, now, &remaining,
                       &processed] {
        DrainShard(i, budget, oldest_snapshot, now, &remaining, &processed);
      });
    }
    pool_->RunTasks(std::move(tasks));
  } else {
    for (int i = 0; i < kGcShards; ++i) {
      if (budgets[i] == 0) continue;
      DrainShard(i, budgets[i], oldest_snapshot, now, &remaining, &processed);
    }
  }

  DrainDeferred(oldest_snapshot);
  return processed.load(std::memory_order_relaxed);
}

void ImrsGc::DrainDeferred(uint64_t oldest_snapshot) {
  std::vector<void*> to_free;
  {
    MutexGuard guard(deferred_mu_);
    size_t w = 0;
    for (size_t i = 0; i < deferred_.size(); ++i) {
      if (deferred_[i].not_before_ts < oldest_snapshot) {
        to_free.push_back(deferred_[i].fragment);
      } else {
        deferred_[w++] = deferred_[i];
      }
    }
    deferred_.resize(w);
  }
  for (void* p : to_free) {
    store_->allocator()->Free(p);
  }
}

Status ImrsGc::RegisterMetrics(obs::MetricsRegistry* registry,
                               const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("gc.versions_freed", l, &versions_freed_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("gc.bytes_freed", l, &bytes_freed_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("gc.rows_purged", l, &rows_purged_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("gc.rows_enqueued", l, &rows_enqueued_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn("gc.work_pending", l, [this] {
    int64_t pending = 0;
    for (int i = 0; i < kGcShards; ++i) {
      MutexGuard guard(shards_[i].mu);
      pending += static_cast<int64_t>(shards_[i].work.size());
    }
    return pending;
  }));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterGaugeFn("gc.deferred_pending", l, [this] {
        MutexGuard guard(deferred_mu_);
        return static_cast<int64_t>(deferred_.size());
      }));
  return Status::OK();
}

}  // namespace btrim
