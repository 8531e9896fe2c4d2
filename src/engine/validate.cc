// Cross-structure invariant checker (the BTRIM_PARANOID_CHECKS machinery).
//
// Verifies that the redundant views the engine keeps of every IMRS-resident
// row agree with each other:
//
//   RID-map entry  <->  ImrsRow identity + flags
//   version chain  <->  commit-timestamp ordering, no uncommitted versions
//   row source     <->  page-store slot existence (migrated/cached rows keep
//                       their page home until GC purges it; inserted rows
//                       have none until Pack relocates them)
//   hash index     <->  pk of the newest committed payload maps back to the
//                       same row pointer
//   ILM queues     <->  kRowInQueue flag, queue size counters, and correct
//                       owning queue (partition + source, or the global
//                       queue in the kSingleGlobal ablation mode)
//   partition gauges <-> sum of fragment footprints / live-row counts
//
// Locking: ValidateLocked requires background_rw_ SHARED plus ilm_tick_mu_
// and gc_pass_mu_. Holding the two pass mutexes excludes exactly the
// mutators that would break a walk — pack cycles (inside ILM ticks) and GC
// passes — without quiescing the whole engine the way the old exclusive
// background_rw_ hold did, so an overlapped checkpoint (shared
// background_rw_) and validation can coexist. Every structure the checker
// dereferences stays valid under those two mutexes alone: rows and versions
// freed by foreground aborts go through gc_->DeferFree, and the deferred
// list drains only inside GC passes, which we exclude.
//
// Two strictness levels share the walk:
//
//   strict  (ValidateInvariants): also pauses the transaction gate, so the
//           engine is fully idle; every check runs, any disagreement is
//           corruption.
//   tolerant (ParanoidValidate):  foreground commits keep flowing. Checks
//           that can legitimately disagree mid-transaction are skipped:
//           the RID-map size counter (racing inserts), uncommitted
//           versions (a prepended version is stamped only at commit), the
//           hash index (mid-commit upsert/erase), and the partition gauges
//           unless provably no transaction overlapped the walk.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/database.h"

namespace btrim {

namespace {

std::string Describe(const ImrsRow* row) {
  return "row " + row->rid.ToString() + " (table " +
         std::to_string(row->table_id) + ", partition " +
         std::to_string(row->partition_id) + ", source " +
         std::to_string(static_cast<int>(row->source)) + ", flags " +
         std::to_string(row->flags.load(std::memory_order_acquire)) + ")";
}

// Version chains are expected to be short (GC trims them); anything this
// long is a cycle introduced by a chain-splicing bug.
constexpr int64_t kMaxChainLength = 1 << 20;

}  // namespace

Status Database::ValidateLocked(ValidateReport* report, bool tolerant) {
  // Transaction activity snapshot: the gauge phase (C) only runs when it
  // can prove no transaction overlapped phases A/B. Begun is read first, so
  // a transaction beginning after it is caught either as active here or by
  // the begun re-read after the walk.
  const int64_t begun_before = txn_manager_.BegunCount();
  const int64_t active_before = txn_manager_.ActiveCount();

  // --- Phase A: RID-map entries, row identity, version chains, page homes,
  // hash-index agreement; accumulate per-partition footprints. -------------
  std::vector<std::pair<Rid, ImrsRow*>> entries;
  rid_map_.ForEach([&entries](Rid rid, ImrsRow* row) {
    entries.emplace_back(rid, row);
  });

  // Tolerant: concurrent inserts/aborts race the per-stripe counters
  // against our walk; the two are only comparable at a fixed point.
  if (!tolerant && rid_map_.Size() != static_cast<int64_t>(entries.size())) {
    return Status::Corruption(
        "RID-map entry counter (" + std::to_string(rid_map_.Size()) +
        ") disagrees with actual entries (" + std::to_string(entries.size()) +
        ")");
  }

  struct PartitionTally {
    int64_t bytes = 0;
    int64_t rows = 0;
  };
  std::unordered_map<PartitionState*, PartitionTally> tallies;
  std::unordered_map<ImrsRow*, Rid> live;
  live.reserve(entries.size());

  for (const auto& [rid, row] : entries) {
    if (row == nullptr) {
      return Status::Corruption("RID-map entry " + rid.ToString() +
                                " maps to a null row");
    }
    if (!live.emplace(row, rid).second) {
      return Status::Corruption(Describe(row) + " registered under two RIDs (" +
                                live[row].ToString() + " and " +
                                rid.ToString() + ")");
    }
    if (row->rid.Encode() != rid.Encode()) {
      return Status::Corruption("RID-map entry " + rid.ToString() +
                                " maps to a row that believes it is " +
                                row->rid.ToString());
    }
    // Purge/pack set these flags immediately before erasing the entry, and
    // both run under the mutexes we hold — no transient window even with
    // foreground traffic.
    if (row->HasFlag(kRowPurged)) {
      return Status::Corruption("purged " + Describe(row) +
                                " still present in the RID-map");
    }
    if (row->HasFlag(kRowPacked)) {
      return Status::Corruption("packed " + Describe(row) +
                                " still present in the RID-map");
    }

    Table* table = GetTable(row->table_id);
    if (table == nullptr) {
      return Status::Corruption(Describe(row) + " references unknown table");
    }
    TablePartition* part = table->PartitionForRid(rid);
    if (part == nullptr) {
      return Status::Corruption(Describe(row) +
                                " RID resolves to no partition of its table");
    }
    if (part->id != row->partition_id) {
      return Status::Corruption(Describe(row) +
                                " RID resolves to partition " +
                                std::to_string(part->id) +
                                " but the row claims partition " +
                                std::to_string(row->partition_id));
    }
    if (part->ilm == nullptr) {
      return Status::Corruption(Describe(row) +
                                " partition has no ILM state registered");
    }

    // Version chain: newest-first. Under strict quiescence every version
    // is committed; tolerant walks skip uncommitted links (cts == 0) —
    // a version is prepended first and stamped at commit, so an in-flight
    // writer legitimately leaves one at the head.
    RowVersion* head = row->latest.load(std::memory_order_acquire);
    if (head == nullptr) {
      return Status::Corruption(Describe(row) + " has an empty version chain");
    }
    uint64_t prev_ts = UINT64_MAX;
    int64_t chain_len = 0;
    RowVersion* newest_committed = nullptr;
    for (RowVersion* v = head; v != nullptr;
         v = v->older.load(std::memory_order_acquire)) {
      if (++chain_len > kMaxChainLength) {
        return Status::Corruption(Describe(row) +
                                  " version chain exceeds " +
                                  std::to_string(kMaxChainLength) +
                                  " links (cycle?)");
      }
      const uint64_t cts = v->commit_ts.load(std::memory_order_acquire);
      if (cts == 0) {
        if (!tolerant) {
          return Status::Corruption(
              Describe(row) + " has an uncommitted version (txn " +
              std::to_string(v->txn_id) + ") while the system is quiescent");
        }
        continue;  // in-flight writer; ordering applies to committed links
      }
      if (cts > prev_ts) {
        return Status::Corruption(Describe(row) +
                                  " version chain is not newest-first (" +
                                  std::to_string(cts) + " follows " +
                                  std::to_string(prev_ts) + ")");
      }
      prev_ts = cts;
      if (newest_committed == nullptr) newest_committed = v;
      ++report->versions_checked;
    }

    // Page-store home: migrated/cached rows keep their slot (heap, or cold
    // segment under cold_columnar) until GC purges the whole row; inserted
    // rows never had one (Pack removes the row from the RID-map in the same
    // cycle that places it). Foreground traffic never creates or removes a
    // home for an IMRS-resident row, so this holds in tolerant mode too. A
    // rid must never have both kinds of home at once.
    const bool heap_home = part->heap->Exists(rid);
    const bool cold_home = cold_->Exists(rid);
    ++report->page_homes_checked;
    if (heap_home && cold_home) {
      return Status::Corruption(Describe(row) +
                                " has both a heap slot and a cold-columnar "
                                "placement");
    }
    const bool has_home = heap_home || cold_home;
    if (row->source == RowSource::kInserted) {
      if (has_home) {
        return Status::Corruption(Describe(row) +
                                  " was inserted into the IMRS but has a "
                                  "materialized page-store slot");
      }
    } else if (!has_home) {
      return Status::Corruption(Describe(row) +
                                " migrated/cached from the page store but "
                                "its page-store slot is empty");
    }

    // Hash index: the pk of the newest committed payload must map back to
    // exactly this row. Skipped for tombstones (the index entry is dropped
    // when the delete is processed; the pk may legitimately be reused by a
    // newer insert while the tombstone awaits GC) and in tolerant mode
    // (commit actions upsert/erase entries while we walk).
    if (!tolerant && table->hash_index() != nullptr &&
        newest_committed != nullptr && !newest_committed->is_delete) {
      const std::string pk =
          table->pk_encoder().KeyForRecord(newest_committed->payload());
      ImrsRow* indexed = table->hash_index()->Lookup(Slice(pk), nullptr);
      if (indexed != row) {
        return Status::Corruption(
            Describe(row) + " hash-index lookup of its primary key returned " +
            (indexed == nullptr ? std::string("nothing")
                                : Describe(indexed)));
      }
    }

    PartitionTally& t = tallies[part->ilm];
    t.bytes += ImrsStore::RowFootprint(row);
    t.rows += 1;
    ++report->rows_checked;
  }

  // Cold-home exclusivity for rows the RID-map does NOT mask: every live
  // cold placement must be the rid's only home (IMRS-resident rids were
  // checked above). Skipped when the cold store is empty.
  if (cold_->rows() > 0) {
    Status cold_status;
    cold_->ForEachLive([&](uint32_t table_id, uint32_t, Rid rid,
                           const std::string&) {
      if (!cold_status.ok()) return;
      Table* table = GetTable(table_id);
      if (table == nullptr) return;
      TablePartition* part = table->PartitionForRid(rid);
      if (part == nullptr) return;
      if (part->heap->Exists(rid)) {
        cold_status = Status::Corruption(
            "rid " + rid.ToString() +
            " has both a heap slot and a cold-columnar placement");
      }
      ++report->page_homes_checked;
    });
    BTRIM_RETURN_IF_ERROR(cold_status);
  }

  // --- Phase B: ILM queue membership. --------------------------------------
  // Queues mutate only inside pack cycles and GC passes (enqueue of newly
  // committed rows is a GC hook, not a commit action), so membership is
  // stable under the mutexes we hold even in tolerant mode. Rows committed
  // after the entry collection above are not yet queued, and queued rows
  // are always committed (never erased by a foreground abort), so the
  // leaked-row cross-check is exact in both modes.
  std::unordered_set<ImrsRow*> queued;
  auto check_queue = [&](const IlmQueue& q, const std::string& what,
                         const PartitionState* owner,
                         int source) -> Status {
    Status qs = Status::OK();
    int64_t walked = 0;
    q.ForEach([&](ImrsRow* r) {
      ++walked;
      if (!r->HasFlag(kRowInQueue)) {
        qs = Status::Corruption(Describe(r) + " linked into " + what +
                                " without kRowInQueue set");
        return false;
      }
      if (live.find(r) == live.end()) {
        qs = Status::Corruption(Describe(r) + " linked into " + what +
                                " but absent from the RID-map (leaked row)");
        return false;
      }
      if (!queued.insert(r).second) {
        qs = Status::Corruption(Describe(r) + " linked into two queues (" +
                                what + " and another)");
        return false;
      }
      if (owner != nullptr) {
        if (r->table_id != owner->table_id ||
            r->partition_id != owner->partition_id) {
          qs = Status::Corruption(Describe(r) + " linked into " + what +
                                  " of a different partition");
          return false;
        }
        if (static_cast<int>(r->source) != source) {
          qs = Status::Corruption(Describe(r) + " linked into the wrong "
                                  "source queue (" + what + ")");
          return false;
        }
      }
      return true;
    });
    if (!qs.ok()) return qs;
    if (walked != q.Size()) {
      return Status::Corruption(what + " size counter (" +
                                std::to_string(q.Size()) +
                                ") disagrees with linked rows (" +
                                std::to_string(walked) + ")");
    }
    report->queued_rows += walked;
    return Status::OK();
  };

  for (PartitionState* p : ilm_->Partitions()) {
    for (int s = 0; s < kNumRowSources; ++s) {
      Status qs = check_queue(p->queues[s], p->name + " queue[" +
                              std::to_string(s) + "]", p, s);
      if (!qs.ok()) return qs;
    }
  }
  {
    Status qs =
        check_queue(*ilm_->pack()->global_queue(), "global queue",
                    /*owner=*/nullptr, /*source=*/-1);
    if (!qs.ok()) return qs;
  }

  for (const auto& [row, rid] : live) {
    if (row->HasFlag(kRowInQueue) && queued.find(row) == queued.end()) {
      return Status::Corruption(Describe(row) +
                                " has kRowInQueue set but is linked into no "
                                "queue");
    }
  }

  // --- Phase C: partition byte/row gauges. ---------------------------------
  // Comparable only at a fixed point: strict mode pauses the gate, so
  // always; tolerant mode only when no transaction was active when the walk
  // started and none began since (then no commit action or abort-undo could
  // have moved a gauge mid-walk).
  bool gauges_comparable = !tolerant;
  if (tolerant && active_before == 0) {
    gauges_comparable = txn_manager_.BegunCount() == begun_before;
  }
  if (gauges_comparable) {
    for (PartitionState* p : ilm_->Partitions()) {
      const PartitionTally t = tallies.count(p) ? tallies[p] : PartitionTally{};
      const int64_t gauge_bytes = p->metrics.imrs_bytes.Load();
      const int64_t gauge_rows = p->metrics.imrs_rows.Load();
      if (gauge_rows != t.rows) {
        return Status::Corruption(
            "partition " + p->name + " imrs_rows gauge (" +
            std::to_string(gauge_rows) + ") disagrees with live rows (" +
            std::to_string(t.rows) + ")");
      }
      if (gauge_bytes != t.bytes) {
        return Status::Corruption(
            "partition " + p->name + " imrs_bytes gauge (" +
            std::to_string(gauge_bytes) + ") disagrees with summed row "
            "footprints (" + std::to_string(t.bytes) + ")");
      }
      ++report->partitions_checked;
    }
    report->gauges_checked = true;
  }

  return Status::OK();
}

Status Database::ValidateInvariants(ValidateReport* report) {
  // Shared (not exclusive) hold: an overlapped checkpoint also runs under a
  // shared background_rw_ hold, so validation no longer serializes against
  // it. The two pass mutexes exclude pack cycles and GC passes; the gate
  // pause drains foreground transactions for the strict checks.
  RwSpinLockReadGuard background(background_rw_);
  MutexGuard tick(ilm_tick_mu_);
  MutexGuard pass(gc_pass_mu_);
  if (!txn_manager_.PauseNewTransactions(/*wait_ms=*/1000)) {
    return Status::Busy(
        "validate requires quiescence: active transactions did not drain");
  }
  ValidateReport local;
  Status s = ValidateLocked(report != nullptr ? report : &local,
                            /*tolerant=*/false);
  txn_manager_.ResumeNewTransactions();
  return s;
}

void Database::ParanoidValidate() BTRIM_NO_THREAD_SAFETY_ANALYSIS {
#ifdef BTRIM_PARANOID_CHECKS
  // Opportunistic and tolerant: never blocks a background pass that is
  // already running, and — unlike the old implementation — never pauses
  // the transaction gate, so paranoid CI builds no longer serialize the
  // foreground every pack cycle.
  if (!background_rw_.try_lock_shared()) return;
  if (!ilm_tick_mu_.try_lock()) {
    background_rw_.unlock_shared();
    return;
  }
  if (!gc_pass_mu_.try_lock()) {
    ilm_tick_mu_.unlock();
    background_rw_.unlock_shared();
    return;
  }
  ValidateReport report;
  const Status s = ValidateLocked(&report, /*tolerant=*/true);
  gc_pass_mu_.unlock();
  ilm_tick_mu_.unlock();
  background_rw_.unlock_shared();
  if (!s.ok()) {
    std::fprintf(stderr,
                 "[btrim] BTRIM_PARANOID_CHECKS: invariant violation after "
                 "pack cycle: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
#endif
}

}  // namespace btrim
