// DML access methods of the BTrim engine (paper Sec. II, IV, VII).
//
// Every operation resolves the row's current residency through the RID-map
// and transparently works against whichever store holds the truth. ILM
// decision points are marked with the paper section they implement.

#include "engine/database.h"
#include "wal/log_record.h"

namespace btrim {

namespace {

std::string SecondaryKey(const SecondaryIndex& sec, Slice record, Rid rid) {
  std::string key = sec.encoder->KeyForRecord(record);
  if (!sec.def.unique) {
    return BTree::MakeNonUniqueKey(Slice(key), rid);
  }
  return key;
}

}  // namespace

Status Database::InsertIndexEntries(Transaction* txn, Table* table,
                                    Slice record, Slice pk, Rid rid) {
  Status s = table->primary_index()->Insert(pk, rid.Encode());
  if (!s.ok()) return s;  // AlreadyExists = unique violation
  {
    BTree* primary = table->primary_index();
    std::string pk_copy = pk.ToString();
    txn->AddUndo([primary, pk_copy] {
      Status st = primary->Delete(Slice(pk_copy));
      (void)st;
    });
  }
  for (SecondaryIndex& sec : table->secondaries()) {
    const std::string skey = SecondaryKey(sec, record, rid);
    s = sec.tree->Insert(Slice(skey), rid.Encode());
    if (!s.ok()) return s;
    BTree* tree = sec.tree.get();
    txn->AddUndo([tree, skey] {
      Status st = tree->Delete(Slice(skey));
      (void)st;
    });
  }
  return Status::OK();
}

void Database::RemoveIndexEntries(Table* table, Slice record, Slice pk,
                                  Rid rid) {
  Status s = table->primary_index()->Delete(pk);
  (void)s;
  for (SecondaryIndex& sec : table->secondaries()) {
    const std::string skey = SecondaryKey(sec, record, rid);
    s = sec.tree->Delete(Slice(skey));
    (void)s;
  }
}

Status Database::InsertToImrs(Transaction* txn, Table* table,
                              TablePartition* part, Rid rid, Slice record,
                              Slice pk, RowSource source) {
  int64_t bytes = 0;
  Result<ImrsRow*> created =
      imrs_->CreateRow(rid, table->id(), part->ilm->partition_id, source,
                       record, txn->id(), Now(), &bytes);
  if (!created.ok()) return created.status();
  ImrsRow* row = *created;

  PartitionState* pstate = part->ilm;
  pstate->metrics.imrs_bytes.Add(bytes);
  pstate->metrics.imrs_rows.Add(1);
  switch (source) {
    case RowSource::kInserted:
      pstate->metrics.inserts_imrs.Inc();
      break;
    case RowSource::kMigrated:
      pstate->metrics.migrations.Inc();
      break;
    case RowSource::kCached:
      pstate->metrics.cachings.Inc();
      break;
  }

  HashIndex<ImrsRow*>* hash = table->hash_index();
  if (hash != nullptr) hash->Upsert(pk, row);

  // Abort: unregister the row and release its memory after a grace period
  // (other transactions may have dereferenced the uncommitted row while
  // skipping its invisible version).
  {
    std::string pk_copy = pk.ToString();
    txn->AddUndo([this, table, pstate, row, bytes, pk_copy] {
      rid_map_.Erase(row->rid);
      HashIndex<ImrsRow*>* h = table->hash_index();
      if (h != nullptr) h->EraseIf(Slice(pk_copy), row);
      pstate->metrics.imrs_bytes.Sub(bytes);
      pstate->metrics.imrs_rows.Sub(1);
      const uint64_t now = Now();
      RowVersion* v = row->latest.load(std::memory_order_acquire);
      if (v != nullptr) gc_->DeferFree(v, now);
      gc_->DeferFree(row, now);
    });
  }

  // Commit: stamp the version's timestamp and hand the new row to GC,
  // which enqueues it at the tail of its ILM queue (Sec. VI.B).
  {
    RowVersion* version = row->latest.load(std::memory_order_acquire);
    txn->AddCommitAction([this, row, version](uint64_t cts) {
      version->commit_ts.store(cts, std::memory_order_release);
      row->Touch(cts);
      gc_->EnqueueCommitted(row, /*newly_created=*/true);
    });
  }

  // Redo-only record for sysimrslogs, buffered until commit.
  LogRecord rec;
  rec.type = LogRecordType::kImrsInsert;
  rec.txn_id = txn->id();
  rec.table_id = table->id();
  rec.partition_id = pstate->partition_id;
  rec.rid = rid.Encode();
  rec.source = static_cast<uint8_t>(source);
  rec.after = record.ToString();
  AppendLogRecord(txn->imrs_redo_buffer(), rec);
  txn->CountImrsRecord();
  return Status::OK();
}

Status Database::InsertToPageStore(Transaction* txn, Table* table,
                                   TablePartition* part, Rid rid,
                                   Slice record) {
  // WAL: the redo-undo record precedes the page change.
  LogRecord rec;
  rec.type = LogRecordType::kPsInsert;
  rec.txn_id = txn->id();
  rec.table_id = table->id();
  rec.partition_id = part->ilm->partition_id;
  rec.rid = rid.Encode();
  rec.after = record.ToString();
  BTRIM_RETURN_IF_ERROR(syslogs_->AppendRecord(rec));
  txn->MarkPageStoreChange();

  bool contended = false;
  Status s = part->heap->Place(rid, record, &contended);
  part->ilm->metrics.page_ops.Inc();
  if (contended) part->ilm->metrics.page_contention.Inc();
  if (!s.ok()) return s;

  HeapFile* heap = part->heap.get();
  txn->AddUndo([heap, rid] {
    Status st = heap->Delete(rid);
    (void)st;
  });
  return Status::OK();
}

Status Database::Insert(Transaction* txn, Table* table, Slice record) {
  TablePartition& part = table->PartitionForRecord(record);
  const std::string pk = table->pk_encoder().KeyForRecord(record);
  const Rid rid = part.heap->AllocateRid();

  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(rid.Encode(), LockMode::kExclusive,
                                         options_.lock_timeout_ms));
  BTRIM_RETURN_IF_ERROR(InsertIndexEntries(txn, table, record, Slice(pk), rid));

  // ILM decision (Sec. IV): inserts are directed to the IMRS unless the
  // partition is tuner-disabled or pack backpressure is active; a full
  // cache (NoSpace) falls back to the page store.
  if (ilm_->ShouldInsertToImrs(part.ilm)) {
    Status s = InsertToImrs(txn, table, &part, rid, record, Slice(pk),
                            RowSource::kInserted);
    if (s.ok()) {
      imrs_ops_.Inc();
      return Status::OK();
    }
    if (!s.IsNoSpace()) return s;
  }
  Status s = InsertToPageStore(txn, table, &part, rid, record);
  if (s.ok()) page_ops_.Inc();
  return s;
}

Status Database::LocateByKey(Table* table, Slice pk, Located* loc) {
  // Fast path: the non-logged hash index over IMRS rows (Sec. II).
  HashIndex<ImrsRow*>* hash = table->hash_index();
  if (hash != nullptr) {
    ImrsRow* row = hash->Lookup(pk, nullptr);
    if (row != nullptr && !row->HasFlag(kRowPacked) &&
        !row->HasFlag(kRowPurged)) {
      loc->row = row;
      loc->rid = row->rid;
      loc->part = table->PartitionForRid(row->rid);
      if (loc->part != nullptr) return Status::OK();
    }
  }
  // Unique BTree + RID-map path.
  Result<uint64_t> rid_enc = table->primary_index()->Search(pk);
  if (!rid_enc.ok()) return rid_enc.status();
  loc->rid = Rid::Decode(*rid_enc);
  loc->part = table->PartitionForRid(loc->rid);
  if (loc->part == nullptr) {
    return Status::Corruption("RID " + loc->rid.ToString() +
                              " maps to no partition");
  }
  loc->row = rid_map_.Lookup(loc->rid);
  return Status::OK();
}

Status Database::ReadVisible(Transaction* txn, Table* table,
                             const Located& loc, std::string* out,
                             bool* from_imrs) {
  (void)table;
  *from_imrs = false;
  ImrsRow* row = loc.row;
  if (row != nullptr) {
    RowVersion* v =
        ImrsStore::VisibleVersion(row, txn->begin_ts(), txn->id());
    if (v != nullptr) {
      if (v->is_delete) return Status::NotFound("row deleted");
      out->assign(v->data(), v->data_size);
      row->Touch(Now());
      loc.part->ilm->metrics.reuse_select.Inc();
      imrs_ops_.Inc();
      *from_imrs = true;
      return Status::OK();
    }
    if (row->source == RowSource::kInserted) {
      // Row born in the IMRS after this snapshot: it does not exist yet
      // for this reader, and it has no page-store image.
      return Status::NotFound("row newer than snapshot");
    }
    // Migrated/cached row whose IMRS versions are all newer than the
    // snapshot: the pre-migration page-store image is the visible one.
  }

  // Page-store read under a shared row lock (committed read).
  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(loc.rid.Encode(), LockMode::kShared,
                                         options_.lock_timeout_ms));
  if (row == nullptr) {
    // The row may have migrated into the IMRS while we waited for the lock.
    ImrsRow* row2 = rid_map_.Lookup(loc.rid);
    if (row2 != nullptr) {
      RowVersion* v =
          ImrsStore::VisibleVersion(row2, txn->begin_ts(), txn->id());
      if (v != nullptr) {
        if (v->is_delete) return Status::NotFound("row deleted");
        out->assign(v->data(), v->data_size);
        row2->Touch(Now());
        loc.part->ilm->metrics.reuse_select.Inc();
        imrs_ops_.Inc();
        *from_imrs = true;
        return Status::OK();
      }
      if (row2->source == RowSource::kInserted) {
        return Status::NotFound("row newer than snapshot");
      }
    }
  }
  bool contended = false;
  Status s = loc.part->heap->Read(loc.rid, out, &contended);
  loc.part->ilm->metrics.page_ops.Inc();
  if (contended) loc.part->ilm->metrics.page_contention.Inc();
  if (s.IsNotFound()) {
    // No heap slot: the row's home may be cold-columnar (Pack relocated it
    // there). Still a committed read — cold rows only change under the
    // exclusive row lock our shared lock excludes.
    s = cold_->ReadRow(loc.rid, out);
  }
  if (!s.ok()) return s;
  page_ops_.Inc();
  return Status::OK();
}

void Database::MaybeCacheOnSelect(Transaction* txn, Table* table,
                                  TablePartition* part, Rid rid, Slice pk,
                                  Slice payload) {
  // ILM decision (Sec. IV): point access through the unique index may cache
  // the page-store row in the IMRS in anticipation of re-access.
  if (!ilm_->ShouldCacheOnSelect(part->ilm, /*unique_index_access=*/true)) {
    return;
  }
  if (rid_map_.Lookup(rid) != nullptr) return;
  // Best effort: upgrade to an exclusive lock without waiting.
  if (!txn->TryAcquireLock(rid.Encode(), LockMode::kExclusive).ok()) return;
  if (rid_map_.Lookup(rid) != nullptr) return;  // re-check under the lock
  Status s = InsertToImrs(txn, table, part, rid, payload, pk,
                          RowSource::kCached);
  (void)s;  // NoSpace etc. simply leaves the row on the page store
}

Status Database::SelectByKey(Transaction* txn, Table* table, Slice pk,
                             std::string* out) {
  Located loc;
  BTRIM_RETURN_IF_ERROR(LocateByKey(table, pk, &loc));
  bool from_imrs = false;
  BTRIM_RETURN_IF_ERROR(ReadVisible(txn, table, loc, out, &from_imrs));
  if (!from_imrs) {
    MaybeCacheOnSelect(txn, table, loc.part, loc.rid, pk, Slice(*out));
  }
  return Status::OK();
}

Status Database::UpdateImrsRow(Transaction* txn, Table* table,
                               TablePartition* part, ImrsRow* row,
                               const std::function<void(std::string*)>&
                                   mutator) {
  (void)table;
  // Under the exclusive row lock the chain head is either committed or our
  // own uncommitted version (repeated update inside one transaction).
  RowVersion* head = row->latest.load(std::memory_order_acquire);
  RowVersion* base = nullptr;
  if (head != nullptr &&
      head->commit_ts.load(std::memory_order_acquire) == 0 &&
      head->txn_id == txn->id()) {
    base = head;
  } else {
    base = ImrsStore::LatestCommitted(row);
  }
  if (base == nullptr || base->is_delete) {
    return Status::NotFound("row deleted");
  }

  std::string payload(base->data(), base->data_size);
  mutator(&payload);

  int64_t bytes = 0;
  Result<RowVersion*> added = imrs_->AddVersion(row, Slice(payload),
                                                /*is_delete=*/false,
                                                txn->id(), &bytes);
  if (!added.ok()) return added.status();
  RowVersion* version = *added;

  PartitionState* pstate = part->ilm;
  pstate->metrics.imrs_bytes.Add(bytes);
  pstate->metrics.reuse_update.Inc();
  imrs_ops_.Inc();
  row->Touch(Now());

  txn->AddUndo([this, row, pstate, bytes, txn_id = txn->id()] {
    RowVersion* popped = imrs_->PopUncommitted(row, txn_id);
    if (popped != nullptr) {
      pstate->metrics.imrs_bytes.Sub(bytes);
      gc_->DeferFree(popped, Now());
    }
  });
  txn->AddCommitAction([this, row, version](uint64_t cts) {
    version->commit_ts.store(cts, std::memory_order_release);
    row->Touch(cts);
    gc_->EnqueueCommitted(row, /*newly_created=*/false);
  });

  LogRecord rec;
  rec.type = LogRecordType::kImrsUpdate;
  rec.txn_id = txn->id();
  rec.table_id = row->table_id;
  rec.partition_id = row->partition_id;
  rec.rid = row->rid.Encode();
  rec.after = std::move(payload);
  AppendLogRecord(txn->imrs_redo_buffer(), rec);
  txn->CountImrsRecord();
  return Status::OK();
}

Status Database::UpdatePageStoreRow(Transaction* txn, Table* table,
                                    TablePartition* part, Rid rid, Slice pk,
                                    const std::function<void(std::string*)>&
                                        mutator) {
  std::string before;
  bool contended = false;
  bool cold_home = false;
  Status s = part->heap->Read(rid, &before, &contended);
  part->ilm->metrics.page_ops.Inc();
  if (contended) part->ilm->metrics.page_contention.Inc();
  if (s.IsNotFound() && cold_->ReadRow(rid, &before).ok()) {
    cold_home = true;
    s = Status::OK();
  }
  if (!s.ok()) return s;

  std::string payload = before;
  mutator(&payload);

  // ILM decision (Sec. IV): a point update of a page-store row migrates it
  // into the IMRS (unique-index access anticipates re-access; observed page
  // contention argues the same way).
  if (ilm_->ShouldMigrateOnUpdate(part->ilm, /*unique_index_access=*/true,
                                  contended)) {
    Status ms = InsertToImrs(txn, table, part, rid, Slice(payload), pk,
                             RowSource::kMigrated);
    if (ms.ok()) {
      imrs_ops_.Inc();
      return Status::OK();
    }
    if (!ms.IsNoSpace()) return ms;
  }

  if (cold_home) {
    // A written cold row turns hot again: erase the cold home (logged) and
    // give the new image a heap slot. Keeping updates out of the cold store
    // means it only ever holds committed images, which is what lets the
    // HTAP scan read segments and staged rows lock-free.
    LogRecord erase;
    erase.type = LogRecordType::kColdErase;
    erase.txn_id = txn->id();
    erase.table_id = table->id();
    erase.partition_id = part->ilm->partition_id;
    erase.rid = rid.Encode();
    erase.before = before;
    BTRIM_RETURN_IF_ERROR(syslogs_->AppendRecord(erase));
    txn->MarkPageStoreChange();
    cold_->Erase(rid);
    txn->AddUndo([this, table_id = table->id(),
                  partition_id = part->ilm->partition_id, rid, before] {
      Status st = cold_->Place(table_id, partition_id, rid, Slice(before));
      (void)st;
    });
    Status ps = InsertToPageStore(txn, table, part, rid, Slice(payload));
    if (ps.ok()) page_ops_.Inc();
    return ps;
  }

  // In-place page-store update (redo-undo logged).
  LogRecord rec;
  rec.type = LogRecordType::kPsUpdate;
  rec.txn_id = txn->id();
  rec.table_id = table->id();
  rec.partition_id = part->ilm->partition_id;
  rec.rid = rid.Encode();
  rec.before = before;
  rec.after = payload;
  BTRIM_RETURN_IF_ERROR(syslogs_->AppendRecord(rec));
  txn->MarkPageStoreChange();

  bool contended2 = false;
  s = part->heap->Update(rid, Slice(payload), &contended2);
  if (contended2) part->ilm->metrics.page_contention.Inc();
  if (!s.ok()) return s;
  page_ops_.Inc();

  HeapFile* heap = part->heap.get();
  txn->AddUndo([heap, rid, before] {
    Status st = heap->Update(rid, Slice(before));
    (void)st;
  });
  return Status::OK();
}

Status Database::Update(Transaction* txn, Table* table, Slice pk,
                        const std::function<void(std::string*)>& mutator) {
  Located loc;
  BTRIM_RETURN_IF_ERROR(LocateByKey(table, pk, &loc));
  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(loc.rid.Encode(),
                                         LockMode::kExclusive,
                                         options_.lock_timeout_ms));
  // Residency may have changed while waiting for the lock (migration by
  // another transaction, or Pack relocating the row) — re-resolve.
  ImrsRow* row = rid_map_.Lookup(loc.rid);
  if (row != nullptr) {
    return UpdateImrsRow(txn, table, loc.part, row, mutator);
  }
  return UpdatePageStoreRow(txn, table, loc.part, loc.rid, pk, mutator);
}

Status Database::Delete(Transaction* txn, Table* table, Slice pk) {
  Located loc;
  BTRIM_RETURN_IF_ERROR(LocateByKey(table, pk, &loc));
  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(loc.rid.Encode(),
                                         LockMode::kExclusive,
                                         options_.lock_timeout_ms));
  ImrsRow* row = rid_map_.Lookup(loc.rid);

  if (row != nullptr) {
    RowVersion* head = row->latest.load(std::memory_order_acquire);
    RowVersion* base = nullptr;
    if (head != nullptr &&
        head->commit_ts.load(std::memory_order_acquire) == 0 &&
        head->txn_id == txn->id()) {
      base = head;
    } else {
      base = ImrsStore::LatestCommitted(row);
    }
    if (base == nullptr || base->is_delete) {
      return Status::NotFound("row deleted");
    }
    // The delete marker carries the final payload so GC's purge can rebuild
    // the index keys (see Database::PurgePageStoreHome).
    const std::string payload(base->data(), base->data_size);
    int64_t bytes = 0;
    Result<RowVersion*> added = imrs_->AddVersion(row, Slice(payload),
                                                  /*is_delete=*/true,
                                                  txn->id(), &bytes);
    if (!added.ok()) return added.status();
    RowVersion* version = *added;

    PartitionState* pstate = loc.part->ilm;
    pstate->metrics.imrs_bytes.Add(bytes);
    pstate->metrics.reuse_delete.Inc();
    imrs_ops_.Inc();

    txn->AddUndo([this, row, pstate, bytes, txn_id = txn->id()] {
      RowVersion* popped = imrs_->PopUncommitted(row, txn_id);
      if (popped != nullptr) {
        pstate->metrics.imrs_bytes.Sub(bytes);
        gc_->DeferFree(popped, Now());
      }
    });
    HashIndex<ImrsRow*>* hash = table->hash_index();
    const std::string pk_copy = pk.ToString();
    txn->AddCommitAction([this, row, version, hash, pk_copy](uint64_t cts) {
      version->commit_ts.store(cts, std::memory_order_release);
      // A newer row may already own the key (delete -> reinsert): only
      // drop the mapping if it is still this row's.
      if (hash != nullptr) hash->EraseIf(Slice(pk_copy), row);
      gc_->EnqueueCommitted(row, /*newly_created=*/false);
    });

    LogRecord rec;
    rec.type = LogRecordType::kImrsDelete;
    rec.txn_id = txn->id();
    rec.table_id = row->table_id;
    rec.partition_id = row->partition_id;
    rec.rid = row->rid.Encode();
    rec.before = payload;
    AppendLogRecord(txn->imrs_redo_buffer(), rec);
    txn->CountImrsRecord();
    return Status::OK();
  }

  // Page-store delete.
  std::string before;
  bool contended = false;
  Status s = loc.part->heap->Read(loc.rid, &before, &contended);
  loc.part->ilm->metrics.page_ops.Inc();
  if (contended) loc.part->ilm->metrics.page_contention.Inc();
  if (s.IsNotFound() && cold_->ReadRow(loc.rid, &before).ok()) {
    // Cold-columnar home: logged erase, undo re-places the image, index
    // entries drop at commit like the heap path.
    LogRecord erase;
    erase.type = LogRecordType::kColdErase;
    erase.txn_id = txn->id();
    erase.table_id = table->id();
    erase.partition_id = loc.part->ilm->partition_id;
    erase.rid = loc.rid.Encode();
    erase.before = before;
    BTRIM_RETURN_IF_ERROR(syslogs_->AppendRecord(erase));
    txn->MarkPageStoreChange();
    cold_->Erase(loc.rid);
    page_ops_.Inc();
    txn->AddUndo([this, table_id = table->id(),
                  partition_id = loc.part->ilm->partition_id, rid = loc.rid,
                  before] {
      Status st = cold_->Place(table_id, partition_id, rid, Slice(before));
      (void)st;
    });
    const std::string pk_cold = pk.ToString();
    txn->AddCommitAction(
        [this, table, before, pk_cold, rid = loc.rid](uint64_t) {
          RemoveIndexEntries(table, Slice(before), Slice(pk_cold), rid);
        });
    return Status::OK();
  }
  if (!s.ok()) return s;

  LogRecord rec;
  rec.type = LogRecordType::kPsDelete;
  rec.txn_id = txn->id();
  rec.table_id = table->id();
  rec.partition_id = loc.part->ilm->partition_id;
  rec.rid = loc.rid.Encode();
  rec.before = before;
  BTRIM_RETURN_IF_ERROR(syslogs_->AppendRecord(rec));
  txn->MarkPageStoreChange();

  BTRIM_RETURN_IF_ERROR(loc.part->heap->Delete(loc.rid));
  page_ops_.Inc();

  HeapFile* heap = loc.part->heap.get();
  txn->AddUndo([heap, rid = loc.rid, before] {
    Status st = heap->Place(rid, Slice(before));
    (void)st;
  });
  // Index entries disappear when the delete commits (lock-based committed
  // reads on page-store rows make this safe; see DESIGN.md).
  const std::string pk_copy = pk.ToString();
  txn->AddCommitAction(
      [this, table, before, pk_copy, rid = loc.rid](uint64_t) {
        RemoveIndexEntries(table, Slice(before), Slice(pk_copy), rid);
      });
  return Status::OK();
}

Status Database::ScanIndex(Transaction* txn, Table* table, int index_no,
                           Slice lower, Slice upper, size_t limit,
                           std::vector<ScanRow>* out) {
  BTree* tree = index_no < 0
                    ? table->primary_index()
                    : table->secondaries()[static_cast<size_t>(index_no)]
                          .tree.get();
  std::vector<std::pair<std::string, uint64_t>> entries;
  BTRIM_RETURN_IF_ERROR(tree->Scan(lower, upper, limit, &entries));

  for (const auto& [key, rid_enc] : entries) {
    const Rid rid = Rid::Decode(rid_enc);
    TablePartition* part = table->PartitionForRid(rid);
    if (part == nullptr) continue;
    Located loc;
    loc.row = rid_map_.Lookup(rid);
    loc.rid = rid;
    loc.part = part;

    ScanRow row;
    row.rid = rid;
    Status s = ReadVisible(txn, table, loc, &row.payload, &row.from_imrs);
    if (s.IsNotFound()) continue;  // invisible to this snapshot
    if (!s.ok()) return s;
    out->push_back(std::move(row));
    if (limit != 0 && out->size() >= limit) break;
  }
  return Status::OK();
}

}  // namespace btrim
