// Unit tests for the In-Memory Row Store: versioned rows, the RID-map,
// snapshot visibility, and garbage collection.

#include <vector>

#include <gtest/gtest.h>

#include "imrs/gc.h"
#include "imrs/rid_map.h"
#include "imrs/store.h"
#include "metric_reader.h"

namespace btrim {
namespace {

constexpr Rid kRid{1, 0, 0};

class ImrsStoreTest : public ::testing::Test {
 protected:
  ImrsStoreTest() : alloc_(8 << 20), store_(&alloc_, &map_) {}

  /// Commits the head version of `row` at timestamp `cts`.
  static void Stamp(ImrsRow* row, uint64_t cts) {
    row->latest.load()->commit_ts.store(cts);
  }

  FragmentAllocator alloc_;
  RidMap map_;
  ImrsStore store_;
};

TEST_F(ImrsStoreTest, CreateRowRegistersInRidMap) {
  int64_t bytes = 0;
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "data", 10, 5, &bytes);
  ASSERT_TRUE(row.ok());
  EXPECT_GT(bytes, 0);
  EXPECT_EQ(map_.Lookup(kRid), *row);
  EXPECT_EQ((*row)->rid, kRid);
  EXPECT_EQ((*row)->source, RowSource::kInserted);
  EXPECT_EQ((*row)->last_access_ts.load(), 5u);
}

TEST_F(ImrsStoreTest, UncommittedVersionVisibleOnlyToOwner) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", /*txn=*/10, 0);
  ASSERT_TRUE(row.ok());
  // Owner sees its own write; others see nothing.
  EXPECT_NE(ImrsStore::VisibleVersion(*row, 100, 10), nullptr);
  EXPECT_EQ(ImrsStore::VisibleVersion(*row, 100, 11), nullptr);
  EXPECT_EQ(ImrsStore::LatestCommitted(*row), nullptr);
}

TEST_F(ImrsStoreTest, SnapshotVisibilityByTimestamp) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", 10, 0);
  ASSERT_TRUE(row.ok());
  Stamp(*row, 5);

  // Readers at or after cts 5 see it; earlier snapshots don't.
  EXPECT_NE(ImrsStore::VisibleVersion(*row, 5, 99), nullptr);
  EXPECT_NE(ImrsStore::VisibleVersion(*row, 6, 99), nullptr);
  EXPECT_EQ(ImrsStore::VisibleVersion(*row, 4, 99), nullptr);
}

TEST_F(ImrsStoreTest, VersionChainServesEachSnapshotItsVersion) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", 10, 0);
  ASSERT_TRUE(row.ok());
  Stamp(*row, 5);
  ASSERT_TRUE(store_.AddVersion(*row, "v2", false, 11).ok());
  Stamp(*row, 8);
  ASSERT_TRUE(store_.AddVersion(*row, "v3", false, 12).ok());
  Stamp(*row, 12);

  auto payload_at = [&](uint64_t snapshot) {
    RowVersion* v = ImrsStore::VisibleVersion(*row, snapshot, 99);
    return v == nullptr ? std::string("<none>") : v->payload().ToString();
  };
  EXPECT_EQ(payload_at(4), "<none>");
  EXPECT_EQ(payload_at(5), "v1");
  EXPECT_EQ(payload_at(7), "v1");
  EXPECT_EQ(payload_at(8), "v2");
  EXPECT_EQ(payload_at(11), "v2");
  EXPECT_EQ(payload_at(12), "v3");
  EXPECT_EQ(payload_at(100), "v3");
}

TEST_F(ImrsStoreTest, DeleteMarkerVisibility) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", 10, 0);
  ASSERT_TRUE(row.ok());
  Stamp(*row, 5);
  ASSERT_TRUE(store_.AddVersion(*row, "v1", /*is_delete=*/true, 11).ok());
  Stamp(*row, 9);

  RowVersion* before = ImrsStore::VisibleVersion(*row, 8, 99);
  ASSERT_NE(before, nullptr);
  EXPECT_FALSE(before->is_delete);
  RowVersion* after = ImrsStore::VisibleVersion(*row, 9, 99);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->is_delete);
  // The marker retains the payload (purge needs it for index keys).
  EXPECT_EQ(after->payload().ToString(), "v1");
}

TEST_F(ImrsStoreTest, LatestCommittedSkipsUncommittedHead) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", 10, 0);
  ASSERT_TRUE(row.ok());
  Stamp(*row, 5);
  ASSERT_TRUE(store_.AddVersion(*row, "v2-uncommitted", false, 22).ok());
  RowVersion* committed = ImrsStore::LatestCommitted(*row);
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->payload().ToString(), "v1");
}

TEST_F(ImrsStoreTest, PopUncommittedRestoresChain) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", 10, 0);
  ASSERT_TRUE(row.ok());
  Stamp(*row, 5);
  ASSERT_TRUE(store_.AddVersion(*row, "v2", false, 22).ok());

  // A different transaction can't pop it; the owner can.
  EXPECT_EQ(store_.PopUncommitted(*row, 23), nullptr);
  RowVersion* popped = store_.PopUncommitted(*row, 22);
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->payload().ToString(), "v2");
  store_.FreeVersion(popped);
  EXPECT_EQ(ImrsStore::LatestCommitted(*row)->payload().ToString(), "v1");
  // Nothing left to pop.
  EXPECT_EQ(store_.PopUncommitted(*row, 22), nullptr);
}

TEST_F(ImrsStoreTest, NoSpaceWhenCacheFull) {
  FragmentAllocator tiny(4096);
  ImrsStore store(&tiny, &map_);
  std::vector<ImrsRow*> rows;
  uint32_t n = 0;
  while (true) {
    Result<ImrsRow*> row = store.CreateRow(Rid{1, 0, static_cast<uint16_t>(n)},
                                           1, 0, RowSource::kInserted,
                                           std::string(200, 'x'), 1, 0);
    if (!row.ok()) {
      EXPECT_TRUE(row.status().IsNoSpace());
      break;
    }
    rows.push_back(*row);
    ++n;
  }
  EXPECT_GT(rows.size(), 0u);
}

TEST_F(ImrsStoreTest, RowFootprintCountsChain) {
  Result<ImrsRow*> row =
      store_.CreateRow(kRid, 1, 0, RowSource::kInserted, "v1", 10, 0);
  ASSERT_TRUE(row.ok());
  const int64_t single = ImrsStore::RowFootprint(*row);
  ASSERT_TRUE(store_.AddVersion(*row, "v2", false, 11).ok());
  EXPECT_GT(ImrsStore::RowFootprint(*row), single);
}

// --- RidMap -----------------------------------------------------------------------

TEST(RidMapTest, InsertLookupErase) {
  RidMap map;
  ImrsRow row;
  map.Insert(kRid, &row);
  EXPECT_EQ(map.Lookup(kRid), &row);
  EXPECT_EQ(map.Size(), 1);
  EXPECT_TRUE(map.Erase(kRid));
  EXPECT_FALSE(map.Erase(kRid));
  EXPECT_EQ(map.Lookup(kRid), nullptr);
}

TEST(RidMapTest, ManyEntriesAcrossStripes) {
  RidMap map(16);
  std::vector<ImrsRow> rows(1000);
  for (uint32_t i = 0; i < 1000; ++i) {
    map.Insert(Rid{1, i, 0}, &rows[i]);
  }
  EXPECT_EQ(map.Size(), 1000);
  for (uint32_t i = 0; i < 1000; i += 13) {
    EXPECT_EQ(map.Lookup(Rid{1, i, 0}), &rows[i]);
  }
  int seen = 0;
  map.ForEach([&](Rid, ImrsRow*) { ++seen; });
  EXPECT_EQ(seen, 1000);
}

// --- GC ----------------------------------------------------------------------------

class GcTest : public ::testing::Test {
 protected:
  GcTest() : alloc_(8 << 20), store_(&alloc_, &map_) {
    GcHooks hooks;
    hooks.enqueue_to_ilm_queue = [this](ImrsRow* row) {
      row->SetFlag(kRowInQueue);
      ++enqueued_;
    };
    hooks.unlink_from_ilm_queue = [this](ImrsRow* row) {
      row->ClearFlag(kRowInQueue);
      ++unlinked_;
    };
    hooks.purge_page_store_home = [this](ImrsRow*) {
      ++purge_calls_;
      return purge_allowed_;
    };
    hooks.on_freed = [this](uint32_t, uint32_t, int64_t bytes, int64_t rows) {
      freed_bytes_ += bytes;
      freed_rows_ += rows;
    };
    gc_ = std::make_unique<ImrsGc>(&store_, std::move(hooks));
  }

  ImrsRow* MakeCommittedRow(uint16_t slot, uint64_t cts) {
    Result<ImrsRow*> row = store_.CreateRow(Rid{1, 0, slot}, 1, 0,
                                            RowSource::kInserted, "v1", 1, cts);
    EXPECT_TRUE(row.ok());
    (*row)->latest.load()->commit_ts.store(cts);
    return *row;
  }

  void AddCommittedVersion(ImrsRow* row, const std::string& data, uint64_t cts,
                           bool is_delete = false) {
    Result<RowVersion*> v = store_.AddVersion(row, data, is_delete, 1);
    ASSERT_TRUE(v.ok());
    (*v)->commit_ts.store(cts);
  }

  int64_t GcMetric(const std::string& name) const {
    return MetricReader(*gc_).Value(name);
  }

  FragmentAllocator alloc_;
  RidMap map_;
  ImrsStore store_;
  std::unique_ptr<ImrsGc> gc_;
  int enqueued_ = 0;
  int unlinked_ = 0;
  int purge_calls_ = 0;
  bool purge_allowed_ = true;
  int64_t freed_bytes_ = 0;
  int64_t freed_rows_ = 0;
};

TEST_F(GcTest, NewRowIsEnqueuedToIlmQueue) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  gc_->EnqueueCommitted(row, /*newly_created=*/true);
  gc_->RunOnce(/*oldest_snapshot=*/10, /*now=*/10);
  EXPECT_EQ(enqueued_, 1);
  EXPECT_TRUE(row->HasFlag(kRowInQueue));
}

TEST_F(GcTest, OldVersionsTrimmedPastHorizon) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  AddCommittedVersion(row, "v2", 5);
  AddCommittedVersion(row, "v3", 9);
  gc_->EnqueueCommitted(row, false);

  // Horizon at 9: v3 is the pivot; v2 and v1 are unreachable.
  gc_->RunOnce(9, 10);
  EXPECT_EQ(GcMetric("gc.versions_freed"), 2);
  RowVersion* head = row->latest.load();
  EXPECT_EQ(head->payload().ToString(), "v3");
  EXPECT_EQ(head->older.load(), nullptr);
  EXPECT_GT(freed_bytes_, 0);
}

TEST_F(GcTest, VersionsProtectedByOldSnapshotsKept) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  AddCommittedVersion(row, "v2", 5);
  gc_->EnqueueCommitted(row, false);

  // A reader at snapshot 3 still needs v1.
  gc_->RunOnce(3, 10);
  EXPECT_EQ(GcMetric("gc.versions_freed"), 0);
  EXPECT_NE(row->latest.load()->older.load(), nullptr);

  // Once the horizon passes 5, v1 goes (the row was re-queued internally).
  gc_->RunOnce(5, 11);
  EXPECT_EQ(GcMetric("gc.versions_freed"), 1);
}

TEST_F(GcTest, DeadRowPurgedAfterHorizon) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  row->SetFlag(kRowInQueue);  // simulate queue membership
  AddCommittedVersion(row, "v1", 5, /*is_delete=*/true);
  gc_->EnqueueCommitted(row, false);

  gc_->RunOnce(/*oldest_snapshot=*/6, /*now=*/7);
  EXPECT_EQ(purge_calls_, 1);
  EXPECT_EQ(unlinked_, 1);
  EXPECT_EQ(freed_rows_, 1);
  EXPECT_EQ(map_.Lookup(Rid{1, 0, 0}), nullptr);
  EXPECT_TRUE(row->HasFlag(kRowPurged));

  // Memory is deferred until the horizon passes the purge time.
  EXPECT_GT(GcMetric("gc.deferred_pending"), 0);
  const int64_t in_use_before = alloc_.InUseBytes();
  gc_->RunOnce(/*oldest_snapshot=*/8, /*now=*/9);
  EXPECT_LT(alloc_.InUseBytes(), in_use_before);
  EXPECT_EQ(GcMetric("gc.deferred_pending"), 0);
}

TEST_F(GcTest, PurgeRetriesWhenPageStoreBusy) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  AddCommittedVersion(row, "v1", 5, /*is_delete=*/true);
  gc_->EnqueueCommitted(row, false);

  purge_allowed_ = false;
  gc_->RunOnce(6, 7);
  EXPECT_EQ(purge_calls_, 1);
  EXPECT_FALSE(row->HasFlag(kRowPurged));
  EXPECT_NE(map_.Lookup(Rid{1, 0, 0}), nullptr);

  purge_allowed_ = true;
  gc_->RunOnce(6, 8);
  EXPECT_EQ(purge_calls_, 2);
  EXPECT_TRUE(row->HasFlag(kRowPurged));
}

TEST_F(GcTest, LiveRowNotPurged) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  gc_->EnqueueCommitted(row, false);
  gc_->RunOnce(100, 100);
  EXPECT_EQ(purge_calls_, 0);
  EXPECT_NE(map_.Lookup(Rid{1, 0, 0}), nullptr);
}

TEST_F(GcTest, PackedRowsAreSkipped) {
  ImrsRow* row = MakeCommittedRow(0, 1);
  row->SetFlag(kRowPacked);
  gc_->EnqueueCommitted(row, true);
  gc_->RunOnce(100, 100);
  EXPECT_EQ(enqueued_, 0);
  EXPECT_EQ(GcMetric("gc.versions_freed"), 0);
}

TEST_F(GcTest, DeferFreeWaitsForHorizon) {
  void* frag = alloc_.Allocate(128);
  ASSERT_NE(frag, nullptr);
  const int64_t in_use = alloc_.InUseBytes();
  gc_->DeferFree(frag, /*not_before_ts=*/10);
  gc_->RunOnce(/*oldest_snapshot=*/10, 10);  // 10 < 10 is false -> kept
  EXPECT_EQ(alloc_.InUseBytes(), in_use);
  gc_->RunOnce(/*oldest_snapshot=*/11, 11);
  EXPECT_LT(alloc_.InUseBytes(), in_use);
}

TEST_F(GcTest, MaxItemsBoundsWork) {
  for (uint16_t i = 0; i < 10; ++i) {
    gc_->EnqueueCommitted(MakeCommittedRow(i, 1), true);
  }
  EXPECT_EQ(gc_->RunOnce(100, 100, /*max_items=*/3), 3);
  EXPECT_EQ(GcMetric("gc.work_pending"), 7);
  EXPECT_EQ(gc_->RunOnce(100, 100), 7);
}

}  // namespace
}  // namespace btrim
