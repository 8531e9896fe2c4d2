// Unit tests for the lock manager and transaction manager.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "metric_reader.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace btrim {
namespace {

// --- LockManager ------------------------------------------------------------

class LockManagerTest : public ::testing::Test {
 protected:
  LockManager lm_;
  MetricReader stats_{lm_};
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  ASSERT_TRUE(lm_.Acquire(1, 100, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 100, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.Holds(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm_.Holds(2, 100, LockMode::kShared));
  lm_.Release(1, 100);
  lm_.Release(2, 100);
}

TEST_F(LockManagerTest, ExclusiveExcludesOthers) {
  ASSERT_TRUE(lm_.Acquire(1, 100, LockMode::kExclusive, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(2, 100, LockMode::kShared).IsBusy());
  EXPECT_TRUE(lm_.TryAcquire(2, 100, LockMode::kExclusive).IsBusy());
  lm_.Release(1, 100);
  EXPECT_TRUE(lm_.TryAcquire(2, 100, LockMode::kExclusive).ok());
  lm_.Release(2, 100);
}

TEST_F(LockManagerTest, SharedBlocksExclusive) {
  ASSERT_TRUE(lm_.Acquire(1, 7, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(2, 7, LockMode::kExclusive).IsBusy());
  lm_.Release(1, 7);
}

TEST_F(LockManagerTest, ReentrantAcquisition) {
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kShared, 10).ok());
  lm_.Release(1, 5);
  EXPECT_FALSE(lm_.Holds(1, 5, LockMode::kShared));
}

TEST_F(LockManagerTest, UpgradeWhenSoleHolder) {
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kExclusive, 10).ok());
  EXPECT_TRUE(lm_.Holds(1, 5, LockMode::kExclusive));
  lm_.Release(1, 5);
}

TEST_F(LockManagerTest, UpgradeBlockedByOtherReader) {
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 5, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(1, 5, LockMode::kExclusive).IsBusy());
  lm_.Release(2, 5);
  EXPECT_TRUE(lm_.TryAcquire(1, 5, LockMode::kExclusive).ok());
  lm_.Release(1, 5);
}

TEST_F(LockManagerTest, TimeoutReturnsAborted) {
  ASSERT_TRUE(lm_.Acquire(1, 9, LockMode::kExclusive, 10).ok());
  Status s = lm_.Acquire(2, 9, LockMode::kExclusive, 50);
  EXPECT_TRUE(s.IsAborted());
  EXPECT_GE(stats_.Value("locks.timeouts"), 1);
  lm_.Release(1, 9);
}

TEST_F(LockManagerTest, BlockedAcquireWakesOnRelease) {
  ASSERT_TRUE(lm_.Acquire(1, 3, LockMode::kExclusive, 10).ok());
  std::thread waiter([&] {
    Status s = lm_.Acquire(2, 3, LockMode::kExclusive, 5000);
    EXPECT_TRUE(s.ok());
    lm_.Release(2, 3);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.Release(1, 3);
  waiter.join();
  EXPECT_GE(stats_.Value("locks.waits"), 1);
}

TEST_F(LockManagerTest, PendingUpgradeBlocksNewSharedGrants) {
  // Regression: a shared->exclusive upgrader must not starve behind a
  // steady stream of new shared grants. Once txn 2's blocking upgrade is
  // waiting, a *new* shared request from txn 3 is refused until the
  // upgrade resolves.
  ASSERT_TRUE(lm_.Acquire(1, 7, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 7, LockMode::kShared, 10).ok());
  const int64_t waits_before = stats_.Value("locks.waits");
  std::thread upgrader([&] {
    Status s = lm_.Acquire(2, 7, LockMode::kExclusive, 5000);
    EXPECT_TRUE(s.ok());
  });
  // Wait until the upgrade is registered (it counts as a blocked wait).
  while (stats_.Value("locks.waits") == waits_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(lm_.TryAcquire(3, 7, LockMode::kShared).IsBusy());
  EXPECT_TRUE(lm_.Acquire(3, 7, LockMode::kShared, 50).IsAborted());
  lm_.Release(1, 7);  // last other reader drains; upgrade grants
  upgrader.join();
  EXPECT_TRUE(lm_.Holds(2, 7, LockMode::kExclusive));
  // Upgrade resolved: shared requests flow again once 2 releases.
  lm_.Release(2, 7);
  EXPECT_TRUE(lm_.Acquire(3, 7, LockMode::kShared, 10).ok());
  lm_.Release(3, 7);
}

TEST_F(LockManagerTest, DeniedTryUpgradeDoesNotBlockReaders) {
  // TryAcquire never registers upgrade intent: a Pack-style conditional
  // upgrade that loses must leave no pending claim behind.
  ASSERT_TRUE(lm_.Acquire(1, 8, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 8, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(1, 8, LockMode::kExclusive).IsBusy());
  EXPECT_TRUE(lm_.Acquire(3, 8, LockMode::kShared, 10).ok());
  lm_.Release(1, 8);
  lm_.Release(2, 8);
  lm_.Release(3, 8);
}

TEST_F(LockManagerTest, FastPathGrantsAreCounted) {
  // Uncontended exclusive locks take the atomic fast path.
  ASSERT_TRUE(lm_.Acquire(1, 100, LockMode::kExclusive, 10).ok());
  lm_.Release(1, 100);
  ASSERT_TRUE(lm_.TryAcquire(2, 100, LockMode::kExclusive).ok());
  lm_.Release(2, 100);
  EXPECT_GE(stats_.Value("locks.fast_grants"), 2);
}

TEST_F(LockManagerTest, DistinctLocksDontInterfere) {
  ASSERT_TRUE(lm_.Acquire(1, 1, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 2, LockMode::kExclusive, 10).ok());
  lm_.Release(1, 1);
  lm_.Release(2, 2);
}

TEST_F(LockManagerTest, ConcurrentExclusiveCounting) {
  // N threads increment a counter under the same lock; mutual exclusion
  // implies an exact final count.
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t txn = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(lm_.Acquire(txn, 77, LockMode::kExclusive, 10000).ok());
        ++counter;
        lm_.Release(txn, 77);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

// --- TransactionManager --------------------------------------------------------

class TransactionManagerTest : public ::testing::Test {
 protected:
  TransactionManagerTest() : tm_(&lm_) {}
  LockManager lm_;
  TransactionManager tm_;
};

TEST_F(TransactionManagerTest, CommitAdvancesClockAndStampsTxn) {
  auto txn = tm_.Begin();
  EXPECT_EQ(txn->begin_ts(), 0u);
  EXPECT_EQ(txn->state(), TxnState::kActive);
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(txn->commit_ts(), 1u);
  EXPECT_EQ(tm_.CurrentTimestamp(), 1u);

  auto txn2 = tm_.Begin();
  EXPECT_EQ(txn2->begin_ts(), 1u);
  ASSERT_TRUE(tm_.Commit(txn2.get()).ok());
  EXPECT_EQ(txn2->commit_ts(), 2u);
}

TEST_F(TransactionManagerTest, SeesRespectsSnapshot) {
  auto t1 = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());  // cts 1
  auto t2 = tm_.Begin();                   // snapshot 1
  EXPECT_TRUE(t2->Sees(1));
  EXPECT_FALSE(t2->Sees(2));
  EXPECT_FALSE(t2->Sees(0));  // 0 = uncommitted
  ASSERT_TRUE(tm_.Abort(t2.get()).ok());
}

TEST_F(TransactionManagerTest, CommitActionsReceiveCommitTs) {
  auto txn = tm_.Begin();
  uint64_t seen_cts = 0;
  txn->AddCommitAction([&](uint64_t cts) { seen_cts = cts; });
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  EXPECT_EQ(seen_cts, txn->commit_ts());
}

TEST_F(TransactionManagerTest, UndoActionsRunInReverseOnAbort) {
  auto txn = tm_.Begin();
  std::vector<int> order;
  txn->AddUndo([&] { order.push_back(1); });
  txn->AddUndo([&] { order.push_back(2); });
  txn->AddUndo([&] { order.push_back(3); });
  ASSERT_TRUE(tm_.Abort(txn.get()).ok());
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(txn->state(), TxnState::kAborted);
}

TEST_F(TransactionManagerTest, UndoActionsSkippedOnCommit) {
  auto txn = tm_.Begin();
  bool undone = false;
  txn->AddUndo([&] { undone = true; });
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  EXPECT_FALSE(undone);
}

TEST_F(TransactionManagerTest, CommitActionsSkippedOnAbort) {
  auto txn = tm_.Begin();
  bool committed_action = false;
  txn->AddCommitAction([&](uint64_t) { committed_action = true; });
  ASSERT_TRUE(tm_.Abort(txn.get()).ok());
  EXPECT_FALSE(committed_action);
}

TEST_F(TransactionManagerTest, DurabilityHookFailureAborts) {
  auto txn = tm_.Begin();
  bool undone = false;
  txn->AddUndo([&] { undone = true; });
  Status s = tm_.Commit(txn.get(), [](Transaction*, uint64_t) {
    return Status::IOError("log device gone");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(undone);
}

TEST_F(TransactionManagerTest, DurabilityHookSeesCommitTs) {
  auto txn = tm_.Begin();
  uint64_t hook_cts = 0;
  ASSERT_TRUE(tm_.Commit(txn.get(),
                         [&](Transaction* t, uint64_t cts) {
                           hook_cts = cts;
                           EXPECT_EQ(t->commit_ts(), cts);
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(hook_cts, 1u);
}

TEST_F(TransactionManagerTest, LocksReleasedAtCommitAndAbort) {
  auto t1 = tm_.Begin();
  ASSERT_TRUE(t1->AcquireLock(55, LockMode::kExclusive, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(9999, 55, LockMode::kShared).IsBusy());
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  EXPECT_TRUE(lm_.TryAcquire(9999, 55, LockMode::kShared).ok());
  lm_.Release(9999, 55);

  auto t2 = tm_.Begin();
  ASSERT_TRUE(t2->AcquireLock(56, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(tm_.Abort(t2.get()).ok());
  EXPECT_TRUE(lm_.TryAcquire(9999, 56, LockMode::kShared).ok());
  lm_.Release(9999, 56);
}

TEST_F(TransactionManagerTest, DoubleFinishRejected) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  EXPECT_TRUE(tm_.Commit(txn.get()).IsInvalidArgument());
  EXPECT_TRUE(tm_.Abort(txn.get()).IsInvalidArgument());
}

TEST_F(TransactionManagerTest, OldestActiveSnapshotTracksActiveSet) {
  // No active transactions: horizon is "now".
  EXPECT_EQ(tm_.OldestActiveSnapshot(), 0u);
  auto t1 = tm_.Begin();  // snapshot 0
  auto bump = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(bump.get()).ok());  // clock -> 1
  auto t2 = tm_.Begin();                     // snapshot 1
  EXPECT_EQ(tm_.OldestActiveSnapshot(), 0u);
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  EXPECT_EQ(tm_.OldestActiveSnapshot(), 1u);
  ASSERT_TRUE(tm_.Commit(t2.get()).ok());
  EXPECT_EQ(tm_.OldestActiveSnapshot(), tm_.CurrentTimestamp());
}

TEST_F(TransactionManagerTest, StatsCountOutcomes) {
  auto a = tm_.Begin();
  auto b = tm_.Begin();
  auto c = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(a.get()).ok());
  ASSERT_TRUE(tm_.Abort(b.get()).ok());
  MetricReader s(tm_);
  EXPECT_EQ(s.Value("txn.begun"), 3);
  EXPECT_EQ(s.Value("txn.committed"), 1);
  EXPECT_EQ(s.Value("txn.aborted"), 1);
  EXPECT_EQ(s.Value("txn.active"), 1);
  ASSERT_TRUE(tm_.Commit(c.get()).ok());
}

TEST_F(TransactionManagerTest, ConcurrentCommitsGetUniqueTimestamps) {
  constexpr int kThreads = 4;
  constexpr int kTxns = 2000;
  std::vector<std::vector<uint64_t>> cts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxns; ++i) {
        auto txn = tm_.Begin();
        ASSERT_TRUE(tm_.Commit(txn.get()).ok());
        cts[t].push_back(txn->commit_ts());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> all;
  for (auto& v : cts) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kTxns));
}

}  // namespace
}  // namespace btrim
