// Unit tests for the deterministic fault-injection layer: FaultPlan
// scripting, the FaultyDevice / FaultyLogStorage decorators, error
// propagation through the buffer cache and Log, and the stats contracts
// under injected failures (only operations that succeed end-to-end count).

#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_plan.h"
#include "metric_reader.h"
#include "page/buffer_cache.h"
#include "page/device.h"
#include "page/faulty_device.h"
#include "wal/faulty_log_storage.h"
#include "wal/log.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlanTest, OpIndexingIsGlobalAcrossTargets) {
  FaultPlan plan(1);
  EXPECT_EQ(plan.OnOp("a", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("b", FaultOp::kSync), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("a", FaultOp::kRead), FaultOutcome::kNone);
  EXPECT_EQ(plan.ops_seen(), 3u);
}

TEST(FaultPlanTest, FailAtOpFiresExactlyOnce) {
  FaultPlan plan(1);
  plan.FailAtOp(1);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kWrite), FaultOutcome::kError);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.GetStats().errors_injected, 1);
}

TEST(FaultPlanTest, CrashIsSticky) {
  FaultPlan plan(1);
  plan.CrashAtOp(0);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kSync), FaultOutcome::kCrash);
  EXPECT_TRUE(plan.crashed());
  FaultPlanStats stats = plan.GetStats();
  EXPECT_TRUE(stats.crashed);
  EXPECT_EQ(stats.crash_op, 0u);
}

TEST(FaultPlanTest, FailNthFiltersByOpKindAndTarget) {
  FaultPlan plan(1);
  plan.FailNth(FaultOp::kWrite, "heap", 2);
  // Non-matching kind and target never advance the trigger.
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kRead), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("kv.pk.1", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kWrite), FaultOutcome::kError);
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kWrite), FaultOutcome::kNone);
}

TEST(FaultPlanTest, SameSeedSameOutcomes) {
  auto run = [](uint64_t seed) {
    FaultPlan plan(seed);
    plan.SetErrorProbability(FaultOp::kWrite, 0.3);
    std::string outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(
          plan.OnOp("t", FaultOp::kWrite) == FaultOutcome::kNone ? '.' : 'E');
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

TEST(FaultPlanTest, TraceRecordsOpsAndTargets) {
  FaultPlan plan(1);
  plan.EnableTrace(true);
  plan.OnOp("syslogs", FaultOp::kAppend);
  plan.OnOp("kv.heap0.3", FaultOp::kSync);
  std::vector<TraceEntry> trace = plan.Trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].op, FaultOp::kAppend);
  EXPECT_EQ(trace[0].target, "syslogs");
  EXPECT_EQ(trace[1].op, FaultOp::kSync);
  EXPECT_EQ(trace[1].target, "kv.heap0.3");
}

// --- FaultyDevice -----------------------------------------------------------

std::unique_ptr<FaultyDevice> MakeDevice(std::shared_ptr<FaultPlan> plan,
                                         MemDevice** inner_out) {
  auto inner = std::make_unique<MemDevice>();
  *inner_out = inner.get();
  return std::make_unique<FaultyDevice>(std::move(inner), std::move(plan),
                                        "dev");
}

TEST(FaultyDeviceTest, WritesPendUntilSyncAndReadsSeeThem) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);

  std::string page(kPageSize, 'A');
  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());
  EXPECT_EQ(dev->PendingPages(), 1u);
  EXPECT_EQ(inner->GetStats().page_writes, 0);  // nothing durable yet
  EXPECT_EQ(dev->NumPages(), 1u);               // but addressable in-process

  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(dev->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, page);  // read-your-writes through the OS-cache model

  ASSERT_TRUE(dev->Sync().ok());
  EXPECT_EQ(dev->PendingPages(), 0u);
  EXPECT_GT(inner->GetStats().page_writes, 0);
  ASSERT_TRUE(inner->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, page);
}

TEST(FaultyDeviceTest, CrashDiscardsUnsyncedWrites) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);

  std::string page(kPageSize, 'A');
  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());  // op 0
  plan->CrashAtOp(1);
  EXPECT_FALSE(dev->Sync().ok());  // op 1: crash mid-sync
  EXPECT_TRUE(plan->crashed());
  // The write never reached the inner device, and the decorator is dead.
  EXPECT_EQ(inner->GetStats().page_writes, 0);
  EXPECT_FALSE(dev->WritePage(0, page.data()).ok());
  EXPECT_FALSE(dev->ReadPage(0, page.data()).ok());
}

TEST(FaultyDeviceTest, InjectedWriteErrorHasNoSideEffects) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);

  plan->FailAtOp(0);
  std::string page(kPageSize, 'A');
  EXPECT_FALSE(dev->WritePage(0, page.data()).ok());
  EXPECT_EQ(dev->PendingPages(), 0u);
  // Failed operations never count toward traffic stats.
  EXPECT_EQ(dev->GetStats().page_writes, 0);

  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());  // next attempt succeeds
  EXPECT_EQ(dev->GetStats().page_writes, 1);
}

TEST(FaultyDeviceTest, TornWriteAppliesPartialSectorImage) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);

  plan->TornWriteAtOp(0);
  std::string page(kPageSize, 'A');
  EXPECT_FALSE(dev->WritePage(0, page.data()).ok());
  EXPECT_EQ(plan->GetStats().torn_writes, 1);

  // The pending image holds a sector-granular mix of the new bytes ('A')
  // and the base image (zeroes) — never all of one or the other.
  std::string buf(kPageSize, '\xee');
  ASSERT_TRUE(dev->ReadPage(0, buf.data()).ok());
  size_t new_bytes = 0, old_bytes = 0;
  for (char c : buf) {
    if (c == 'A') ++new_bytes;
    else if (c == '\0') ++old_bytes;
    else FAIL() << "unexpected byte in torn image";
  }
  EXPECT_GT(new_bytes, 0u);
  EXPECT_GT(old_bytes, 0u);
  EXPECT_EQ(new_bytes % 512, 0u);  // sector granularity
}

TEST(FaultyDeviceTest, FailedSyncKeepsWritesPendingAndUncounted) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);

  std::string page(kPageSize, 'A');
  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());  // op 0
  plan->FailAtOp(1);
  EXPECT_FALSE(dev->Sync().ok());  // op 1
  EXPECT_EQ(dev->GetStats().syncs, 0);
  EXPECT_EQ(dev->PendingPages(), 1u);  // still pending, not lost

  ASSERT_TRUE(dev->Sync().ok());  // retry succeeds
  EXPECT_EQ(dev->GetStats().syncs, 1);
  EXPECT_EQ(dev->PendingPages(), 0u);
  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(inner->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, page);
}

// --- FaultyLogStorage -------------------------------------------------------

TEST(FaultyLogStorageTest, AppendsPendUntilSync) {
  auto plan = std::make_shared<FaultPlan>(1);
  auto inner = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = inner.get();
  FaultyLogStorage storage(std::move(inner), plan, "log");

  ASSERT_TRUE(storage.Append("hello ").ok());
  ASSERT_TRUE(storage.Append("world").ok());
  EXPECT_EQ(storage.PendingBytes(), 11);
  EXPECT_EQ(raw->Size(), 0);
  EXPECT_EQ(storage.Size(), 11);  // in-process view includes the tail
  std::string content;
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "hello world");

  ASSERT_TRUE(storage.Sync().ok());
  EXPECT_EQ(storage.PendingBytes(), 0);
  EXPECT_EQ(raw->Size(), 11);
}

TEST(FaultyLogStorageTest, CrashLeavesSeededTornPrefixOfTail) {
  auto plan = std::make_shared<FaultPlan>(3);
  auto inner = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = inner.get();
  FaultyLogStorage storage(std::move(inner), plan, "log");

  const std::string tail = "0123456789abcdef";
  ASSERT_TRUE(storage.Append(tail).ok());  // op 0
  plan->CrashAtOp(1);
  EXPECT_FALSE(storage.Sync().ok());  // op 1: crash mid-fsync

  // What reached the inner storage is some prefix of the un-synced tail —
  // the sectors of the in-flight write that hit the platter.
  std::string durable;
  ASSERT_TRUE(raw->ReadAll(&durable).ok());
  EXPECT_LE(durable.size(), tail.size());
  EXPECT_EQ(durable, tail.substr(0, durable.size()));
  EXPECT_FALSE(storage.Append("more").ok());  // decorator is dead
}

TEST(LogPoisoningTest, FailedAppendPoisonsTheLog) {
  auto plan = std::make_shared<FaultPlan>(1);
  auto faulty = std::make_unique<FaultyLogStorage>(
      std::make_unique<MemLogStorage>(), plan, "log");
  Log log(std::move(faulty), /*sync_on_commit=*/true);

  plan->FailNth(FaultOp::kAppend, "", 1);
  LogRecord rec;
  rec.type = LogRecordType::kPsCommit;
  rec.txn_id = 1;
  EXPECT_FALSE(log.AppendRecord(rec).ok());
  EXPECT_TRUE(log.poisoned());
  EXPECT_EQ(MetricReader(log).Value("wal.append_failures"), 1);
  EXPECT_EQ(MetricReader(log).Value("wal.records_appended"), 0);

  // Every later operation fails with the sticky poison status without
  // reaching the storage: garbage may sit in the tail, and appending after
  // it would make the records unreachable by replay.
  const uint64_t ops_before = plan->ops_seen();
  EXPECT_FALSE(log.AppendRecord(rec).ok());
  EXPECT_FALSE(log.Commit().ok());
  EXPECT_FALSE(log.Truncate().ok());
  EXPECT_EQ(plan->ops_seen(), ops_before);
  // Counted once, at the cause.
  EXPECT_EQ(MetricReader(log).Value("wal.append_failures"), 1);
}

TEST(LogPoisoningTest, FailedSyncPoisonsAndNeverElidesLater) {
  auto plan = std::make_shared<FaultPlan>(1);
  auto faulty = std::make_unique<FaultyLogStorage>(
      std::make_unique<MemLogStorage>(), plan, "log");
  Log log(std::move(faulty), /*sync_on_commit=*/true);

  LogRecord rec;
  rec.type = LogRecordType::kPsCommit;
  rec.txn_id = 1;
  ASSERT_TRUE(log.AppendRecord(rec).ok());
  plan->FailNth(FaultOp::kSync, "", 1);
  EXPECT_FALSE(log.Commit().ok());
  MetricReader stats(log);
  EXPECT_EQ(stats.Value("wal.sync_failures"), 1);
  EXPECT_EQ(stats.Value("wal.syncs"), 0);

  // fsyncgate: a retried Commit must NOT succeed (or be elided as clean) —
  // the storage tail's durability is indeterminate after a failed fsync.
  EXPECT_FALSE(log.Commit().ok());
  EXPECT_EQ(stats.Value("wal.syncs"), 0);
  EXPECT_EQ(stats.Value("wal.syncs_elided"), 0);
}

// --- BufferCache propagation ------------------------------------------------

TEST(BufferCacheFaultTest, FlushAllPropagatesWriteError) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);
  BufferCache cache(4);
  cache.AttachDevice(0, dev.get());

  {
    Result<PageGuard> guard =
        cache.FixPage(PageId{0, 0}, LatchMode::kExclusive);
    ASSERT_TRUE(guard.ok());
    memset(guard->data(), 'A', kPageSize);
    guard->MarkDirty();
  }
  plan->FailNth(FaultOp::kWrite, "", 1);
  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_EQ(MetricReader(cache).Value("buffer_cache.write_failures"), 1);

  // The frame stayed dirty, so a retry makes the page durable: EIO is an
  // error, never data loss.
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(dev->Sync().ok());
  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(inner->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, std::string(kPageSize, 'A'));
}

TEST(BufferCacheFaultTest, EvictionWriteBackFailureSurfacesAndPreservesData) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  auto dev = MakeDevice(plan, &inner);
  BufferCache cache(1);  // one frame: any second page forces eviction
  cache.AttachDevice(0, dev.get());

  {
    Result<PageGuard> guard =
        cache.FixPage(PageId{0, 0}, LatchMode::kExclusive);
    ASSERT_TRUE(guard.ok());
    memset(guard->data(), 'A', kPageSize);
    guard->MarkDirty();
  }
  plan->FailNth(FaultOp::kWrite, "", 1);
  // Fixing another page needs the only frame; the dirty victim's write-back
  // fails and the fix reports it instead of dropping the data.
  EXPECT_FALSE(cache.FixPage(PageId{0, 1}, LatchMode::kShared).ok());
  EXPECT_EQ(MetricReader(cache).Value("buffer_cache.write_failures"), 1);

  // Once the device recovers, the same fix succeeds and the victim's bytes
  // survive the round trip.
  ASSERT_TRUE(cache.FixPage(PageId{0, 1}, LatchMode::kShared).ok());
  {
    Result<PageGuard> guard = cache.FixPage(PageId{0, 0}, LatchMode::kShared);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], 'A');
    EXPECT_EQ(guard->data()[kPageSize - 1], 'A');
  }
}

}  // namespace
}  // namespace btrim
