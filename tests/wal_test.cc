// Unit tests for the dual-log WAL layer: record codec, log storage
// backends, group appends, and replay semantics.

#include <filesystem>

#include <gtest/gtest.h>

#include "metric_reader.h"
#include "page/page.h"
#include "wal/log.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

LogRecord SampleRecord(LogRecordType type, uint64_t txn = 7) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn;
  rec.table_id = 3;
  rec.partition_id = 1;
  rec.rid = Rid{2, 10, 5}.Encode();
  rec.cts = 99;
  rec.source = 2;
  rec.before = "before-image";
  rec.after = "after-image";
  return rec;
}

void ExpectEqualRecords(const LogRecord& a, const LogRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.txn_id, b.txn_id);
  EXPECT_EQ(a.table_id, b.table_id);
  EXPECT_EQ(a.partition_id, b.partition_id);
  EXPECT_EQ(a.rid, b.rid);
  EXPECT_EQ(a.cts, b.cts);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.after, b.after);
}

// --- codec ----------------------------------------------------------------------

class LogRecordRoundTrip
    : public ::testing::TestWithParam<LogRecordType> {};

TEST_P(LogRecordRoundTrip, SerializeParse) {
  LogRecord rec = SampleRecord(GetParam());
  std::string buf;
  AppendLogRecord(&buf, rec);
  Slice input(buf);
  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(&input, &parsed).ok());
  ExpectEqualRecords(parsed, rec);
  EXPECT_TRUE(input.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, LogRecordRoundTrip,
    ::testing::Values(LogRecordType::kPsInsert, LogRecordType::kPsUpdate,
                      LogRecordType::kPsDelete, LogRecordType::kPsCommit,
                      LogRecordType::kPsAbort, LogRecordType::kCheckpoint,
                      LogRecordType::kImrsInsert, LogRecordType::kImrsUpdate,
                      LogRecordType::kImrsDelete, LogRecordType::kImrsPack,
                      LogRecordType::kImrsCommit));

TEST(LogRecordTest, EmptyImagesRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kPsCommit;
  rec.txn_id = 1;
  std::string buf;
  AppendLogRecord(&buf, rec);
  Slice input(buf);
  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(&input, &parsed).ok());
  EXPECT_TRUE(parsed.before.empty());
  EXPECT_TRUE(parsed.after.empty());
}

TEST(LogRecordTest, SequentialRecordsParseInOrder) {
  std::string buf;
  for (uint64_t i = 0; i < 10; ++i) {
    AppendLogRecord(&buf, SampleRecord(LogRecordType::kPsInsert, i));
  }
  Slice input(buf);
  for (uint64_t i = 0; i < 10; ++i) {
    LogRecord rec;
    ASSERT_TRUE(ParseLogRecord(&input, &rec).ok());
    EXPECT_EQ(rec.txn_id, i);
  }
  LogRecord rec;
  EXPECT_TRUE(ParseLogRecord(&input, &rec).IsNotFound());
}

TEST(LogRecordTest, TornTailDetected) {
  std::string buf;
  AppendLogRecord(&buf, SampleRecord(LogRecordType::kPsUpdate));
  // Chop off the last bytes to simulate a torn write.
  buf.resize(buf.size() - 5);
  Slice input(buf);
  LogRecord rec;
  EXPECT_TRUE(ParseLogRecord(&input, &rec).IsNotFound());
}

TEST(LogRecordTest, CorruptBodyDetectedByChecksum) {
  std::string buf;
  AppendLogRecord(&buf, SampleRecord(LogRecordType::kPsUpdate));
  buf[buf.size() / 2] ^= 0x40;  // flip a bit in the body
  Slice input(buf);
  LogRecord rec;
  EXPECT_TRUE(ParseLogRecord(&input, &rec).IsNotFound());
}

// --- storage backends ---------------------------------------------------------------

TEST(MemLogStorageTest, AppendReadTruncate) {
  MemLogStorage storage;
  ASSERT_TRUE(storage.Append("hello ").ok());
  ASSERT_TRUE(storage.Append("world").ok());
  EXPECT_EQ(storage.Size(), 11);
  std::string content;
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "hello world");
  ASSERT_TRUE(storage.Truncate().ok());
  EXPECT_EQ(storage.Size(), 0);
}

TEST(FileLogStorageTest, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/btrim_wal_test.log";
  std::filesystem::remove(path);
  {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE((*storage)->Append("abc").ok());
    ASSERT_TRUE((*storage)->Sync().ok());
  }
  {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    EXPECT_EQ((*storage)->Size(), 3);
    std::string content;
    ASSERT_TRUE((*storage)->ReadAll(&content).ok());
    EXPECT_EQ(content, "abc");
    ASSERT_TRUE((*storage)->Truncate().ok());
    EXPECT_EQ((*storage)->Size(), 0);
  }
  std::filesystem::remove(path);
}

// --- Log -------------------------------------------------------------------------------

TEST(LogTest, AppendAndReplay) {
  Log log(std::make_unique<MemLogStorage>(), false);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, i)).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(log.Replay([&](const LogRecord& rec) {
                   seen.push_back(rec.txn_id);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  MetricReader stats(log);
  EXPECT_EQ(stats.Value("wal.records_appended"), 5);
  EXPECT_GT(stats.Value("wal.bytes_appended"), 0);
}

TEST(LogTest, ReplayStopsWhenCallbackReturnsFalse) {
  Log log(std::make_unique<MemLogStorage>(), false);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord&) { return ++count < 2; }).ok());
  EXPECT_EQ(count, 2);
}

TEST(LogTest, GroupAppendIsContiguous) {
  Log log(std::make_unique<MemLogStorage>(), false);
  // Interleave a group with single records: the group's records replay
  // adjacently.
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1)).ok());
  std::string group;
  AppendLogRecord(&group, SampleRecord(LogRecordType::kImrsInsert, 42));
  AppendLogRecord(&group, SampleRecord(LogRecordType::kImrsCommit, 42));
  ASSERT_TRUE(log.AppendGroup(group, 2).ok());
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 2)).ok());

  std::vector<uint64_t> seen;
  ASSERT_TRUE(log.Replay([&](const LogRecord& rec) {
                   seen.push_back(rec.txn_id);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 42, 42, 2}));
  EXPECT_EQ(MetricReader(log).Value("wal.groups_appended"), 1);
  EXPECT_EQ(MetricReader(log).Value("wal.records_appended"), 4);
}

TEST(LogTest, TruncateEmptiesReplay) {
  Log log(std::make_unique<MemLogStorage>(), false);
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert)).ok());
  ASSERT_TRUE(log.Truncate().ok());
  int count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord&) {
                   ++count;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(log.SizeBytes(), 0);
}

TEST(LogTest, CommitSyncsOnlyWhenConfigured) {
  const std::string path = ::testing::TempDir() + "/btrim_wal_sync_test.log";
  std::filesystem::remove(path);
  {
    auto storage = FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    Log log(std::move(*storage), /*sync_on_commit=*/true);
    ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
    ASSERT_TRUE(log.Commit().ok());
    EXPECT_EQ(MetricReader(log).Value("wal.syncs"), 1);
  }
  {
    auto storage = FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    Log log(std::move(*storage), /*sync_on_commit=*/false);
    ASSERT_TRUE(log.Commit().ok());
    EXPECT_EQ(MetricReader(log).Value("wal.syncs"), 0);
  }
  std::filesystem::remove(path);
}

TEST(LogTest, RedundantCommitsElideTheSync) {
  const std::string path = ::testing::TempDir() + "/btrim_wal_elide_test.log";
  std::filesystem::remove(path);
  auto storage = FileLogStorage::Open(path);
  ASSERT_TRUE(storage.ok());
  Log log(std::move(*storage), /*sync_on_commit=*/true);
  MetricReader stats(log);

  // Nothing appended yet: Commit has nothing to make durable.
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(stats.Value("wal.syncs"), 0);
  EXPECT_EQ(stats.Value("wal.syncs_elided"), 1);

  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(stats.Value("wal.syncs"), 1);

  // Clean log: the second Commit is a no-op.
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(stats.Value("wal.syncs"), 1);
  EXPECT_EQ(stats.Value("wal.syncs_elided"), 2);

  // New append dirties the log again.
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(stats.Value("wal.syncs"), 2);
  EXPECT_EQ(stats.Value("wal.syncs_elided"), 2);
  std::filesystem::remove(path);
}

TEST(LogTest, SingleRecordAppendsDoNotDoubleSerialize) {
  Log log(std::make_unique<MemLogStorage>(), false);
  std::string scratch;
  ASSERT_TRUE(
      log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1), &scratch)
          .ok());
  const size_t one_record = scratch.size();
  EXPECT_GT(one_record, 0u);
  // The scratch buffer holds exactly the serialized record (reused, not
  // re-allocated, across calls) and the log received exactly those bytes.
  ASSERT_TRUE(
      log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 2), &scratch)
          .ok());
  EXPECT_EQ(scratch.size(), one_record);
  EXPECT_EQ(MetricReader(log).Value("wal.bytes_appended"),
            static_cast<int64_t>(2 * one_record));
}

TEST(LogTest, ReplayIgnoresTornTail) {
  auto storage = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = storage.get();
  Log log(std::move(storage), false);
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1)).ok());
  // A partial record at the tail (e.g. crash mid-write).
  ASSERT_TRUE(raw->Append(std::string(7, '\x01')).ok());
  int count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord&) {
                   ++count;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace btrim
