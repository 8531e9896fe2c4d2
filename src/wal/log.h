#ifndef BTRIM_WAL_LOG_H_
#define BTRIM_WAL_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "wal/log_record.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Byte-oriented append-only storage backing a transaction log.
class LogStorage {
 public:
  virtual ~LogStorage() = default;
  virtual Status Append(Slice data) = 0;
  virtual Status Sync() = 0;
  virtual Status ReadAll(std::string* out) = 0;
  virtual Status Truncate() = 0;
  virtual int64_t Size() const = 0;
};

/// Heap-backed log storage (fast experiments, unit tests).
class MemLogStorage : public LogStorage {
 public:
  Status Append(Slice data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Status Truncate() override;
  int64_t Size() const override;

 private:
  mutable Mutex mu_{LockRank::kLogInternal, "wal.mem_storage"};
  std::string buf_ BTRIM_GUARDED_BY(mu_);
};

/// File-backed log storage (durability across process restarts).
class FileLogStorage : public LogStorage {
 public:
  static Result<std::unique_ptr<FileLogStorage>> Open(const std::string& path);
  ~FileLogStorage() override;

  Status Append(Slice data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Status Truncate() override;
  int64_t Size() const override;

 private:
  FileLogStorage(int fd, std::string path);
  const int fd_;
  const std::string path_;
  std::atomic<int64_t> size_{0};
};

/// A transaction log (one instance each for syslogs and sysimrslogs).
///
/// Appends are atomic per call: callers serialize a *group* of records
/// (e.g. one transaction's IMRS changes + commit record) into a buffer and
/// append it in one shot, so groups are contiguous on disk. `sync_on_commit`
/// can be disabled for benchmark runs on the in-memory backend.
class Log {
 public:
  Log(std::unique_ptr<LogStorage> storage, bool sync_on_commit);

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Appends one record, serializing it into `scratch` (cleared first).
  /// Passing the same buffer across calls amortizes its allocation to one.
  Status AppendRecord(const LogRecord& rec, std::string* scratch);

  /// Convenience overload backed by a thread-local scratch buffer, so
  /// single-record appends do not allocate per call either.
  Status AppendRecord(const LogRecord& rec);

  /// Appends a pre-serialized record group atomically.
  Status AppendGroup(Slice group, int64_t record_count);

  /// Appends pre-serialized bytes, counting `record_count` records and
  /// `group_count` transaction groups (shared tail of AppendRecord /
  /// AppendGroup; also the batch path of GroupCommitter, whose one physical
  /// write carries many transaction groups).
  Status AppendSerialized(Slice data, int64_t record_count,
                          int64_t group_count = 0);

  /// Forces previous appends to durable storage. No-op when sync_on_commit
  /// is false, and elided (counted in syncs_elided) when every completed
  /// append is already covered by an earlier sync.
  Status Commit();

  /// Unconditional storage sync, independent of sync_on_commit and never
  /// elided. Checkpoint uses this as the WAL barrier: log records must be
  /// durable before the data pages they describe.
  Status SyncStorage();

  /// True once an append or sync failure has poisoned this log (see below).
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Reads every complete record from the start of the log. Stops early if
  /// `fn` returns false. A torn tail terminates iteration cleanly.
  Status Replay(const std::function<bool(const LogRecord&)>& fn);

  /// Discards all log content (quiescent checkpoint truncation).
  Status Truncate();

  int64_t SizeBytes() const { return storage_->Size(); }

  /// Registers this log's counters into the unified metrics registry under
  /// `wal.*` with the given subsystem label ("syslogs" / "sysimrslogs"):
  /// records_appended, bytes_appended, groups_appended, syncs (device syncs
  /// that succeeded), syncs_elided (Commit() calls with nothing new to
  /// sync), append_failures and sync_failures. Only operations that
  /// succeeded end to end count toward the traffic counters.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  /// Records the first I/O failure and fails every later operation with it.
  /// A failed append may have left partial bytes in the storage tail, so
  /// subsequent appends would land after garbage and be unreachable by
  /// replay; a failed sync leaves durability of the tail indeterminate, so
  /// allowing a *later* sync to succeed could retroactively commit groups
  /// whose transactions already aborted (the fsyncgate failure mode).
  /// Poisoning makes both situations terminal for this log instance —
  /// recovery from a reopen sees only the bytes the storage actually took.
  void Poison(const Status& error);

  /// OK, or the sticky poison status.
  Status CheckPoisoned() const;

  const std::unique_ptr<LogStorage> storage_;
  const bool sync_on_commit_;

  std::atomic<bool> poisoned_{false};
  mutable SpinLock poison_mu_{LockRank::kLogInternal, "wal.poison"};
  Status poison_status_ BTRIM_GUARDED_BY(poison_mu_);

  // Dirty tracking for sync elision. append_seq_ is bumped after a storage
  // append returns; synced_seq_ records the highest append_seq_ value known
  // to be covered by a completed sync. Commit() may conservatively sync
  // twice under a race, but never skips a needed sync: an in-flight append
  // bumps the sequence only after its write completed, so a sequence match
  // proves the data a sync would flush is already durable.
  std::atomic<uint64_t> append_seq_{0};
  std::atomic<uint64_t> synced_seq_{0};

  mutable ShardedCounter records_, bytes_, groups_, syncs_, syncs_elided_,
      append_failures_, sync_failures_;
};

}  // namespace btrim

#endif  // BTRIM_WAL_LOG_H_
