#include "wal/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "obs/metrics_registry.h"

namespace btrim {

// --- MemLogStorage ----------------------------------------------------------

Status MemLogStorage::Append(Slice data) {
  MutexGuard guard(mu_);
  buf_.append(data.data(), data.size());
  return Status::OK();
}

Status MemLogStorage::Sync() { return Status::OK(); }

Status MemLogStorage::ReadAll(std::string* out) {
  MutexGuard guard(mu_);
  *out = buf_;
  return Status::OK();
}

Status MemLogStorage::Truncate() {
  MutexGuard guard(mu_);
  buf_.clear();
  return Status::OK();
}

int64_t MemLogStorage::Size() const {
  MutexGuard guard(mu_);
  return static_cast<int64_t>(buf_.size());
}

// --- FileLogStorage ---------------------------------------------------------

Result<std::unique_ptr<FileLogStorage>> FileLogStorage::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  auto storage =
      std::unique_ptr<FileLogStorage>(new FileLogStorage(fd, path));
  storage->size_.store(st.st_size, std::memory_order_relaxed);
  return storage;
}

FileLogStorage::FileLogStorage(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {}

FileLogStorage::~FileLogStorage() { ::close(fd_); }

Status FileLogStorage::Append(Slice data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write " + path_ + ": " + strerror(errno));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  size_.fetch_add(static_cast<int64_t>(data.size()),
                  std::memory_order_relaxed);
  return Status::OK();
}

Status FileLogStorage::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync " + path_ + ": " + strerror(errno));
  }
  return Status::OK();
}

Status FileLogStorage::ReadAll(std::string* out) {
  const int64_t size = size_.load(std::memory_order_relaxed);
  out->resize(static_cast<size_t>(size));
  int64_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::pread(fd_, out->data() + off, static_cast<size_t>(size - off), off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path_ + ": " + strerror(errno));
    }
    if (n == 0) break;
    off += n;
  }
  out->resize(static_cast<size_t>(off));
  return Status::OK();
}

Status FileLogStorage::Truncate() {
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("ftruncate " + path_ + ": " + strerror(errno));
  }
  size_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

int64_t FileLogStorage::Size() const {
  return size_.load(std::memory_order_relaxed);
}

// --- Log --------------------------------------------------------------------

Log::Log(std::unique_ptr<LogStorage> storage, bool sync_on_commit)
    : storage_(std::move(storage)), sync_on_commit_(sync_on_commit) {}

Status Log::AppendRecord(const LogRecord& rec, std::string* scratch) {
  scratch->clear();
  AppendLogRecord(scratch, rec);
  return AppendSerialized(Slice(*scratch), 1);
}

Status Log::AppendRecord(const LogRecord& rec) {
  thread_local std::string scratch;  // reused: no allocation in steady state
  return AppendRecord(rec, &scratch);
}

Status Log::AppendGroup(Slice group, int64_t record_count) {
  return AppendSerialized(group, record_count, /*group_count=*/1);
}

Status Log::AppendSerialized(Slice data, int64_t record_count,
                             int64_t group_count) {
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  Status s = storage_->Append(data);
  if (!s.ok()) {
    append_failures_.Inc();
    Poison(s);
    return s;
  }
  // Stats count only completed appends, and only completed writes advance
  // the dirty cursor (see header contract).
  records_.Add(record_count);
  if (group_count > 0) groups_.Add(group_count);
  bytes_.Add(static_cast<int64_t>(data.size()));
  append_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Log::Commit() {
  if (!sync_on_commit_) return Status::OK();
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  if (synced_seq_.load(std::memory_order_acquire) >=
      append_seq_.load(std::memory_order_acquire)) {
    syncs_elided_.Inc();
    return Status::OK();
  }
  return SyncStorage();
}

Status Log::SyncStorage() {
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  const uint64_t target = append_seq_.load(std::memory_order_acquire);
  Status s = storage_->Sync();
  if (!s.ok()) {
    sync_failures_.Inc();
    Poison(s);
    return s;
  }
  syncs_.Inc();
  // Monotone max: a concurrent sync may have advanced further already.
  uint64_t seen = synced_seq_.load(std::memory_order_relaxed);
  while (seen < target &&
         !synced_seq_.compare_exchange_weak(seen, target,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void Log::Poison(const Status& error) {
  SpinLockGuard guard(poison_mu_);
  if (poison_status_.ok()) poison_status_ = error;
  poisoned_.store(true, std::memory_order_release);
}

Status Log::CheckPoisoned() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  SpinLockGuard guard(poison_mu_);
  return poison_status_;
}

Status Log::Replay(const std::function<bool(const LogRecord&)>& fn) {
  std::string content;
  BTRIM_RETURN_IF_ERROR(storage_->ReadAll(&content));
  Slice input(content);
  LogRecord rec;
  while (true) {
    Status s = ParseLogRecord(&input, &rec);
    if (s.IsNotFound()) return Status::OK();  // clean or torn end
    BTRIM_RETURN_IF_ERROR(s);
    if (!fn(rec)) return Status::OK();
  }
}

Status Log::Truncate() {
  // A poisoned log stays unusable: truncating it would discard the evidence
  // of what is (or is not) durable without making the tail trustworthy.
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  return storage_->Truncate();
}

Status Log::RegisterMetrics(obs::MetricsRegistry* registry,
                            const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.records_appended", l, &records_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.bytes_appended", l, &bytes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.groups_appended", l, &groups_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("wal.syncs", l, &syncs_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.syncs_elided", l, &syncs_elided_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.append_failures", l, &append_failures_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.sync_failures", l, &sync_failures_));
  return Status::OK();
}

}  // namespace btrim
