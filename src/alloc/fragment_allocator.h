#ifndef BTRIM_ALLOC_FRAGMENT_ALLOCATOR_H_
#define BTRIM_ALLOC_FRAGMENT_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/spinlock.h"
#include "common/status.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// The IMRS fragment memory manager (paper Sec. II).
///
/// A size-class segregated, boundary-tag allocator optimized for best-fit,
/// low-latency allocation and reclamation from many threads. Memory is
/// carved from fixed-size segments; each segment belongs to one of a small
/// number of shards, and every shard has its own free lists and lock, so
/// threads mapped to different shards never contend.
///
/// The allocator enforces a *logical capacity* (the configured IMRS cache
/// size): once `in_use + request` would exceed it, Allocate fails with
/// NoSpace. ILM policy reacts long before that point (steady-threshold
/// packing, aggressive packing, IMRS bypass), so NoSpace is a backstop.
///
/// All returned fragments are 16-byte aligned.
class FragmentAllocator {
 public:
  /// `capacity_bytes` is the logical IMRS cache size; `segment_bytes` the
  /// granularity of OS reservations (default 256 KiB).
  explicit FragmentAllocator(size_t capacity_bytes,
                             size_t segment_bytes = 256 * 1024);
  ~FragmentAllocator();

  FragmentAllocator(const FragmentAllocator&) = delete;
  FragmentAllocator& operator=(const FragmentAllocator&) = delete;

  /// Allocates a fragment of at least `size` bytes. Returns nullptr when the
  /// logical capacity would be exceeded or `size` is unsatisfiable.
  void* Allocate(size_t size);

  /// Releases a fragment previously returned by Allocate.
  void Free(void* ptr);

  /// Usable payload size of an allocated fragment (>= requested size).
  static size_t FragmentSize(const void* ptr);

  /// Bytes currently handed out (block sizes including headers).
  int64_t InUseBytes() const {
    return in_use_bytes_.load(std::memory_order_relaxed);
  }

  int64_t CapacityBytes() const { return static_cast<int64_t>(capacity_); }

  /// in_use / capacity, in [0, 1].
  double Utilization() const {
    return static_cast<double>(InUseBytes()) / static_cast<double>(capacity_);
  }

  /// Registers allocator counters and capacity/in-use gauges into the
  /// unified metrics registry under `imrs_cache.*`: capacity_bytes,
  /// in_use_bytes (handed out to live fragments), segment_bytes (reserved
  /// from the OS), alloc_calls, free_calls, splits (free blocks split to
  /// serve a request), coalesces (adjacent free blocks merged) and
  /// failed_allocs (requests rejected for capacity).
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

  /// Exhaustive invariant check (tests / debugging): walks every segment's
  /// block chain verifying magic values, size/prev_size consistency, and
  /// that every free block is reachable from exactly one free list. Returns
  /// Corruption with a description on the first violation. Takes all shard
  /// locks; do not call on hot paths.
  Status CheckConsistency() const;

  /// Number of shards (exposed for tests).
  static constexpr size_t kShards = 8;

 private:
  struct BlockHeader;
  struct FreeNode;
  struct Segment;
  struct Shard;

  static constexpr size_t kAlign = 16;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kMinBlock = 48;  // header + free-list node + slack
  static constexpr size_t kNumClasses = 28;

  static size_t ClassFor(size_t block_size);
  static size_t BlockSizeFor(size_t payload);

  void* AllocateFromShard(Shard& shard, size_t block_size);
  void RemoveFromFreeList(Shard& shard, BlockHeader* block);
  void InsertIntoFreeList(Shard& shard, BlockHeader* block);
  bool AddSegment(Shard& shard);

  const size_t capacity_;
  const size_t segment_bytes_;

  std::unique_ptr<Shard[]> shards_;

  std::atomic<int64_t> in_use_bytes_{0};
  std::atomic<int64_t> segment_total_{0};

  mutable ShardedCounter alloc_calls_;
  mutable ShardedCounter free_calls_;
  mutable ShardedCounter split_count_;
  mutable ShardedCounter coalesce_count_;
  mutable ShardedCounter failed_allocs_;
};

}  // namespace btrim

#endif  // BTRIM_ALLOC_FRAGMENT_ALLOCATOR_H_
