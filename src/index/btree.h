#ifndef BTRIM_INDEX_BTREE_H_
#define BTRIM_INDEX_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/slice.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "page/buffer_cache.h"
#include "page/page.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
struct MetricLabels;
}  // namespace obs

/// Page-based B+Tree mapping variable-length byte-string keys (memcmp
/// order) to 64-bit values (encoded RIDs).
///
/// This is the paper's "page-based BTree index" (Sec. II): its pages live in
/// the shared buffer cache, so index traffic competes for frames and
/// produces latch-contention signals exactly like heap traffic. Entries
/// store RIDs; they are *not* touched when a row moves between the IMRS and
/// the page store — residency is resolved through the RID-map at access
/// time.
///
/// Concurrency (DESIGN.md Sec. 13) — top-down latch coupling over the
/// buffer-cache frame latches:
///  - every descent latches the child before it releases the parent, so no
///    thread ever holds a bare page number across an unlatched window;
///  - the root is a plain atomic page number; a descent re-reads it after
///    latching the root and retries if the root moved (the only retry);
///  - readers couple shared latches; writers couple shared latches and take
///    the leaf exclusive, and a full leaf falls back to an exclusive
///    coupling descent that splits unsafe nodes top-down;
///  - one latch order holds everywhere: top-down, and left to right within
///    the leaf level (scans hop right while holding the current leaf; an
///    unlink latches the left sibling before the victim);
///  - an unlinked leaf goes straight onto the free list: its parent and
///    its left sibling, the only ways to reach it, were both latched
///    exclusive while it was cut out.
///
/// Page image reads and writes always happen under the frame latch, so the
/// protocol is free of data races by construction (TSan-clean).
///
/// For a non-unique index, callers append the RID to the key to make
/// entries distinct (see MakeNonUniqueKey); lookups then use prefix scans.
///
/// Deletion unlinks a leaf once it empties (no page merging); TPC-C's
/// delete pattern (new_orders queue) retires drained leaves which later
/// splits reuse.
class BTree {
 public:
  static constexpr size_t kMaxKeySize = 1024;
  static constexpr uint32_t kInvalidPage = 0xffffffffu;

  /// `unique`: reject duplicate keys on insert.
  BTree(uint16_t file_id, BufferCache* cache, bool unique);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// One-time formatting of the (empty) root page. Call once per tree
  /// lifetime before first use.
  Status Create();

  Status Insert(Slice key, uint64_t value);

  /// Removes the entry with exactly `key`. NotFound if absent.
  Status Delete(Slice key);

  /// Point lookup (unique trees). NotFound if absent.
  Result<uint64_t> Search(Slice key) const;

  /// In-place value update for an existing key. NotFound if absent.
  Status UpdateValue(Slice key, uint64_t value);

  /// Collects all entries with lower <= key < upper into `out`
  /// (set upper empty for "to the end"). `limit` of 0 means unlimited.
  Status Scan(Slice lower, Slice upper, size_t limit,
              std::vector<std::pair<std::string, uint64_t>>* out) const;

  /// Collects all entries whose key starts with `prefix`.
  Status ScanPrefix(Slice prefix, size_t limit,
                    std::vector<std::pair<std::string, uint64_t>>* out) const;

  /// Key for a non-unique index entry: user key + big-endian encoded RID.
  static std::string MakeNonUniqueKey(Slice user_key, Rid rid);

  bool unique() const { return unique_; }
  uint16_t file_id() const { return file_id_; }

  /// Levels from root to leaf (1 = the root is a leaf).
  int64_t height() const { return height_.load(std::memory_order_relaxed); }

  /// Pages ever carved from the file (free-list reuse does not grow it).
  int64_t pages_allocated() const {
    return next_page_.load(std::memory_order_relaxed);
  }

  /// Registers the per-tree traffic counters into the unified metrics
  /// registry under `index.*` with the given labels: inserts, deletes,
  /// searches, scans, splits, olc_restarts (descents retried because the
  /// root moved), pessimistic_descents (writer fallbacks to exclusive
  /// coupling), pages_retired (leaves unlinked and freed) and pages_reused
  /// (allocations served from the free list).
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const obs::MetricLabels& labels) const;

 private:
  /// Allocates a page number, preferring freed pages. Safe to call while
  /// holding frame latches (pages_mu_ ranks inside kPageFrame).
  uint32_t AllocatePage();
  void FreePage(uint32_t page_no);

  /// Latches the current root — in `leaf_mode` while the tree is a single
  /// leaf, else in `inner_mode` — retrying (counted in olc_restarts) while
  /// the root moves between the load of root_no_ and the latch.
  Result<PageGuard> FixRoot(LatchMode leaf_mode, LatchMode inner_mode) const;

  /// Shared-latch coupling descent to the leaf owning `key`; the returned
  /// guard holds the leaf in `leaf_mode`.
  Result<PageGuard> DescendToLeaf(Slice key, LatchMode leaf_mode) const;

  /// Latch-coupling insert fallback for a full leaf: descends top-down
  /// holding parent + current exclusive and preemptively splits any node
  /// without room, so separator inserts into the parent can never fail.
  Status InsertPessimistic(Slice key, uint64_t value);

  /// Splits `*node_guard` (latched exclusive) into itself plus a fresh
  /// right sibling, inserting the separator into `*parent_guard` (latched
  /// exclusive, guaranteed room). On return `*node_guard` holds the half
  /// that covers `key`.
  Status SplitChild(PageGuard* parent_guard, PageGuard* node_guard,
                    Slice key);

  /// Latch-coupling delete fallback for a leaf that would empty: unlinks
  /// the leaf from its parent and same-parent left sibling and frees it.
  Status DeletePessimistic(Slice key);

  const uint16_t file_id_;
  BufferCache* const cache_;
  const bool unique_;

  std::atomic<uint32_t> root_no_{0};
  std::atomic<uint32_t> next_page_{0};
  std::atomic<int64_t> height_{1};
  // Largest key ever inserted: makes the pessimistic path's "this internal
  // node can absorb one more separator" bound tight (separators are copies
  // of leaf keys, so no separator can exceed it).
  std::atomic<uint32_t> max_key_size_{8};

  mutable SpinLock pages_mu_{LockRank::kIndexFreeList, "index.page_freelist"};
  std::vector<uint32_t> free_pages_ BTRIM_GUARDED_BY(pages_mu_);

  mutable ShardedCounter inserts_, deletes_, searches_, scans_, splits_;
  mutable ShardedCounter olc_restarts_, pessimistic_, pages_retired_,
      pages_reused_;
};

}  // namespace btrim

#endif  // BTRIM_INDEX_BTREE_H_
