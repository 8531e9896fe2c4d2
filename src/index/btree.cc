#include "index/btree.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "obs/metrics_registry.h"

namespace btrim {

namespace {

// Node page layout:
//   [NodeHeader][slot offsets (u16, ascending key order) -> ... <- cells]
// Cell: [u16 klen][key bytes][u64 value]. For internal nodes the value is a
// child page number; keys >= separator live under that child, and keys
// below the first separator live under header.leftmost_child.
struct NodeHeader {
  uint32_t magic;
  uint8_t level;  // 0 = leaf
  uint8_t flags;  // unused, zero
  uint16_t count;
  uint16_t cell_start;  // lowest offset used by cells
  uint16_t garbage;     // freed cell bytes
  uint32_t right_sibling;
  uint32_t leftmost_child;
};

constexpr uint32_t kNodeMagic = 0xB7EE0001u;
constexpr size_t kSlotBytes = sizeof(uint16_t);

class Node {
 public:
  explicit Node(char* data) : data_(data) {}

  void Init(uint8_t level) {
    memset(data_, 0, kPageSize);
    NodeHeader* h = header();
    h->magic = kNodeMagic;
    h->level = level;
    h->count = 0;
    h->cell_start = static_cast<uint16_t>(kPageSize);
    h->garbage = 0;
    h->right_sibling = BTree::kInvalidPage;
    h->leftmost_child = BTree::kInvalidPage;
  }

  bool IsInitialized() const { return header()->magic == kNodeMagic; }
  bool IsLeaf() const { return header()->level == 0; }
  uint8_t level() const { return header()->level; }
  uint16_t count() const { return header()->count; }

  uint32_t right_sibling() const { return header()->right_sibling; }
  void set_right_sibling(uint32_t p) { header()->right_sibling = p; }
  uint32_t leftmost_child() const { return header()->leftmost_child; }
  void set_leftmost_child(uint32_t p) { header()->leftmost_child = p; }

  Slice KeyAt(uint16_t i) const {
    const char* cell = data_ + slots()[i];
    const uint16_t klen = DecodeFixed16(cell);
    return Slice(cell + 2, klen);
  }

  uint64_t ValueAt(uint16_t i) const {
    const char* cell = data_ + slots()[i];
    const uint16_t klen = DecodeFixed16(cell);
    return DecodeFixed64(cell + 2 + klen);
  }

  void SetValueAt(uint16_t i, uint64_t v) {
    char* cell = data_ + slots()[i];
    const uint16_t klen = DecodeFixed16(cell);
    EncodeFixed64(cell + 2 + klen, v);
  }

  /// First index i with KeyAt(i) >= key; count() if none.
  uint16_t LowerBound(Slice key) const {
    uint16_t lo = 0, hi = count();
    while (lo < hi) {
      const uint16_t mid = (lo + hi) / 2;
      if (KeyAt(mid).compare(key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First index i with KeyAt(i) > key; count() if none.
  uint16_t UpperBound(Slice key) const {
    uint16_t lo = 0, hi = count();
    while (lo < hi) {
      const uint16_t mid = (lo + hi) / 2;
      if (KeyAt(mid).compare(key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child page for `key` in an internal node.
  uint32_t ChildFor(Slice key) const {
    const uint16_t i = UpperBound(key);
    if (i == 0) return leftmost_child();
    return static_cast<uint32_t>(ValueAt(i - 1));
  }

  size_t CellBytes(Slice key) const { return 2 + key.size() + 8; }

  size_t ContiguousFree() const {
    const NodeHeader* h = header();
    const size_t dir_end =
        sizeof(NodeHeader) + static_cast<size_t>(h->count) * kSlotBytes;
    return h->cell_start - dir_end;
  }

  size_t FreeSpace() const { return ContiguousFree() + header()->garbage; }

  void Compact() {
    NodeHeader* h = header();
    std::vector<char> scratch(kPageSize);
    size_t write = kPageSize;
    uint16_t* dir = slots();
    for (uint16_t i = 0; i < h->count; ++i) {
      const char* cell = data_ + dir[i];
      const size_t len = 2 + DecodeFixed16(cell) + 8;
      write -= len;
      memcpy(scratch.data() + write, cell, len);
      dir[i] = static_cast<uint16_t>(write);
    }
    memcpy(data_ + write, scratch.data() + write, kPageSize - write);
    h->cell_start = static_cast<uint16_t>(write);
    h->garbage = 0;
  }

  /// Inserts (key, value) at position `pos`, shifting later slots right.
  /// Fails with NoSpace when the node must split.
  Status InsertAt(uint16_t pos, Slice key, uint64_t value) {
    NodeHeader* h = header();
    const size_t need = CellBytes(key) + kSlotBytes;
    if (ContiguousFree() < need) {
      if (FreeSpace() < need) return Status::NoSpace("node full");
      Compact();
      if (ContiguousFree() < need) return Status::NoSpace("node full");
    }
    h->cell_start = static_cast<uint16_t>(h->cell_start - CellBytes(key));
    char* cell = data_ + h->cell_start;
    EncodeFixed16(cell, static_cast<uint16_t>(key.size()));
    memcpy(cell + 2, key.data(), key.size());
    EncodeFixed64(cell + 2 + key.size(), value);

    uint16_t* dir = slots();
    memmove(dir + pos + 1, dir + pos,
            (h->count - pos) * kSlotBytes);
    dir[pos] = h->cell_start;
    h->count++;
    return Status::OK();
  }

  void RemoveAt(uint16_t pos) {
    NodeHeader* h = header();
    const char* cell = data_ + slots()[pos];
    h->garbage = static_cast<uint16_t>(h->garbage + 2 + DecodeFixed16(cell) + 8);
    uint16_t* dir = slots();
    memmove(dir + pos, dir + pos + 1,
            (h->count - pos - 1) * kSlotBytes);
    h->count--;
  }

  /// Moves entries [from, count) into `dst` (appending in order) and
  /// truncates this node.
  void MoveTail(uint16_t from, Node* dst) {
    NodeHeader* h = header();
    for (uint16_t i = from; i < h->count; ++i) {
      Status s = dst->InsertAt(dst->count(), KeyAt(i), ValueAt(i));
      assert(s.ok());
      (void)s;
    }
    // Mark moved cells as garbage.
    for (uint16_t i = from; i < h->count; ++i) {
      const char* cell = data_ + slots()[i];
      h->garbage =
          static_cast<uint16_t>(h->garbage + 2 + DecodeFixed16(cell) + 8);
    }
    h->count = from;
  }

 private:
  NodeHeader* header() { return reinterpret_cast<NodeHeader*>(data_); }
  const NodeHeader* header() const {
    return reinterpret_cast<const NodeHeader*>(data_);
  }
  uint16_t* slots() {
    return reinterpret_cast<uint16_t*>(data_ + sizeof(NodeHeader));
  }
  const uint16_t* slots() const {
    return reinterpret_cast<const uint16_t*>(data_ + sizeof(NodeHeader));
  }

  char* data_;
};

}  // namespace

BTree::BTree(uint16_t file_id, BufferCache* cache, bool unique)
    : file_id_(file_id), cache_(cache), unique_(unique) {}

uint32_t BTree::AllocatePage() {
  {
    SpinLockGuard g(pages_mu_);
    if (!free_pages_.empty()) {
      const uint32_t p = free_pages_.back();
      free_pages_.pop_back();
      pages_reused_.Inc();
      return p;
    }
  }
  return next_page_.fetch_add(1, std::memory_order_relaxed);
}

void BTree::FreePage(uint32_t page_no) {
  SpinLockGuard g(pages_mu_);
  free_pages_.push_back(page_no);
  pages_retired_.Inc();
}

Status BTree::Create() {
  const uint32_t root = AllocatePage();
  Result<PageGuard> guard =
      cache_->FixPage(PageId{file_id_, root}, LatchMode::kExclusive);
  if (!guard.ok()) return guard.status();
  Node node(guard->data());
  node.Init(0);
  guard->MarkDirty();
  root_no_.store(root, std::memory_order_release);
  return Status::OK();
}

std::string BTree::MakeNonUniqueKey(Slice user_key, Rid rid) {
  std::string k(user_key.data(), user_key.size());
  PutBigEndian64(&k, rid.Encode());
  return k;
}

Result<PageGuard> BTree::FixRoot(LatchMode leaf_mode,
                                 LatchMode inner_mode) const {
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) olc_restarts_.Inc();
    // Root growth raises height_ before it publishes the new root, so the
    // height read after the root is never older than that root: a height
    // of 1 here means `page_no` was a leaf when loaded, and latching it in
    // leaf mode avoids any latch upgrade.
    const uint32_t page_no = root_no_.load(std::memory_order_acquire);
    const LatchMode mode =
        height_.load(std::memory_order_acquire) == 1 ? leaf_mode : inner_mode;
    Result<PageGuard> root = cache_->FixPage(PageId{file_id_, page_no}, mode);
    if (!root.ok()) return root.status();
    // Growth swaps root_no_ under the old root's exclusive latch, so with
    // the root latched an unchanged root_no_ proves it is still the root
    // (and the height hint still holds).
    if (root_no_.load(std::memory_order_acquire) == page_no) return root;
  }
}

Result<PageGuard> BTree::DescendToLeaf(Slice key, LatchMode leaf_mode) const {
  Result<PageGuard> root = FixRoot(leaf_mode, LatchMode::kShared);
  if (!root.ok()) return root.status();
  PageGuard cur = std::move(*root);
  while (true) {
    Node node(cur.data());
    if (!node.IsInitialized()) {
      return Status::Corruption("uninitialized index page");
    }
    if (node.IsLeaf()) return cur;
    const LatchMode child_mode =
        node.level() == 1 ? leaf_mode : LatchMode::kShared;
    Result<PageGuard> child = cache_->FixPage(
        PageId{file_id_, node.ChildFor(key)}, child_mode);
    if (!child.ok()) return child.status();
    cur = std::move(*child);  // releases the parent after the child latch
  }
}

Status BTree::Insert(Slice key, uint64_t value) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key too large");
  }
  inserts_.Inc();
  // Running max of inserted key sizes keeps the pessimistic path's
  // "absorbs one separator" bound tight (separators are leaf-key copies).
  uint32_t cur_max = max_key_size_.load(std::memory_order_relaxed);
  while (key.size() > cur_max &&
         !max_key_size_.compare_exchange_weak(
             cur_max, static_cast<uint32_t>(key.size()),
             std::memory_order_relaxed)) {
  }
  Result<PageGuard> leaf_guard = DescendToLeaf(key, LatchMode::kExclusive);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (unique_ && pos < node.count() && node.KeyAt(pos) == key) {
    return Status::AlreadyExists("duplicate key");
  }
  Status s = node.InsertAt(pos, key, value);
  if (s.ok()) {
    leaf_guard->MarkDirty();
    return Status::OK();
  }
  if (!s.IsNoSpace()) return s;
  leaf_guard->Release();
  return InsertPessimistic(key, value);
}

Status BTree::SplitChild(PageGuard* parent_guard, PageGuard* node_guard,
                         Slice key) {
  // Both pages are latched exclusive and the parent is guaranteed to absorb
  // one separator. The fresh right sibling is unreachable until the
  // separator lands in the parent and the sibling link is set, and both
  // happen before either latch is released.
  splits_.Inc();
  const uint32_t right_no = AllocatePage();
  Result<PageGuard> right_guard =
      cache_->FixPage(PageId{file_id_, right_no}, LatchMode::kExclusive);
  if (!right_guard.ok()) return right_guard.status();
  Node node(node_guard->data());
  Node right(right_guard->data());
  const uint8_t level = node.level();
  right.Init(level);
  std::string sep;
  const uint16_t mid = node.count() / 2;
  if (level == 0) {
    node.MoveTail(mid, &right);
    right.set_right_sibling(node.right_sibling());
    node.set_right_sibling(right_no);
    sep = right.KeyAt(0).ToString();
  } else {
    // Promote the separator at mid; its child becomes the right node's
    // leftmost child.
    sep = node.KeyAt(mid).ToString();
    right.set_leftmost_child(static_cast<uint32_t>(node.ValueAt(mid)));
    node.MoveTail(mid + 1, &right);
    node.RemoveAt(mid);
  }
  Node parent(parent_guard->data());
  Status s = parent.InsertAt(parent.LowerBound(Slice(sep)), Slice(sep),
                             right_no);
  assert(s.ok());  // the caller pre-split any parent that lacked room
  if (!s.ok()) return Status::Corruption("separator insert failed");
  node_guard->MarkDirty();
  right_guard->MarkDirty();
  parent_guard->MarkDirty();
  if (key.compare(Slice(sep)) >= 0) *node_guard = std::move(*right_guard);
  return Status::OK();
}

Status BTree::InsertPessimistic(Slice key, uint64_t value) {
  // Latch-coupling descent with preemptive splits: every full node on the
  // path splits while its parent (held exclusive, with guaranteed room) is
  // still latched, so no separator insert can fail and at most three
  // latches (parent, node, fresh sibling) are ever held.
  pessimistic_.Inc();
  const size_t leaf_need = 2 + key.size() + 8 + kSlotBytes;
  const size_t sep_need =
      2 + max_key_size_.load(std::memory_order_relaxed) + 8 + kSlotBytes;
  Result<PageGuard> root_guard =
      FixRoot(LatchMode::kExclusive, LatchMode::kExclusive);
  if (!root_guard.ok()) return root_guard.status();
  PageGuard parent;  // invalid while `cur` is the tree's top
  PageGuard cur = std::move(*root_guard);
  {
    Node root(cur.data());
    const size_t need = root.IsLeaf() ? leaf_need : sep_need;
    if (root.FreeSpace() < need) {
      // Grow first so the root splits like any other node. The new root
      // starts with the old root as its only child; it is unreachable until
      // root_no_ names it, and descents that latched the old root before
      // the swap see root_no_ moved and retry.
      const uint32_t new_root_no = AllocatePage();
      Result<PageGuard> grow_guard = cache_->FixPage(
          PageId{file_id_, new_root_no}, LatchMode::kExclusive);
      if (!grow_guard.ok()) return grow_guard.status();
      Node new_root(grow_guard->data());
      new_root.Init(static_cast<uint8_t>(root.level() + 1));
      new_root.set_leftmost_child(cur.page_id().page_no);
      grow_guard->MarkDirty();
      height_.fetch_add(1, std::memory_order_acq_rel);
      root_no_.store(new_root_no, std::memory_order_release);
      parent = std::move(*grow_guard);
    }
  }
  while (true) {
    Node node(cur.data());
    if (node.FreeSpace() < (node.IsLeaf() ? leaf_need : sep_need)) {
      Status s = SplitChild(&parent, &cur, key);
      if (!s.ok()) return s;
      continue;  // re-check the half that now owns the key
    }
    if (node.IsLeaf()) break;
    Result<PageGuard> child_guard = cache_->FixPage(
        PageId{file_id_, node.ChildFor(key)}, LatchMode::kExclusive);
    if (!child_guard.ok()) return child_guard.status();
    parent = std::move(cur);  // releases the grandparent
    cur = std::move(*child_guard);
  }
  Node leaf(cur.data());
  const uint16_t pos = leaf.LowerBound(key);
  if (unique_ && pos < leaf.count() && leaf.KeyAt(pos) == key) {
    return Status::AlreadyExists("duplicate key");
  }
  Status s = leaf.InsertAt(pos, key, value);
  if (!s.ok()) return s;  // unreachable: space was ensured above
  cur.MarkDirty();
  return Status::OK();
}

Result<uint64_t> BTree::Search(Slice key) const {
  searches_.Inc();
  Result<PageGuard> leaf_guard = DescendToLeaf(key, LatchMode::kShared);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (pos < node.count() && node.KeyAt(pos) == key) {
    return node.ValueAt(pos);
  }
  return Status::NotFound("key absent");
}

Status BTree::UpdateValue(Slice key, uint64_t value) {
  Result<PageGuard> leaf_guard = DescendToLeaf(key, LatchMode::kExclusive);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (pos < node.count() && node.KeyAt(pos) == key) {
    node.SetValueAt(pos, value);
    leaf_guard->MarkDirty();
    return Status::OK();
  }
  return Status::NotFound("key absent");
}

Status BTree::Delete(Slice key) {
  deletes_.Inc();
  Result<PageGuard> leaf_guard = DescendToLeaf(key, LatchMode::kExclusive);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (pos >= node.count() || !(node.KeyAt(pos) == key)) {
    return Status::NotFound("key absent");
  }
  if (node.count() > 1) {
    node.RemoveAt(pos);
    leaf_guard->MarkDirty();
    return Status::OK();
  }
  // Removing the last entry: unlink the emptied leaf under parent + sibling
  // latches so its page can be reused.
  leaf_guard->Release();
  return DeletePessimistic(key);
}

Status BTree::DeletePessimistic(Slice key) {
  pessimistic_.Inc();
  // Couple down exclusive, keeping only the direct parent latched (no
  // separator ever cascades: internal pages are never merged). Entering the
  // leaf level, the victim's same-parent left sibling is latched before the
  // victim itself: scans hop left to right while holding a leaf, so the
  // reverse order would deadlock against them.
  Result<PageGuard> root_guard =
      FixRoot(LatchMode::kExclusive, LatchMode::kExclusive);
  if (!root_guard.ok()) return root_guard.status();
  PageGuard parent, left;
  PageGuard cur = std::move(*root_guard);
  uint16_t slot = 0;  // the victim's entry in `parent` is slot - 1
  while (true) {
    Node node(cur.data());
    if (node.IsLeaf()) break;
    slot = node.UpperBound(key);
    const uint32_t child =
        slot == 0 ? node.leftmost_child()
                  : static_cast<uint32_t>(node.ValueAt(slot - 1));
    if (node.level() == 1 && slot > 0) {
      const uint32_t left_no =
          slot == 1 ? node.leftmost_child()
                    : static_cast<uint32_t>(node.ValueAt(slot - 2));
      Result<PageGuard> left_guard =
          cache_->FixPage(PageId{file_id_, left_no}, LatchMode::kExclusive);
      if (!left_guard.ok()) return left_guard.status();
      left = std::move(*left_guard);
    }
    Result<PageGuard> child_guard =
        cache_->FixPage(PageId{file_id_, child}, LatchMode::kExclusive);
    if (!child_guard.ok()) return child_guard.status();
    parent = std::move(cur);
    cur = std::move(*child_guard);
  }
  Node leaf(cur.data());
  const uint16_t pos = leaf.LowerBound(key);
  if (pos >= leaf.count() || !(leaf.KeyAt(pos) == key)) {
    return Status::NotFound("key absent");
  }
  leaf.RemoveAt(pos);
  cur.MarkDirty();
  // Keep the leaf linked if it was re-filled since the first attempt, if it
  // is the root (the root may sit empty), or if it is its parent's leftmost
  // child (rewiring leftmost_child is not worth the protocol).
  if (leaf.count() > 0 || !left.valid()) return Status::OK();
  Node(left.data()).set_right_sibling(leaf.right_sibling());
  Node(parent.data()).RemoveAt(static_cast<uint16_t>(slot - 1));
  left.MarkDirty();
  parent.MarkDirty();
  const uint32_t victim = cur.page_id().page_no;
  left.Release();
  cur.Release();
  parent.Release();
  FreePage(victim);
  return Status::OK();
}

Status BTree::Scan(Slice lower, Slice upper, size_t limit,
                   std::vector<std::pair<std::string, uint64_t>>* out) const {
  scans_.Inc();
  Result<PageGuard> fixed = DescendToLeaf(lower, LatchMode::kShared);
  if (!fixed.ok()) return fixed.status();
  PageGuard cur = std::move(*fixed);
  uint16_t pos = Node(cur.data()).LowerBound(lower);
  while (true) {
    Node node(cur.data());
    if (pos < node.count()) {
      // Reserve from the leaf's entry count, but never below capacity
      // doubling, so bulk scans keep amortized growth.
      const size_t want = out->size() + (node.count() - pos);
      if (out->capacity() < want) {
        out->reserve(std::max(want, out->capacity() * 2));
      }
    }
    for (; pos < node.count(); ++pos) {
      Slice k = node.KeyAt(pos);
      if (!upper.empty() && k.compare(upper) >= 0) return Status::OK();
      out->emplace_back(std::string(k.data(), k.size()), node.ValueAt(pos));
      if (limit != 0 && out->size() >= limit) return Status::OK();
    }
    const uint32_t next = node.right_sibling();
    if (next == kInvalidPage) return Status::OK();
    // Latch the sibling before releasing this leaf: neither a split of this
    // leaf nor an unlink of the sibling can slip in between.
    Result<PageGuard> next_guard =
        cache_->FixPage(PageId{file_id_, next}, LatchMode::kShared);
    if (!next_guard.ok()) return next_guard.status();
    cur = std::move(*next_guard);
    pos = 0;
  }
}

Status BTree::ScanPrefix(
    Slice prefix, size_t limit,
    std::vector<std::pair<std::string, uint64_t>>* out) const {
  // Upper bound: prefix with the last byte bumped; if all 0xff, scan to the
  // end of the tree.
  std::string upper(prefix.data(), prefix.size());
  while (!upper.empty()) {
    if (static_cast<unsigned char>(upper.back()) != 0xff) {
      upper.back() = static_cast<char>(upper.back() + 1);
      break;
    }
    upper.pop_back();
  }
  return Scan(prefix, Slice(upper), limit, out);
}

Status BTree::RegisterMetrics(obs::MetricsRegistry* registry,
                              const obs::MetricLabels& labels) const {
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.inserts", labels, &inserts_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.deletes", labels, &deletes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.searches", labels, &searches_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.scans", labels, &scans_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.splits", labels, &splits_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.olc_restarts", labels, &olc_restarts_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pessimistic_descents",
                                                  labels, &pessimistic_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pages_retired",
                                                  labels, &pages_retired_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pages_reused",
                                                  labels, &pages_reused_));
  return Status::OK();
}

}  // namespace btrim
