#include "common/lock_order.h"

namespace btrim {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "unranked";
    case LockRank::kCheckpointGate: return "checkpoint_gate";
    case LockRank::kBackgroundQuiesce: return "background_quiesce";
    case LockRank::kIlmTick: return "ilm_tick";
    case LockRank::kGcPass: return "gc_pass";
    case LockRank::kNetServer: return "net_server";
    case LockRank::kGcDrain: return "gc_drain";
    case LockRank::kIlmRegistry: return "ilm_registry";
    case LockRank::kMetricsRegistry: return "metrics_registry";
    case LockRank::kThreadPool: return "thread_pool";
    case LockRank::kPartitionPack: return "partition_pack";
    case LockRank::kTxnGate: return "txn_gate";
    case LockRank::kTxnShard: return "txn_shard";
    case LockRank::kCatalog: return "catalog";
    case LockRank::kFilePool: return "file_pool";
    case LockRank::kLockTable: return "lock_table";
    case LockRank::kLockStripe: return "lock_stripe";
    case LockRank::kRidMapStripe: return "rid_map_stripe";
    case LockRank::kColdBuilder: return "cold_builder";
    case LockRank::kColdSegments: return "cold_segments";
    case LockRank::kColdIndexShard: return "cold_index_shard";
    case LockRank::kHashBucket: return "hash_bucket";
    case LockRank::kIlmQueue: return "ilm_queue";
    case LockRank::kTsfModel: return "tsf_model";
    case LockRank::kGcShard: return "gc_shard";
    case LockRank::kBTreeRoot: return "btree_root";
    case LockRank::kBufferMap: return "buffer_map";
    case LockRank::kPageFrame: return "page_frame";
    case LockRank::kIndexFreeList: return "index_free_list";
    case LockRank::kGroupCommit: return "group_commit";
    case LockRank::kLogInternal: return "log_internal";
    case LockRank::kDeviceInternal: return "device_internal";
    case LockRank::kFaultPlan: return "fault_plan";
    case LockRank::kAllocShard: return "alloc_shard";
    case LockRank::kCheckpointStash: return "checkpoint_stash";
    case LockRank::kGcDeferred: return "gc_deferred";
    case LockRank::kIlmLastCycle: return "ilm_last_cycle";
    case LockRank::kSamplerRing: return "sampler_ring";
    case LockRank::kTestA: return "test_a";
    case LockRank::kTestB: return "test_b";
  }
  return "unknown";
}

}  // namespace btrim

#if defined(BTRIM_LOCK_ORDER_CHECKS)

#include <algorithm>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace btrim {
namespace {

struct HeldLock {
  LockRank rank;
  const char* name;  // static-storage string supplied at lock construction
};

// The held-lock stack of the current thread. Releases may be out of order
// (PageGuard transfers frame latches across scopes), so this is a vector
// searched from the back, not a strict stack.
thread_local std::vector<HeldLock> tls_held;

uint32_t EdgeKey(LockRank from, LockRank to) {
  return (static_cast<uint32_t>(from) << 16) | static_cast<uint32_t>(to);
}

std::string DescribeStack(const std::vector<HeldLock>& held) {
  std::string out;
  for (const auto& h : held) {
    if (!out.empty()) out += " -> ";
    out += h.name;
    out += "(";
    out += LockRankName(h.rank);
    out += ")";
  }
  return out.empty() ? "<none>" : out;
}

// All cross-thread validator state. Guarded by mu (a raw std::shared_mutex:
// the validator sits below every tracked lock and must not recurse into the
// instrumented wrappers).
struct ValidatorState {
  mutable std::shared_mutex mu;
  std::unordered_set<uint32_t> edges;
  std::unordered_map<uint16_t, std::vector<uint16_t>> adjacency;
  // Held-lock stack of the thread that first observed each edge.
  std::unordered_map<uint32_t, std::string> edge_stacks;
  std::vector<LockOrderValidator::Violation> violations;
};

ValidatorState& State() {
  static ValidatorState* state = new ValidatorState();  // leaked singleton
  return *state;
}

// True when `target` is reachable from `start` in the acquisition graph;
// fills `path` with the rank sequence start -> ... -> target. Caller holds
// the state mutex.
bool FindPath(const ValidatorState& s, uint16_t start, uint16_t target,
              std::vector<uint16_t>* path) {
  std::unordered_map<uint16_t, uint16_t> parent;
  std::deque<uint16_t> queue{start};
  parent[start] = start;
  while (!queue.empty()) {
    const uint16_t node = queue.front();
    queue.pop_front();
    if (node == target) {
      std::vector<uint16_t> reversed;
      for (uint16_t n = target; n != start; n = parent[n]) reversed.push_back(n);
      reversed.push_back(start);
      path->assign(reversed.rbegin(), reversed.rend());
      return true;
    }
    auto it = s.adjacency.find(node);
    if (it == s.adjacency.end()) continue;
    for (uint16_t next : it->second) {
      if (parent.emplace(next, node).second) queue.push_back(next);
    }
  }
  return false;
}

}  // namespace

LockOrderValidator* LockOrderValidator::Global() {
  static LockOrderValidator* validator = new LockOrderValidator();  // leaked singleton
  return validator;
}

void LockOrderValidator::OnAcquire(LockRank rank, const char* name) {
  if (!tls_held.empty() && tls_held.back().rank != rank) {
    const LockRank from = tls_held.back().rank;
    const uint32_t key = EdgeKey(from, rank);
    ValidatorState& s = State();
    bool known;
    {
      std::shared_lock<std::shared_mutex> read(s.mu);
      known = s.edges.count(key) != 0;
    }
    if (!known) {
      std::unique_lock<std::shared_mutex> write(s.mu);
      if (s.edges.insert(key).second) {
        // First observation of this nesting: does the reverse direction
        // already exist (directly or transitively)? Check before wiring the
        // new edge in, so the path found is the pre-existing reverse path.
        std::vector<uint16_t> path;
        const bool cycle =
            FindPath(s, static_cast<uint16_t>(rank),
                     static_cast<uint16_t>(from), &path);
        s.adjacency[static_cast<uint16_t>(from)].push_back(
            static_cast<uint16_t>(rank));
        s.edge_stacks[key] = DescribeStack(tls_held);
        if (cycle) {
          Violation v;
          v.from = from;
          v.to = rank;
          for (size_t i = 0; i < path.size(); ++i) {
            if (i > 0) v.cycle += " -> ";
            v.cycle += LockRankName(static_cast<LockRank>(path[i]));
          }
          v.cycle += " -> ";
          v.cycle += LockRankName(rank);
          v.acquire_stack = DescribeStack(tls_held);
          v.acquire_stack += " -> ";
          v.acquire_stack += name;
          v.acquire_stack += "(";
          v.acquire_stack += LockRankName(rank);
          v.acquire_stack += ")";
          // The reverse path's first hop carries the stack of the thread
          // that originally nested the locks the other way around.
          const uint32_t reverse_key =
              path.size() >= 2 ? EdgeKey(static_cast<LockRank>(path[0]),
                                         static_cast<LockRank>(path[1]))
                               : EdgeKey(rank, from);
          auto it = s.edge_stacks.find(reverse_key);
          v.prior_stack = it != s.edge_stacks.end() ? it->second : "<unknown>";
          s.violations.push_back(std::move(v));
        }
      }
    }
  }
  tls_held.push_back(HeldLock{rank, name});
}

void LockOrderValidator::OnTryAcquire(LockRank rank, const char* name) {
  // No edge: a successful try-acquisition never waited, so it cannot be the
  // blocked hop of any deadlock cycle. It still joins the held stack so
  // that blocking acquisitions made *under* it record their edges.
  tls_held.push_back(HeldLock{rank, name});
}

void LockOrderValidator::OnRelease(LockRank rank, const char* name) {
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (it->rank == rank && (it->name == name || name == nullptr)) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
  // A release the validator never saw acquired (e.g. a lock constructed
  // unranked then re-ranked) is ignored rather than treated as corruption.
}

int64_t LockOrderValidator::ViolationCount() const {
  ValidatorState& s = State();
  std::shared_lock<std::shared_mutex> read(s.mu);
  return static_cast<int64_t>(s.violations.size());
}

std::vector<LockOrderValidator::Violation> LockOrderValidator::Violations()
    const {
  ValidatorState& s = State();
  std::shared_lock<std::shared_mutex> read(s.mu);
  return s.violations;
}

std::string LockOrderValidator::Report() const {
  ValidatorState& s = State();
  std::shared_lock<std::shared_mutex> read(s.mu);
  std::string out;
  for (const auto& v : s.violations) {
    out += "lock-order cycle: ";
    out += v.cycle;
    out += "\n  acquiring thread held: ";
    out += v.acquire_stack;
    out += "\n  reverse order first seen: ";
    out += v.prior_stack;
    out += "\n";
  }
  return out;
}

void LockOrderValidator::ResetForTest() {
  ValidatorState& s = State();
  std::unique_lock<std::shared_mutex> write(s.mu);
  s.edges.clear();
  s.adjacency.clear();
  s.edge_stacks.clear();
  s.violations.clear();
}

}  // namespace btrim

#endif  // BTRIM_LOCK_ORDER_CHECKS
