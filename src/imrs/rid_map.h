#ifndef BTRIM_IMRS_RID_MAP_H_
#define BTRIM_IMRS_RID_MAP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/counters.h"
#include "common/hash.h"
#include "common/spinlock.h"
#include "imrs/row.h"
#include "obs/metrics_registry.h"
#include "page/page.h"

namespace btrim {

/// The RID-Map table (paper Sec. II, the yellow box): resolves a RID to the
/// in-memory row, if any. Every index access and page-store scan consults it
/// to decide whether the row's truth is in the IMRS or in the buffer cache.
///
/// Striped hash table: each stripe is an unordered_map guarded by a
/// spinlock. Lookups on distinct stripes never contend.
class RidMap {
 public:
  explicit RidMap(size_t stripes = 256) : num_stripes_(RoundUp(stripes)) {
    stripes_ = std::make_unique<Stripe[]>(num_stripes_);
  }

  RidMap(const RidMap&) = delete;
  RidMap& operator=(const RidMap&) = delete;

  void Insert(Rid rid, ImrsRow* row) {
    Stripe& s = StripeFor(rid);
    SpinLockGuard guard(s.lock);
    s.map[rid.Encode()] = row;
    entries_.Add(1);
  }

  /// Removes the mapping; returns true when it existed.
  bool Erase(Rid rid) {
    Stripe& s = StripeFor(rid);
    SpinLockGuard guard(s.lock);
    if (s.map.erase(rid.Encode()) > 0) {
      entries_.Add(-1);
      return true;
    }
    return false;
  }

  /// Returns the in-memory row for `rid`, or nullptr when the row lives
  /// only in the page store.
  ImrsRow* Lookup(Rid rid) const {
    lookups_.Inc();
    Stripe& s = StripeFor(rid);
    SpinLockGuard guard(s.lock);
    auto it = s.map.find(rid.Encode());
    if (it == s.map.end()) return nullptr;
    hits_.Inc();
    return it->second;
  }

  int64_t Size() const { return entries_.Load(); }

  /// Visits every mapping (recovery index rebuild, experiments). Not
  /// consistent with concurrent mutation; callers run quiesced.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < num_stripes_; ++i) {
      SpinLockGuard guard(stripes_[i].lock);
      for (const auto& [rid, row] : stripes_[i].map) {
        fn(Rid::Decode(rid), row);
      }
    }
  }

  /// Registers the RID-map counters into the unified metrics registry under
  /// `rid_map.*`. `entries` is exported as a gauge: it shrinks when rows
  /// are purged or packed out of the IMRS.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const {
    const obs::MetricLabels l{subsystem, "", "", ""};
    BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
        "rid_map.entries", l, [this] { return entries_.Load(); }));
    BTRIM_RETURN_IF_ERROR(
        registry->RegisterCounter("rid_map.lookups", l, &lookups_));
    BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("rid_map.hits", l, &hits_));
    return Status::OK();
  }

 private:
  struct alignas(kCacheLineSize) Stripe {
    mutable SpinLock lock{LockRank::kRidMapStripe, "imrs.rid_map"};
    std::unordered_map<uint64_t, ImrsRow*> map BTRIM_GUARDED_BY(lock);
  };

  static size_t RoundUp(size_t n) {
    size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  Stripe& StripeFor(Rid rid) const {
    return stripes_[Mix64(rid.Encode()) & (num_stripes_ - 1)];
  }

  const size_t num_stripes_;
  std::unique_ptr<Stripe[]> stripes_;

  mutable ShardedCounter entries_, lookups_, hits_;
};

}  // namespace btrim

#endif  // BTRIM_IMRS_RID_MAP_H_
