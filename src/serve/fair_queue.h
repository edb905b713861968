// Per-tenant fair admission in front of the estimation workers: token
// buckets for rate, weighted occupancy caps for queue share, and a
// deficit-round-robin drain so one hot tenant cannot starve the rest.
//
// The queue is the service's admission point. Its contract: TryPush
// never blocks (a refusal is a structured signal, not a parking lot),
// Pop blocks (consumers are dedicated workers), and Close picks
// drain-or-drop with nothing silently lost. On top of that it adds
// three tenant disciplines, in the order a request meets them:
//
//   1. Token bucket (rate): each tenant accrues `rate` tokens/second
//      up to `burst`; a push with no token is *throttled* — a per-
//      tenant verdict with a retry-after hint telling the client when
//      the next token lands. rate 0 = unlimited (no bucket).
//   2. Occupancy cap (space): a tenant may hold at most
//      capacity * weight / (sum of active tenants' weights) queued
//      items (at least one), where "active" means tenants with queued
//      work plus the pusher. A flooding tenant saturates its own share
//      and is throttled; the remaining capacity stays available to
//      everyone else, so their pushes keep admitting.
//   3. Weighted drain (time): Pop serves tenant subqueues by deficit
//      round-robin — each pass over the active ring grants a tenant
//      `weight` credits and serving one item costs one credit, so
//      long-run worker time divides proportionally to weight. A single
//      active tenant degenerates to plain FIFO.
//
// Tenancy is by name; the empty tenant maps to "default". Tenants are
// created on first push and their admitted/throttled counters persist
// after their queues drain (the stats verb reports lifetime numbers).

#ifndef TWIG_SERVE_FAIR_QUEUE_H_
#define TWIG_SERVE_FAIR_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace twig::serve {

/// The tenant id requests resolve to when they carry none.
inline constexpr const char kDefaultTenant[] = "default";

/// Normalizes a wire-supplied tenant id: empty means "default".
inline std::string_view ResolveTenantId(std::string_view id) {
  return id.empty() ? std::string_view(kDefaultTenant) : id;
}

/// One tenant's admission contract.
struct TenantQuota {
  /// Token-bucket refill, tokens (requests) per second; 0 = unlimited
  /// (the bucket is skipped entirely).
  double rate = 0;
  /// Bucket depth: how large a burst an idle tenant may land at once.
  /// Values below 1 are clamped to 1 (a tenant must be able to send
  /// *something*).
  double burst = 8;
  /// Share of queue space and worker time relative to other tenants.
  /// Clamped to a small positive minimum.
  double weight = 1;
};

/// Quotas for everyone: a default contract plus per-tenant overrides.
struct TenantPolicy {
  TenantQuota defaults;
  std::map<std::string, TenantQuota, std::less<>> overrides;
  /// Retry hint attached to occupancy-cap throttles (a rate throttle
  /// hints the time until the next token instead).
  std::chrono::milliseconds occupancy_retry{10};

  const TenantQuota& QuotaFor(std::string_view tenant) const {
    auto it = overrides.find(tenant);
    return it == overrides.end() ? defaults : it->second;
  }
};

/// Lifetime accounting for one tenant, for the `stats` verb.
struct TenantStats {
  std::string tenant;
  uint64_t admitted = 0;
  uint64_t throttled = 0;
  size_t queued = 0;
  double weight = 1;
};

template <typename T>
class FairQueue {
 public:
  enum class PushVerdict {
    kAdmitted,   // queued; Pop will deliver it
    kThrottled,  // tenant out of tokens or over its occupancy share
    kFull,       // queue at total capacity (tenant-independent overload)
    kClosed,     // shutting down
  };

  using Clock = std::chrono::steady_clock;

  explicit FairQueue(size_t capacity, TenantPolicy policy = {})
      : capacity_(capacity == 0 ? 1 : capacity),
        policy_(std::move(policy)) {}

  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  /// Enqueues `item` under `tenant` (empty = "default"), or refuses
  /// without blocking. The item is untouched on refusal, so the caller
  /// can still complete it. On kThrottled, `*retry_after` (when
  /// non-null) is set to the backoff hint: time until the tenant's
  /// next token, or the policy's occupancy_retry for a share cap.
  PushVerdict TryPush(std::string_view tenant, T& item,
                      std::chrono::milliseconds* retry_after = nullptr,
                      Clock::time_point now = Clock::now()) {
    const std::string_view id = ResolveTenantId(tenant);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushVerdict::kClosed;
      Tenant& state = TenantFor(id);
      if (state.quota.rate > 0 && !TakeToken(state, now)) {
        ++state.throttled;
        if (retry_after != nullptr) *retry_after = TokenWait(state);
        return PushVerdict::kThrottled;
      }
      if (total_queued_ >= capacity_) {
        // Tenant-independent overload. No token was minted back: the
        // tenant did spend its rate allowance trying.
        return PushVerdict::kFull;
      }
      if (state.queue.size() >= OccupancyCap(state)) {
        ++state.throttled;
        if (retry_after != nullptr) *retry_after = policy_.occupancy_retry;
        return PushVerdict::kThrottled;
      }
      state.queue.push_back(std::move(item));
      ++total_queued_;
      ++state.admitted;
      if (state.queue.size() == 1) Activate(&state);
    }
    ready_.notify_one();
    return PushVerdict::kAdmitted;
  }

  /// Blocks until an item is available (returned) or the queue will
  /// never produce one again (nullopt): closed with drain once empty,
  /// or closed without drain immediately. Items are delivered by
  /// deficit round-robin over tenants with queued work.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || total_queued_ > 0; });
    if (total_queued_ == 0 || (closed_ && !drain_)) return std::nullopt;
    // DRR: visit the active ring; a visit with credit serves one item
    // (cost 1), a visit without refills by `weight` and moves on. Every
    // pass grants each active tenant weight credits, so service rates
    // are weight-proportional. Terminates: credits strictly grow on
    // non-serving visits and some queue is nonempty.
    for (;;) {
      Tenant* tenant = active_[cursor_ % active_.size()];
      if (tenant->credit < 1.0) {
        tenant->credit += tenant->weight;
        cursor_ = (cursor_ + 1) % active_.size();
        continue;
      }
      tenant->credit -= 1.0;
      T item = std::move(tenant->queue.front());
      tenant->queue.pop_front();
      --total_queued_;
      if (tenant->queue.empty()) Deactivate(tenant);
      return item;
    }
  }

  /// Closes the queue: every subsequent TryPush refuses with kClosed.
  /// With `drain`, consumers keep popping until empty; without it they
  /// wake with nullopt at once and the unconsumed items are returned
  /// for the caller to complete. Idempotent.
  std::vector<T> Close(bool drain) {
    std::vector<T> leftovers;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!closed_) {
        closed_ = true;
        drain_ = drain;
        if (!drain) {
          leftovers.reserve(total_queued_);
          for (auto& [id, tenant] : tenants_) {
            for (T& item : tenant.queue) leftovers.push_back(std::move(item));
            tenant.queue.clear();
          }
          total_queued_ = 0;
          active_.clear();
          cursor_ = 0;
        }
      }
    }
    ready_.notify_all();
    return leftovers;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_queued_;
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Lifetime per-tenant accounting, sorted by tenant id. Tenants that
  /// ever pushed are reported even when currently idle.
  std::vector<TenantStats> tenant_stats() const {
    std::vector<TenantStats> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(tenants_.size());
    for (const auto& [id, tenant] : tenants_) {
      TenantStats stats;
      stats.tenant = id;
      stats.admitted = tenant.admitted;
      stats.throttled = tenant.throttled;
      stats.queued = tenant.queue.size();
      stats.weight = tenant.weight;
      out.push_back(std::move(stats));
    }
    return out;
  }

 private:
  struct Tenant {
    TenantQuota quota;
    double weight = 1;           // quota.weight, clamped positive
    double tokens = 0;           // current bucket level
    Clock::time_point refilled;  // last bucket update
    std::deque<T> queue;
    double credit = 0;           // DRR deficit counter
    bool active = false;         // member of active_
    uint64_t admitted = 0;
    uint64_t throttled = 0;
  };

  Tenant& TenantFor(std::string_view id) {
    auto it = tenants_.find(id);
    if (it != tenants_.end()) return it->second;
    Tenant tenant;
    tenant.quota = policy_.QuotaFor(id);
    tenant.quota.burst = std::max(1.0, tenant.quota.burst);
    tenant.weight = std::max(1e-3, tenant.quota.weight);
    tenant.tokens = tenant.quota.burst;  // a fresh tenant may burst
    tenant.refilled = Clock::now();
    return tenants_.emplace(std::string(id), std::move(tenant))
        .first->second;
  }

  bool TakeToken(Tenant& tenant, Clock::time_point now) {
    if (now > tenant.refilled) {
      const double dt = std::chrono::duration<double>(now - tenant.refilled)
                            .count();
      tenant.tokens =
          std::min(tenant.quota.burst, tenant.tokens + dt * tenant.quota.rate);
      tenant.refilled = now;
    }
    if (tenant.tokens < 1.0) return false;
    tenant.tokens -= 1.0;
    return true;
  }

  std::chrono::milliseconds TokenWait(const Tenant& tenant) const {
    const double deficit = std::max(0.0, 1.0 - tenant.tokens);
    const double ms = std::ceil(deficit / tenant.quota.rate * 1e3);
    return std::chrono::milliseconds(
        std::max<int64_t>(1, static_cast<int64_t>(ms)));
  }

  /// The pusher's queue-space share: capacity split by weight over the
  /// tenants currently holding work (the pusher included), never below
  /// one slot. Recomputed per push — shares tighten as more tenants
  /// activate and relax as they drain.
  size_t OccupancyCap(const Tenant& pusher) const {
    double active_weight = pusher.active ? 0.0 : pusher.weight;
    for (const Tenant* tenant : active_) active_weight += tenant->weight;
    const double share = static_cast<double>(capacity_) * pusher.weight /
                         std::max(pusher.weight, active_weight);
    return std::max<size_t>(1, static_cast<size_t>(share));
  }

  void Activate(Tenant* tenant) {
    if (tenant->active) return;
    tenant->active = true;
    tenant->credit = std::max(tenant->credit, tenant->weight);
    active_.push_back(tenant);
  }

  void Deactivate(Tenant* tenant) {
    tenant->active = false;
    tenant->credit = 0;
    auto it = std::find(active_.begin(), active_.end(), tenant);
    const size_t index = static_cast<size_t>(it - active_.begin());
    active_.erase(it);
    // Keep the cursor on the element that followed the removed one.
    if (!active_.empty() && cursor_ > index) --cursor_;
    if (!active_.empty()) cursor_ %= active_.size();
  }

  const size_t capacity_;
  const TenantPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  /// Node-stable map: Tenant* stays valid across inserts, so active_
  /// may hold raw pointers.
  std::map<std::string, Tenant, std::less<>> tenants_;
  /// Tenants with queued work, in DRR ring order.
  std::vector<Tenant*> active_;
  size_t cursor_ = 0;
  size_t total_queued_ = 0;
  bool closed_ = false;
  bool drain_ = true;
};

}  // namespace twig::serve

#endif  // TWIG_SERVE_FAIR_QUEUE_H_
