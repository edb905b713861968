// The serving layer's health state machine: ok / degraded / browning
// out, driven by queue depth and deadline-miss rate.
//
// Brown-out is the load-shedding state: entered when the bounded queue
// is nearly full or a sliding window of recent request outcomes shows
// a high deadline-miss rate, exited with hysteresis (the queue must
// drain well below the entry threshold and the post-entry miss rate
// must subside, or the traffic that produced the misses must stop
// entirely for a quiet period). While browning out, the service keeps
// answering result-cache hits — they cost no worker time — and sheds
// uncached work at admission with a Retry-After hint, so upstream
// retry policies spread the returning load instead of stampeding.
//
// Degraded is the sticky operator-facing state: something is wrong but
// the service still answers from the last good snapshot (the canonical
// producer is a failed rebuild — e.g. a corrupt TWCST03 store — which
// leaves the previous snapshot published; failed page reads of a
// served store are the other). It carries a reason string
// for the `health` wire verb and clears when the condition does (the
// next successful rebuild).
//
// Brown-out outranks degraded in the report: shedding changes caller
// behavior now, degraded is advisory.

#ifndef TWIG_SERVE_HEALTH_H_
#define TWIG_SERVE_HEALTH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace twig::serve {

enum class HealthState : uint8_t {
  kOk,
  kDegraded,  // last good snapshot still answering; reason attached
  kBrownout,  // shedding uncached work at admission
};

/// Stable name ("ok", "degraded", "browning-out") for the wire.
const char* HealthStateName(HealthState state);

struct HealthOptions {
  /// Queue depth fraction at which brown-out begins.
  double brownout_queue_fraction = 0.9;
  /// Queue depth fraction the queue must drain to before brown-out can
  /// end (hysteresis: strictly below the entry fraction).
  double recover_queue_fraction = 0.5;
  /// Deadline-miss rate over the outcome window that begins brown-out.
  double brownout_miss_rate = 0.5;
  /// Post-entry miss rate below which brown-out can end.
  double recover_miss_rate = 0.1;
  /// Outcomes retained in the sliding window.
  size_t window = 128;
  /// Outcomes required before the miss rate is trusted at all.
  size_t min_window = 16;
  /// The Retry-After hint attached to shed responses.
  std::chrono::milliseconds retry_after{50};
  /// With no new outcomes for this long, a stale window no longer
  /// holds brown-out open (the misses it remembers are history).
  std::chrono::milliseconds quiet_period{250};
};

/// What the `health` wire verb reports.
struct HealthReport {
  HealthState state = HealthState::kOk;
  /// Why (nonempty for degraded and brown-out).
  std::string reason;
  /// Suggested client backoff; zero outside brown-out.
  std::chrono::milliseconds retry_after{0};
};

/// Thread-safe; one per EstimateService. Workers feed ObserveOutcome,
/// admission calls Assess, the rebuild listener flips the degraded
/// flag.
class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthOptions& options = {});

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Records one finished request: did it miss its deadline?
  void ObserveOutcome(bool deadline_miss);

  /// Re-evaluates brown-out against the queue and returns the state
  /// admission should act on (brown-out wins over degraded).
  HealthState Assess(size_t queue_depth, size_t queue_capacity);

  /// Enters (or re-reasons) the sticky degraded state.
  void SetDegraded(std::string reason);

  /// Leaves degraded (no-op when not degraded).
  void ClearDegraded();

  /// Point-in-time view for the `health` verb. Does not re-run the
  /// brown-out transition logic — call Assess for that.
  HealthReport Report() const;

  std::chrono::milliseconds retry_after() const {
    return options_.retry_after;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Miss rate over the current window; -1 with too few outcomes.
  double MissRateLocked() const;
  void ResetWindowLocked();

  const HealthOptions options_;
  mutable std::mutex mutex_;
  std::vector<uint8_t> window_;  // 1 = deadline miss
  size_t window_pos_ = 0;
  size_t window_filled_ = 0;
  size_t window_misses_ = 0;
  Clock::time_point last_outcome_{};
  bool browning_out_ = false;
  std::string brownout_reason_;
  bool degraded_ = false;
  std::string degraded_reason_;
};

}  // namespace twig::serve

#endif  // TWIG_SERVE_HEALTH_H_
