// Deterministic fault injection: named failpoints compiled into the
// riskiest seams of the serving path (snapshot rebuild/publish, queue
// admission, worker estimate execution, TCP read/write, store page
// reads and checksums) and activated at runtime — `twig_serve
// --failpoints=name=action:arg,...` at startup, or the `failpoint` wire
// verb mid-run.
//
// Design constraints, in order:
//   * Zero overhead when disabled. A process with no armed failpoint
//     pays one relaxed atomic load per site (a global armed count);
//     the registry, its mutex, and the name lookup are only touched
//     once something is armed. The acceptance bar is "compiled in but
//     disabled is within noise of not compiled in".
//   * Deterministic. Probabilistic triggering draws from one seeded
//     Rng owned by the registry, so a chaos schedule replays the same
//     trigger sequence for the same seed and evaluation order.
//   * Observable. Every failpoint counts hits (evaluations while
//     armed) and triggers (actions actually fired), surfaced on the
//     `failpoint` wire verb so a chaos harness can assert its faults
//     actually landed.
//
// Actions (the spec grammar of Configure / --failpoints):
//   name=off            disarm
//   name=error[:p]      Evaluate returns Unavailable with prob. p (1)
//   name=delay:ms[:p]   Evaluate sleeps ms milliseconds
//   name=crash-once     first trigger crashes the process, then disarms
//                       (the handler is injectable for tests)
//
// Call sites decide what a fired error *means*: the serving layer
// forwards the transient Unavailable, the buffer pool's checksum seam
// maps it to the same structured Corruption a damaged page would
// produce.

#ifndef TWIG_UTIL_FAILPOINT_H_
#define TWIG_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace twig::util {

enum class FailpointAction : uint8_t {
  kOff,
  kError,
  kDelay,
  kCrashOnce,
};

/// Stable spelling of an action ("error", "delay", ...).
const char* FailpointActionName(FailpointAction action);

/// One failpoint's configuration + lifetime stats, as returned by
/// FailpointRegistry::Snapshot for the `failpoint` wire verb.
struct FailpointInfo {
  std::string name;
  FailpointAction action = FailpointAction::kOff;
  /// Trigger probability in [0, 1] (error/delay actions).
  double probability = 1.0;
  /// Sleep for delay actions.
  uint32_t delay_ms = 0;
  /// Evaluations that reached an armed entry.
  uint64_t hits = 0;
  /// Evaluations whose action actually fired.
  uint64_t triggers = 0;
};

namespace failpoint_internal {
/// Count of armed failpoints across the process; the disabled fast
/// path is a single relaxed load of this.
extern std::atomic<int> g_armed_count;
}  // namespace failpoint_internal

/// True when at least one failpoint is armed anywhere in the process.
inline bool FailpointsArmed() {
  return failpoint_internal::g_armed_count.load(std::memory_order_relaxed) >
         0;
}

/// The process-wide failpoint table. All methods are thread-safe.
class FailpointRegistry {
 public:
  static FailpointRegistry& Get();

  /// Applies one "action[:arg[:p]]" spec to `name`. Names are
  /// restricted to [A-Za-z0-9_./-] (they round-trip through JSON and
  /// flag syntax unescaped). Configuring "off" disarms but keeps the
  /// entry's stats.
  Status Configure(std::string_view name, std::string_view spec);

  /// Applies a comma-separated "name=spec,name=spec,..." list (the
  /// --failpoints flag / wire verb grammar). Stops at the first bad
  /// entry, leaving earlier ones applied.
  Status ConfigureList(std::string_view list);

  /// Reseeds the trigger Rng (default seed is fixed). Affects
  /// subsequent draws only.
  void Seed(uint64_t seed);

  /// Disarms everything and forgets all entries and stats.
  void Reset();

  /// The slow path behind FailpointCheck: looks `name` up and applies
  /// its action. Returns Unavailable("injected fault at <name>") when
  /// an error action fires, OK otherwise (delay sleeps, crash-once
  /// crashes). Also OK for names never configured.
  Status Evaluate(std::string_view name);

  /// All configured entries (armed or not), name order.
  std::vector<FailpointInfo> Snapshot() const;

  /// Lifetime stats for one name; zeros when never configured.
  FailpointInfo Info(std::string_view name) const;

  /// Replaces the crash-once action's handler (default: abort). Tests
  /// install a recorder so the action is coverable without a death
  /// test. Pass nullptr to restore the default.
  void SetCrashHandlerForTest(std::function<void()> handler);

 private:
  FailpointRegistry();
  struct Impl;
  Impl* impl_;
};

/// The hit-site helper: free when nothing is armed, one registry
/// lookup when something is. Sites that can fail return the status;
/// sites that only stall call it for the delay side effect.
inline Status FailpointCheck(std::string_view name) {
  if (!FailpointsArmed()) return Status::OK();
  return FailpointRegistry::Get().Evaluate(name);
}

}  // namespace twig::util

#endif  // TWIG_UTIL_FAILPOINT_H_
