// The estimation service: a tenant-fair bounded request queue in
// front of a pool of estimation workers reading from a DatasetCatalog
// (or a single wrapped SnapshotCatalog).
//
// Admission discipline (in the order a request meets it):
//   0. Dataset routing: the request's dataset id (empty = "default")
//     resolves to its SnapshotCatalog at admission; an unknown id
//     rejects with InvalidArgument before costing anything else.
//   0b. Result cache (when enabled): a request whose (dataset, current
//     snapshot version, algorithm, semantics, canonical twig) was
//     answered before resolves immediately with the cached,
//     bit-identical estimate — it never touches the queue, so a hit
//     cannot be rejected as overload and costs no worker time.
//   1. Backpressure, tenant-fair (serve/fair_queue.h): a tenant over
//     its token-bucket rate or its weighted queue share is *throttled*
//     (Unavailable with a retry_after hint); a full queue rejects with
//     overload. Either way the caller is never blocked and queued work
//     drains by deficit round-robin, so one hot tenant cannot starve
//     the rest.
//   2. Deadlines: each request carries an absolute deadline (or
//     inherits the service default). A request that expires while
//     queued is answered DeadlineExceeded by the worker that dequeues
//     it — expiry costs a dequeue, not an estimate.
//   3. Snapshot pinning: the worker pins catalog->Current() for
//     exactly one request, so a hot swap mid-stream never mixes
//     versions within a response and the answer records which version
//     produced it.
//   4. Shutdown: Shutdown(drain=true) (also the destructor) answers
//     everything already admitted, then stops; Shutdown(drain=false)
//     rejects the queued remainder with Unavailable. Either way every
//     admitted request gets exactly one response.
//
// Every stage feeds obs::MetricsRegistry: serve_enqueued /
// serve_served / serve_rejected / serve_deadline_misses counters, the
// serve_wait latency series (time from admission to dequeue), and the
// per-algorithm estimate latency series (execution time).
//
// Submit hands every response to a completion callback, exactly once;
// in-process callers use the future-returning wrapper. The serve
// workers are num_workers plain threads: Shutdown closes the queue,
// they drain it, and then they are joined.

#ifndef TWIG_SERVE_SERVICE_H_
#define TWIG_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include <memory>

#include "core/canonical.h"
#include "core/estimator.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "query/twig.h"
#include "serve/fair_queue.h"
#include "serve/health.h"
#include "serve/result_cache.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace twig::serve {

struct ServiceOptions {
  /// Estimation workers; 0 = one per hardware thread.
  size_t num_workers = 2;
  /// Requests the queue holds before rejecting with overload.
  size_t queue_capacity = 256;
  /// Deadline applied to requests that carry none; zero = unbounded.
  std::chrono::milliseconds default_deadline{0};
  /// Result cache entries (serve/result_cache.h); 0 disables the
  /// cache. Hits are answered at admission, before the queue, so a
  /// cached request can never be rejected as overload.
  size_t cache_entries = 0;
  /// Result cache shards (rounded to a power of two).
  size_t cache_shards = 8;
  /// Flight recorder entries (rounded to a power of two); 0 disables
  /// span tracing and the recorder entirely.
  size_t recorder_entries = 256;
  /// Slow-log ring entries.
  size_t recorder_slow_entries = 64;
  /// A request whose admission-to-reply time reaches this is retained
  /// in the slow log; zero disables the slow log.
  std::chrono::microseconds slow_threshold{50000};
  /// Accuracy sampling rate: every Nth successful estimate is
  /// re-executed against the exact matcher on the pinned snapshot's
  /// tree (when the snapshot carries one) and the signed relative
  /// error recorded. 0 disables sampling.
  uint32_t accuracy_sample_every = 0;
  /// Health state machine thresholds (serve/health.h): when brown-out
  /// begins and ends, and the Retry-After hint shed responses carry.
  HealthOptions health;
  /// Per-tenant admission quotas and weights (serve/fair_queue.h).
  /// The defaults — unlimited rate, weight 1 — make single-tenant
  /// traffic behave exactly like the plain bounded queue.
  TenantPolicy tenants;
  /// Test seam: runs on the worker after dequeuing each request,
  /// before the deadline check. Lets tests hold a worker mid-request
  /// to force deterministic overload / expiry / drain scenarios.
  std::function<void()> dequeue_hook;
};

struct EstimateRequest {
  query::Twig twig;
  core::Algorithm algorithm = core::Algorithm::kMsh;
  core::CountSemantics semantics = core::CountSemantics::kOccurrence;
  /// Absolute deadline; time_point::max() = none (the service default
  /// applies at admission).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Dataset to answer against; empty = "default". An unregistered
  /// dataset rejects with InvalidArgument at admission.
  std::string dataset;
  /// Tenant the request bills to; empty = "default". Quotas and queue
  /// shares come from ServiceOptions::tenants.
  std::string tenant;
};

struct EstimateResponse {
  /// OK, Unavailable (overload / shutdown / no snapshot), or
  /// DeadlineExceeded.
  Status status;
  double estimate = 0;
  /// Version of the snapshot that served the request (0 if none did).
  uint64_t snapshot_version = 0;
  /// Admission-to-dequeue wait; zero for requests rejected at
  /// admission, admission-to-answer for cache hits.
  std::chrono::nanoseconds queue_wait{0};
  /// Time inside TwigEstimator::Estimate; zero unless status is OK.
  /// Cache hits echo the exec_time of the compute that filled the
  /// entry, not the (near-zero) hit cost — see serve_cache_hit series
  /// for the latter.
  std::chrono::nanoseconds exec_time{0};
  /// True when the estimate was answered from the result cache (same
  /// snapshot version, bit-identical value).
  bool cached = false;
  /// Server backoff hint for rejected requests (nonzero only on
  /// brown-out sheds): "come back after this long". Rendered on the
  /// wire as retry_after_ms inside the error object.
  std::chrono::milliseconds retry_after{0};
};

/// Runs one estimate on `summary` and fails it closed. A paged summary
/// degrades a failed page read to a miss mid-walk instead of erroring;
/// if any read degraded while this estimate ran, the result is
/// Unavailable, never the skewed number, and `health` turns degraded
/// with the storage cause. The service's workers and the TCP `explain`
/// verb both estimate through it.
Result<double> TryEstimateFailClosed(const cst::CstView& summary,
                                     const query::Twig& twig,
                                     core::Algorithm algorithm,
                                     const core::EstimateOptions& options,
                                     HealthMonitor* health);

class EstimateService {
 public:
  /// Single-dataset compatibility constructor: wraps `catalog` as the
  /// "default" dataset of an internal DatasetCatalog. `catalog` must
  /// outlive the service. Workers start immediately; requests
  /// submitted before the first Publish are answered Unavailable.
  explicit EstimateService(SnapshotCatalog* catalog,
                           const ServiceOptions& options = {});

  /// Multi-dataset constructor: requests route by EstimateRequest::
  /// dataset against `datasets`, which must outlive the service and
  /// have every dataset registered before construction (rebuild
  /// listeners are wired here; later registrations serve but do not
  /// flip health on rebuild failures).
  explicit EstimateService(DatasetCatalog* datasets,
                           const ServiceOptions& options = {});

  EstimateService(const EstimateService&) = delete;
  EstimateService& operator=(const EstimateService&) = delete;

  /// Equivalent to Shutdown(/*drain=*/true).
  ~EstimateService();

  /// Receives a request's response. Runs inline in Submit for
  /// rejections and cache hits, on a serve worker otherwise, and on
  /// the Shutdown caller for requests a non-draining Shutdown rejects;
  /// it must not block.
  using Completion = std::function<void(EstimateResponse)>;

  /// Admits `request` (or rejects it immediately) and calls `done`
  /// exactly once — with an estimate, a structured rejection, or a
  /// deadline miss. Never blocks.
  void Submit(EstimateRequest request, Completion done);

  /// Submit, with the response delivered through a future.
  std::future<EstimateResponse> Submit(EstimateRequest request);

  /// Convenience: Submit and wait for the response.
  EstimateResponse SubmitAndWait(EstimateRequest request);

  /// Stops the service. With `drain`, requests already admitted are
  /// answered first; without it they are rejected with Unavailable.
  /// Either way new Submits reject, every admitted request's
  /// completion runs, and the workers are joined before returning.
  /// Idempotent (the first caller's drain choice wins).
  void Shutdown(bool drain);

  size_t queue_depth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }
  size_t num_workers() const { return num_workers_; }

  /// The dataset map requests route against (the internal wrapper for
  /// the single-catalog constructor).
  DatasetCatalog* datasets() const { return datasets_; }

  /// Lifetime per-tenant admission accounting, for the stats verb.
  std::vector<TenantStats> tenant_stats() const {
    return queue_.tenant_stats();
  }

  /// The result cache, nullptr when options.cache_entries was 0.
  const ResultCache* result_cache() const { return cache_.get(); }

  /// The flight recorder, nullptr when options.recorder_entries was 0.
  const obs::FlightRecorder* recorder() const { return recorder_.get(); }

  /// The health state machine. Report() for the `health` verb; tests
  /// may SetDegraded/ClearDegraded directly.
  HealthMonitor& health() { return health_; }
  const HealthMonitor& health() const { return health_; }

 private:
  struct Item {
    EstimateRequest request;
    Completion done;
    std::chrono::steady_clock::time_point enqueued;
    /// Canonical form computed once at admission (for the cache
    /// lookup) and reused by the worker to insert under the snapshot
    /// version that actually served the request. Empty text = caching
    /// disabled for this item.
    core::CanonicalQueryKey canonical;
    /// The request's timeline; inactive when the recorder is disabled.
    obs::RequestSpan span;
    /// The dataset's catalog, resolved at admission so the worker
    /// never re-routes (and an unknown dataset never reaches a
    /// worker). Normalized dataset id alongside, for the cache key.
    SnapshotCatalog* catalog = nullptr;
    std::string dataset;
  };

  /// One worker's serve loop: pop, check deadline, pin snapshot,
  /// estimate, respond. Returns when the queue closes.
  void ServeLoop();

  /// Completes `item` with a rejection, counts it, and lands its span.
  /// `retry_after` is the server backoff hint (zero = none).
  void Reject(Item item, Status status,
              std::chrono::milliseconds retry_after =
                  std::chrono::milliseconds{0});

  /// Marks the reply stage, stamps the outcome, and hands the finished
  /// span to the recorder. No-op on an inactive span.
  void FinishSpan(Item& item, obs::SpanOutcome outcome);

  /// Shared tail of the public constructors; `owned` is the wrapper
  /// catalog the single-dataset constructor builds (null otherwise).
  EstimateService(DatasetCatalog* datasets,
                  std::unique_ptr<DatasetCatalog> owned,
                  const ServiceOptions& options);

  /// The single-catalog constructor's wrapper; null when the caller
  /// provided a DatasetCatalog. Declared before datasets_ so the
  /// member initializer may read it.
  std::unique_ptr<DatasetCatalog> owned_datasets_;
  DatasetCatalog* const datasets_;
  const ServiceOptions options_;
  const size_t num_workers_;
  /// Health state machine; fed by admission (Assess) and the workers
  /// (ObserveOutcome), flipped degraded by the catalog's rebuild
  /// listener.
  HealthMonitor health_;
  /// Created before the workers, destroyed after them; workers insert
  /// into it and Submit reads it, both through the pointer.
  std::unique_ptr<ResultCache> cache_;
  /// Created before the workers, destroyed after them (lock-free; any
  /// thread records). nullptr disables span tracing.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  FairQueue<Item> queue_;
  std::atomic<bool> shut_down_{false};
  std::mutex shutdown_mutex_;
  /// Request ids for spans, monotone from 1.
  std::atomic<uint64_t> next_request_id_{1};
  /// Accuracy sampler tick: every Nth successful estimate is checked.
  std::atomic<uint64_t> accuracy_tick_{0};
  /// num_workers_ threads, each running ServeLoop until the queue
  /// closes; declared after everything they use, joined by Shutdown.
  std::vector<std::thread> workers_;
};

}  // namespace twig::serve

#endif  // TWIG_SERVE_SERVICE_H_
