#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "match/matcher.h"
#include "obs/metrics.h"
#include "stats/metrics.h"
#include "util/failpoint.h"

namespace twig::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ToNanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

Result<double> TryEstimateFailClosed(const cst::CstView& summary,
                                     const query::Twig& twig,
                                     core::Algorithm algorithm,
                                     const core::EstimateOptions& options,
                                     HealthMonitor* health) {
  // The count is per summary, not per request, so a concurrent
  // request's failed read on the same summary fails this one as well.
  const uint64_t errors_before = summary.storage_error_count();
  Result<double> estimate =
      core::TwigEstimator(&summary).TryEstimate(twig, algorithm, options);
  const uint64_t errors = summary.storage_error_count() - errors_before;
  if (!estimate.ok() || errors == 0) return estimate;
  const Status cause = summary.storage_health();
  health->SetDegraded("storage: " + std::string(cause.ok()
                                                    ? "failed page reads"
                                                    : cause.message()));
  return Status::Unavailable(
      "summary storage degraded (" + std::to_string(errors) +
      " failed page reads): " +
      std::string(cause.ok() ? "unknown cause" : cause.message()));
}

namespace {

std::unique_ptr<DatasetCatalog> WrapAsDefault(SnapshotCatalog* catalog) {
  auto datasets = std::make_unique<DatasetCatalog>();
  datasets->Register(kDefaultDataset, catalog);
  return datasets;
}

}  // namespace

EstimateService::EstimateService(SnapshotCatalog* catalog,
                                 const ServiceOptions& options)
    : EstimateService(nullptr, WrapAsDefault(catalog), options) {}

EstimateService::EstimateService(DatasetCatalog* datasets,
                                 const ServiceOptions& options)
    : EstimateService(datasets, nullptr, options) {}

EstimateService::EstimateService(DatasetCatalog* datasets,
                                 std::unique_ptr<DatasetCatalog> owned,
                                 const ServiceOptions& options)
    : owned_datasets_(std::move(owned)),
      datasets_(datasets != nullptr ? datasets : owned_datasets_.get()),
      options_(options),
      num_workers_(options.num_workers == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : options.num_workers),
      health_(options.health),
      cache_(options.cache_entries == 0
                 ? nullptr
                 : std::make_unique<ResultCache>(ResultCacheOptions{
                       options.cache_entries, options.cache_shards})),
      recorder_(options.recorder_entries == 0
                    ? nullptr
                    : std::make_unique<obs::FlightRecorder>(
                          obs::FlightRecorderOptions{
                              options.recorder_entries,
                              options.recorder_slow_entries,
                              static_cast<uint64_t>(
                                  std::chrono::duration_cast<
                                      std::chrono::nanoseconds>(
                                      options.slow_threshold)
                                      .count())})),
      queue_(options.queue_capacity, options.tenants) {
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { ServeLoop(); });
  }
  // A failed rebuild leaves the last good snapshot answering but the
  // operator should know: flip health to degraded with the builder's
  // error as the reason; the next successful rebuild on that dataset
  // clears it. One HealthMonitor covers all datasets (the service
  // brown-out is process-wide), so the reason names the dataset.
  // Shutdown unregisters before this service dies.
  for (const std::string& id : datasets_->DatasetIds()) {
    datasets_->Find(id)->SetRebuildListener([this, id](const Status& status) {
      if (status.ok()) {
        health_.ClearDegraded();
      } else {
        health_.SetDegraded("rebuild failed (dataset '" + id +
                            "'): " + status.message());
      }
    });
  }
}

EstimateService::~EstimateService() { Shutdown(/*drain=*/true); }

void EstimateService::FinishSpan(Item& item, obs::SpanOutcome outcome) {
  if (!item.span.active) return;
  item.span.record.outcome = outcome;
  item.span.Mark(obs::SpanStage::kReplied);
  item.span.active = false;
  recorder_->Record(item.span.record);
}

void EstimateService::Reject(Item item, Status status,
                             std::chrono::milliseconds retry_after) {
  obs::CountEvent(obs::Counter::kServeRejected);
  FinishSpan(item, obs::SpanOutcome::kRejected);
  EstimateResponse response;
  response.status = std::move(status);
  response.retry_after = retry_after;
  item.done(std::move(response));
}

std::future<EstimateResponse> EstimateService::Submit(
    EstimateRequest request) {
  auto promise = std::make_shared<std::promise<EstimateResponse>>();
  std::future<EstimateResponse> future = promise->get_future();
  Submit(std::move(request), [promise](EstimateResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void EstimateService::Submit(EstimateRequest request, Completion done) {
  Item item;
  item.request = std::move(request);
  item.done = std::move(done);
  item.enqueued = Clock::now();
  if (item.request.deadline == Clock::time_point::max() &&
      options_.default_deadline.count() > 0) {
    item.request.deadline = item.enqueued + options_.default_deadline;
  }
  if (recorder_ != nullptr) {
    // Every Submit gets exactly one span, armed before any exit path.
    item.span.Begin(next_request_id_.fetch_add(1, std::memory_order_relaxed),
                    query::FormatTwig(item.request.twig),
                    static_cast<uint8_t>(item.request.algorithm),
                    item.enqueued);
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    Reject(std::move(item), Status::Unavailable("service is shut down"));
    return;
  }
  // Dataset routing happens first: an unknown dataset is a client
  // error, rejected before it can cost a cache probe or a queue slot.
  item.dataset = std::string(ResolveDatasetId(item.request.dataset));
  item.catalog = datasets_->Find(item.dataset);
  if (item.catalog == nullptr) {
    Reject(std::move(item), Status::InvalidArgument(
                                "unknown dataset '" + item.dataset + "'"));
    return;
  }
  if (cache_ != nullptr) {
    // Admission-time lookup, before the queue: a hit bypasses
    // backpressure entirely. The key uses the version current *now*;
    // a hit therefore claims exactly the version it was computed on.
    const uint64_t version = item.catalog->version();
    if (version != 0) {
      item.canonical = core::CanonicalizeQuery(
          item.request.twig, item.request.algorithm, item.request.semantics);
      CachedEstimate cached;
      const bool hit = cache_->Lookup(
          ResultCache::MakeKeyFromCanonical(version, item.request.algorithm,
                                            item.request.semantics,
                                            item.canonical, item.dataset),
          &cached);
      item.span.Mark(obs::SpanStage::kCacheLookup);
      if (hit) {
        EstimateResponse response;
        response.status = Status::OK();
        response.estimate = cached.estimate;
        response.snapshot_version = cached.snapshot_version;
        response.exec_time = cached.exec_time;
        response.queue_wait =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - item.enqueued);
        response.cached = true;
        obs::MetricsRegistry::Get().RecordLatency(
            obs::kServeCacheHitSeries, ToNanos(response.queue_wait));
        obs::CountEvent(obs::Counter::kServeServed);
        item.span.record.estimate = cached.estimate;
        item.span.record.snapshot_version = cached.snapshot_version;
        FinishSpan(item, obs::SpanOutcome::kCacheHit);
        item.done(std::move(response));
        return;
      }
    }
  }
  // Brown-out: the cache path above still answers (hits cost no worker
  // time), but uncached work is shed with a Retry-After hint until the
  // queue drains and the deadline-miss rate subsides.
  if (health_.Assess(queue_.size(), queue_.capacity()) ==
      HealthState::kBrownout) {
    obs::CountEvent(obs::Counter::kBrownoutSheds);
    Reject(std::move(item),
           Status::Unavailable("browning out: uncached work is shed"),
           health_.retry_after());
    return;
  }
  // Fault-injection seam covering queue admission: a fired
  // "serve/admission" failpoint rejects exactly as a full queue would.
  if (Status injected = util::FailpointCheck("serve/admission");
      !injected.ok()) {
    obs::CountEvent(obs::Counter::kFaultInjected);
    item.span.record.fault_injected = true;
    Reject(std::move(item), std::move(injected));
    return;
  }
  item.span.Mark(obs::SpanStage::kEnqueued);
  const std::string tenant(ResolveTenantId(item.request.tenant));
  std::chrono::milliseconds throttle_hint{0};
  switch (queue_.TryPush(tenant, item, &throttle_hint)) {
    case FairQueue<Item>::PushVerdict::kAdmitted:
      obs::CountEvent(obs::Counter::kServeEnqueued);
      obs::CountEvent(obs::Counter::kServeTenantAdmitted);
      return;
    case FairQueue<Item>::PushVerdict::kThrottled:
      obs::CountEvent(obs::Counter::kServeTenantThrottled);
      item.span.record.offset_ns[static_cast<size_t>(
          obs::SpanStage::kEnqueued)] = obs::kSpanStageUnset;
      Reject(std::move(item),
             Status::Unavailable("tenant '" + tenant +
                                 "' throttled: over rate or queue share"),
             throttle_hint);
      return;
    case FairQueue<Item>::PushVerdict::kClosed:
      item.span.record.offset_ns[static_cast<size_t>(
          obs::SpanStage::kEnqueued)] = obs::kSpanStageUnset;
      Reject(std::move(item),
             Status::Unavailable("service is shutting down"));
      return;
    case FairQueue<Item>::PushVerdict::kFull:
      break;
  }
  // The queue refused at total capacity: the span never entered it.
  item.span.record.offset_ns[static_cast<size_t>(
      obs::SpanStage::kEnqueued)] = obs::kSpanStageUnset;
  Reject(std::move(item),
         Status::Unavailable("overloaded: request queue is full"));
}

EstimateResponse EstimateService::SubmitAndWait(EstimateRequest request) {
  return Submit(std::move(request)).get();
}

void EstimateService::ServeLoop() {
  auto& registry = obs::MetricsRegistry::Get();
  while (std::optional<Item> popped = queue_.Pop()) {
    Item item = std::move(*popped);
    if (options_.dequeue_hook) options_.dequeue_hook();
    const auto dequeued = Clock::now();
    item.span.Mark(obs::SpanStage::kDequeued);
    EstimateResponse response;
    response.queue_wait =
        std::chrono::duration_cast<std::chrono::nanoseconds>(dequeued -
                                                             item.enqueued);
    registry.RecordLatency(obs::kServeWaitSeries,
                           ToNanos(dequeued - item.enqueued));
    if (dequeued >= item.request.deadline) {
      obs::CountEvent(obs::Counter::kServeDeadlineMisses);
      health_.ObserveOutcome(/*deadline_miss=*/true);
      response.status =
          Status::DeadlineExceeded("deadline passed while queued");
      FinishSpan(item, obs::SpanOutcome::kDeadlineMiss);
      item.done(std::move(response));
      continue;
    }
    const std::shared_ptr<const CstSnapshot> snapshot =
        item.catalog->Current();
    if (snapshot == nullptr) {
      obs::CountEvent(obs::Counter::kServeRejected);
      response.status = Status::Unavailable("no snapshot published yet");
      FinishSpan(item, obs::SpanOutcome::kRejected);
      item.done(std::move(response));
      continue;
    }
    item.span.Mark(obs::SpanStage::kPinned);
    item.span.record.snapshot_version = snapshot->version;
    // Worker-execution seam: an error action fails this request like
    // an estimator error; a delay action stalls the worker (FailpointCheck
    // sleeps inline), which is how chaos schedules force queue backlog
    // and deadline misses.
    if (Status injected = util::FailpointCheck("serve/estimate");
        !injected.ok()) {
      obs::CountEvent(obs::Counter::kFaultInjected);
      item.span.record.fault_injected = true;
      health_.ObserveOutcome(/*deadline_miss=*/false);
      response.status = std::move(injected);
      response.snapshot_version = snapshot->version;
      obs::CountEvent(obs::Counter::kServeServed);
      FinishSpan(item, obs::SpanOutcome::kFailed);
      item.done(std::move(response));
      continue;
    }
    core::EstimateOptions eopt;
    eopt.semantics = item.request.semantics;
    const auto t0 = Clock::now();
    const Result<double> estimate =
        TryEstimateFailClosed(*snapshot->summary, item.request.twig,
                              item.request.algorithm, eopt, &health_);
    const auto elapsed = Clock::now() - t0;
    registry.RecordLatency(static_cast<size_t>(item.request.algorithm),
                           ToNanos(elapsed));
    item.span.Mark(obs::SpanStage::kEstimated);
    response.exec_time =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed);
    response.snapshot_version = snapshot->version;
    if (!estimate.ok()) {
      // The estimator could not produce a trustworthy number (e.g. a
      // wildcard aggregation over budget): surface the error and keep
      // the result cache free of poisoned entries.
      response.status = estimate.status();
      health_.ObserveOutcome(/*deadline_miss=*/false);
      obs::CountEvent(obs::Counter::kServeServed);
      FinishSpan(item, obs::SpanOutcome::kFailed);
      item.done(std::move(response));
      continue;
    }
    response.estimate = *estimate;
    response.status = Status::OK();
    item.span.record.estimate = *estimate;
    if (options_.accuracy_sample_every > 0 && snapshot->data != nullptr &&
        accuracy_tick_.fetch_add(1, std::memory_order_relaxed) %
                options_.accuracy_sample_every ==
            0) {
      // Live accuracy feedback: re-execute this request against the
      // exact matcher on the same pinned snapshot's tree and record
      // how wrong the estimate was.
      const Result<match::TwigCounts> exact =
          match::CountTwigMatches(*snapshot->data, item.request.twig);
      if (exact.ok()) {
        const double truth =
            item.request.semantics == core::CountSemantics::kPresence
                ? exact->presence
                : exact->occurrence;
        const double err = stats::SignedRelativeError(truth, *estimate);
        registry.RecordAccuracySample(err);
        obs::CountEvent(obs::Counter::kServeAccuracySamples);
        item.span.record.accuracy_sampled = true;
        item.span.record.relative_error = err;
      } else {
        obs::CountEvent(obs::Counter::kServeAccuracyFailures);
      }
    }
    if (cache_ != nullptr && !item.canonical.text.empty()) {
      // Key under the version that actually served the request (a hot
      // swap may have landed since admission), so the entry is correct
      // by construction and immutable-snapshot semantics make it
      // correct forever.
      cache_->Insert(
          ResultCache::MakeKeyFromCanonical(
              snapshot->version, item.request.algorithm,
              item.request.semantics, item.canonical, item.dataset),
          CachedEstimate{response.estimate, snapshot->version,
                         response.exec_time});
    }
    health_.ObserveOutcome(/*deadline_miss=*/false);
    obs::CountEvent(obs::Counter::kServeServed);
    FinishSpan(item, obs::SpanOutcome::kServed);
    item.done(std::move(response));
  }
}

void EstimateService::Shutdown(bool drain) {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shut_down_.load(std::memory_order_acquire)) return;
  // Unregister the rebuild listeners first: they capture `this`, and
  // SetRebuildListener blocks until any in-progress invocation
  // returns, so no rebuild thread can touch health_ past this line.
  for (const std::string& id : datasets_->DatasetIds()) {
    datasets_->Find(id)->SetRebuildListener(nullptr);
  }
  // Close first so workers see end-of-stream; only then mark the
  // service down for Submit (requests racing the close are rejected by
  // TryPush on the closed queue).
  std::vector<Item> leftovers = queue_.Close(drain);
  for (Item& item : leftovers) {
    Reject(std::move(item), Status::Unavailable("service is shutting down"));
  }
  shut_down_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) worker.join();
}

}  // namespace twig::serve
