// Error metrics of Section 6.1.
//
// For positive queries the paper reports the average relative error and
// the average relative *squared* error (which penalizes large absolute
// mistakes on small counts); for negative queries (true count 0) it
// reports the root mean squared error.

#ifndef TWIG_STATS_METRICS_H_
#define TWIG_STATS_METRICS_H_

#include <array>
#include <cstddef>
#include <vector>

#include "obs/metrics.h"

namespace twig::stats {

/// Per-thread accounting for one batch-estimation run
/// (core::TwigEstimator::EstimateBatch). Worker w handled
/// queries_per_thread[w] queries spending busy_seconds_per_thread[w]
/// inside Estimate; wall_seconds spans the whole batch including
/// dispatch, so throughput is reported against the wall.
struct BatchStats {
  size_t num_threads = 0;
  std::vector<size_t> queries_per_thread;
  std::vector<double> busy_seconds_per_thread;
  /// Queries abandoned because BatchOptions::deadline passed before
  /// they started (their estimate slots hold quiet NaN).
  size_t queries_skipped = 0;
  /// Queries whose TryEstimate returned an error (e.g. a blown
  /// wildcard/descendant aggregation budget); NaN slots too.
  size_t queries_failed = 0;
  double wall_seconds = 0;
  /// Global obs counter deltas across the batch (registry snapshot
  /// after minus before): CST subpath hit/miss mix, set-hash
  /// intersections, fallbacks. The registry is process-wide, so
  /// concurrent non-batch estimation bleeds into the delta.
  obs::CounterArray counter_deltas{};

  size_t total_queries() const {
    size_t total = 0;
    for (size_t q : queries_per_thread) total += q;
    return total;
  }

  double busy_seconds() const {
    double total = 0;
    for (double s : busy_seconds_per_thread) total += s;
    return total;
  }

  /// Queries completed per wall-clock second.
  double throughput_qps() const {
    return wall_seconds > 0 ? static_cast<double>(total_queries()) /
                                  wall_seconds
                            : 0;
  }

  /// Mean per-query estimation latency (busy time, excluding queueing).
  double avg_latency_seconds() const {
    const size_t n = total_queries();
    return n > 0 ? busy_seconds() / static_cast<double>(n) : 0;
  }
};

/// Signed relative error of `estimate` against `truth`:
/// (estimate - truth) / max(truth, 1). Positive = overestimate. The
/// max(truth, 1) denominator keeps zero-truth queries finite (absolute
/// error is then reported relative to 1 match), which is what the
/// serving layer's live accuracy sampler wants for a windowed mean.
double SignedRelativeError(double truth, double estimate);

/// Accumulates (truth, estimate) pairs and reports the paper's metrics.
/// Non-finite estimates (the NaN slots EstimateBatch leaves for
/// deadline-skipped or failed queries) are ignored, so error averages
/// cover exactly the queries that produced an estimate; `count()`
/// against the workload size reveals how many were dropped.
class ErrorAccumulator {
 public:
  void Add(double truth, double estimate);

  size_t count() const { return count_; }

  /// (1/|W|) sum |t - e| / t. Pairs with t == 0 are skipped (use Rmse
  /// for negative workloads).
  double AvgRelativeError() const;

  /// (1/|W|) sum (t - e)^2 / t^2. Pairs with t == 0 are skipped.
  double AvgRelativeSquaredError() const;

  /// sqrt((1/|W|) sum (t - e)^2).
  double Rmse() const;

  /// log10 of a metric, with a floor so error-free runs plot finitely.
  static double Log10(double value);

 private:
  size_t count_ = 0;
  size_t positive_count_ = 0;
  double sum_rel_ = 0;
  double sum_rel_sq_ = 0;
  double sum_sq_ = 0;
};

/// Distribution of estimate/truth ratios over the paper's buckets
/// (<0.1, <0.5, <1, <1.5, <10, >=10) — Figure 5(a).
///
/// Bucket edges follow the half-open convention [lo, hi): bucket i
/// holds ratios in [edge_{i-1}, edge_i) with edges 0.1, 0.5, 1.0, 1.5,
/// 10.0 — so a ratio exactly on an edge lands in the bucket *above* it
/// (1.0 is "<1.5", i.e. an exact estimate counts as not
/// underestimated; 10.0 is ">=10"). Pairs with truth <= 0 are skipped
/// (the ratio is undefined; negative workloads report RMSE instead),
/// as are non-finite estimates (skipped / failed batch slots).
class RatioHistogram {
 public:
  static constexpr size_t kBuckets = 6;
  static const std::array<const char*, kBuckets>& Labels();

  void Add(double truth, double estimate);

  size_t count() const { return count_; }
  /// Percentage of queries in bucket `i`.
  double Percent(size_t i) const;

 private:
  std::array<size_t, kBuckets> buckets_ = {};
  size_t count_ = 0;
};

}  // namespace twig::stats

#endif  // TWIG_STATS_METRICS_H_
