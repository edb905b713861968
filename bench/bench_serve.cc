// Serving-layer benchmarks (DESIGN.md §10, §14, §16) for the two
// behaviours perfbench does not measure:
//
//   --faults=P  goodput under injected estimate faults (serve/estimate
//               fails with probability P), with and without client
//               retry; every served answer is checked against the
//               direct estimator.
//   --tenants   weighted tenants under saturating closed-loop load:
//               per-tenant throughput share against its weighted
//               entitlement, and per-tenant latency percentiles.
//
// The serving path's per-layer cost, the result cache and paged store
// start-up are measured by perfbench instead (perfbench/README.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/harness.h"
#include "obs/metrics.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/failpoint.h"
#include "util/flags.h"

namespace {

using namespace twig;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

constexpr char kUsage[] =
    "usage: bench_serve (--faults=P | --tenants) [--count=N] [--workers=N]\n"
    "                   [--retries=N]\n"
    "  --tenants    run the multi-tenant fairness benchmark: weighted\n"
    "               tenants under saturating closed-loop load; reports\n"
    "               per-tenant p50/p95/p99 and the fairness ratio\n"
    "  --faults=P   run the goodput-under-faults comparison: inject\n"
    "               estimate faults with probability P (e.g. 0.1) and\n"
    "               measure goodput with and without client retry\n"
    "  --count=N    total requests per run (default 20000)\n"
    "  --workers=N  estimation workers (default 2)\n"
    "  --retries=N  faults: retry attempts per request (default 3)\n";

/// Tallies for one goodput run (4 closed-loop clients, merged).
struct FaultTally {
  std::atomic<size_t> ok{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> retried{0};
  std::atomic<size_t> mismatches{0};
};

/// One closed-loop run of `count` requests against `catalog` with the
/// serve/estimate failpoint armed; `policy` nullptr = no retry.
double RunFaultLoop(serve::SnapshotCatalog* catalog,
                    const workload::Workload& wl,
                    const std::vector<double>& expected, size_t count,
                    size_t workers, serve::RetryPolicy* policy,
                    FaultTally* tally) {
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  serve::EstimateService service(catalog, sopt);

  constexpr size_t kClients = 4;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < count; i += kClients) {
        const size_t query = i % wl.size();
        for (int attempt = 1;; ++attempt) {
          serve::EstimateRequest request;
          request.twig = wl[query].twig;
          request.algorithm = core::Algorithm::kMsh;
          serve::EstimateResponse response =
              service.SubmitAndWait(std::move(request));
          if (response.status.ok()) {
            tally->ok.fetch_add(1, std::memory_order_relaxed);
            if (response.estimate != expected[query]) {
              tally->mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            if (policy != nullptr) policy->RecordSuccess();
            break;
          }
          const std::optional<std::chrono::milliseconds> backoff =
              policy == nullptr
                  ? std::nullopt
                  : policy->NextBackoff(response.status, attempt,
                                        Clock::time_point::max(),
                                        response.retry_after);
          if (!backoff.has_value()) {
            tally->failed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          tally->retried.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(*backoff);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = SecondsSince(start);
  service.Shutdown(/*drain=*/true);
  return seconds;
}

int RunFaults(size_t count, size_t workers, double fault_rate,
              size_t retries) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp,
                                     exp::kDefaultDblpBytes, 20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  serve::SnapshotCatalog catalog;
  catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");
  const auto snapshot = catalog.Current();
  core::TwigEstimator direct(snapshot->summary.get());
  std::vector<double> expected(wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    expected[i] = direct.Estimate(wl[i].twig, core::Algorithm::kMsh);
  }

  char spec[64];
  std::snprintf(spec, sizeof(spec), "error:%g", fault_rate);
  if (Status status =
          util::FailpointRegistry::Get().Configure("serve/estimate", spec);
      !status.ok()) {
    std::fprintf(stderr, "bench_serve: --faults: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  std::printf("== Goodput under injected faults (serve/estimate=error:%g, "
              "%zu requests, %zu workers, 4 clients) ==\n",
              fault_rate, count, workers);
  FaultTally bare;
  const double bare_seconds = RunFaultLoop(&catalog, wl, expected, count,
                                           workers, nullptr, &bare);
  serve::RetryOptions ropt;
  ropt.max_attempts = static_cast<int>(retries) + 1;
  serve::RetryPolicy policy(ropt);
  FaultTally retried;
  const double retry_seconds = RunFaultLoop(&catalog, wl, expected, count,
                                            workers, &policy, &retried);
  util::FailpointRegistry::Get().Reset();

  const double n = static_cast<double>(count);
  const double bare_goodput = static_cast<double>(bare.ok.load()) / n;
  const double retry_goodput = static_cast<double>(retried.ok.load()) / n;
  std::printf("  no retry:  %8.0f req/s | goodput %6.2f%% (%zu failed)\n",
              n / bare_seconds, 100 * bare_goodput, bare.failed.load());
  std::printf("  retry x%zu:  %8.0f req/s | goodput %6.2f%% (%zu failed, "
              "%zu retries)\n",
              retries, n / retry_seconds, 100 * retry_goodput,
              retried.failed.load(), retried.retried.load());
  const size_t mismatches = bare.mismatches.load() + retried.mismatches.load();
  if (mismatches > 0) {
    std::printf("  FAILED: %zu served answers differed from direct\n",
                mismatches);
    return 1;
  }
  // The acceptance bar: with retry enabled, a 10%% fault rate must not
  // cost more than 10%% goodput. Higher injected rates are exploratory.
  if (fault_rate <= 0.1 && retry_goodput < 0.9) {
    std::printf("  FAILED: goodput %.2f%% < 90%% with retry enabled\n",
                100 * retry_goodput);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------ tenant fairness

/// Weighted tenants under saturating closed-loop load: every tenant
/// keeps the shared queue non-empty, so the deficit-round-robin drain
/// should divide worker time in proportion to weight. Reports each
/// tenant's throughput share against its weighted entitlement plus
/// client-observed latency percentiles; the fairness ratio is
/// min(observed share / entitled share) across tenants — 1.0 is a
/// perfect weight-proportional split.
int RunTenants(size_t count, size_t workers) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp,
                                     exp::kDefaultDblpBytes, 20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  serve::SnapshotCatalog catalog;
  catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");

  struct TenantSpec {
    const char* name;
    double weight;
  };
  constexpr TenantSpec kTenants[] = {
      {"gold", 4}, {"silver", 2}, {"bronze", 1}};
  constexpr size_t kNumTenants = sizeof(kTenants) / sizeof(kTenants[0]);
  double weight_sum = 0;
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  sopt.queue_capacity = 64;
  sopt.cache_entries = 0;  // every request does real work
  for (const TenantSpec& t : kTenants) {
    serve::TenantQuota quota;
    quota.rate = 0;  // unlimited: isolate the DRR weight split
    quota.burst = 8;
    quota.weight = t.weight;
    sopt.tenants.overrides[t.name] = quota;
    weight_sum += t.weight;
  }
  serve::EstimateService service(&catalog, sopt);

  // Identical client pressure per tenant; only the weights differ, so
  // any throughput skew is the queue's doing.
  constexpr size_t kClientsPerTenant = 8;
  std::atomic<size_t> total{0};
  std::atomic<bool> stop{false};
  std::atomic<size_t> served[kNumTenants] = {};
  std::atomic<size_t> errors[kNumTenants] = {};
  std::vector<obs::HistogramSnapshot> latency(kNumTenants *
                                              kClientsPerTenant);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kNumTenants; ++t) {
    for (size_t c = 0; c < kClientsPerTenant; ++c) {
      clients.emplace_back([&, t, c] {
        size_t i = (t * kClientsPerTenant + c) * 31;
        while (!stop.load(std::memory_order_relaxed)) {
          serve::EstimateRequest request;
          request.twig = wl[i++ % wl.size()].twig;
          request.algorithm = core::Algorithm::kMsh;
          request.tenant = kTenants[t].name;
          const Clock::time_point sent = Clock::now();
          serve::EstimateResponse response =
              service.SubmitAndWait(std::move(request));
          if (response.status.ok()) {
            latency[t * kClientsPerTenant + c].Record(NanosSince(sent));
            served[t].fetch_add(1, std::memory_order_relaxed);
          } else {
            errors[t].fetch_add(1, std::memory_order_relaxed);
          }
          if (total.fetch_add(1, std::memory_order_relaxed) + 1 >= count) {
            stop.store(true, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  for (std::thread& th : clients) th.join();
  const double seconds = SecondsSince(start);
  service.Shutdown(/*drain=*/true);

  size_t total_served = 0;
  for (size_t t = 0; t < kNumTenants; ++t) total_served += served[t].load();
  std::printf("== Tenant fairness (weights 4:2:1, %zu workers, %zu "
              "closed-loop clients per tenant, %zu requests) ==\n",
              workers, kClientsPerTenant, count);
  std::printf("  %-8s %7s %9s %8s %8s %10s %10s %10s\n", "tenant", "weight",
              "served", "share", "ideal", "p50 us", "p95 us", "p99 us");
  double fairness = 1e30;
  for (size_t t = 0; t < kNumTenants; ++t) {
    obs::HistogramSnapshot merged;
    for (size_t c = 0; c < kClientsPerTenant; ++c) {
      merged.Merge(latency[t * kClientsPerTenant + c]);
    }
    const obs::LatencyPercentiles p = obs::SummarizeLatency(merged);
    const double share = total_served == 0
                             ? 0
                             : static_cast<double>(served[t].load()) /
                                   static_cast<double>(total_served);
    const double ideal = kTenants[t].weight / weight_sum;
    fairness = std::min(fairness, share / ideal);
    std::printf("  %-8s %7.0f %9zu %7.1f%% %7.1f%% %10.1f %10.1f %10.1f\n",
                kTenants[t].name, kTenants[t].weight, served[t].load(),
                100 * share, 100 * ideal, p.p50_us, p.p95_us, p.p99_us);
  }
  std::printf("  throughput: %.0f req/s aggregate\n",
              static_cast<double>(total_served) / seconds);
  std::printf("  fairness ratio (min observed/entitled share): %.2f\n",
              fairness);
  size_t total_errors = 0;
  for (size_t t = 0; t < kNumTenants; ++t) total_errors += errors[t].load();
  if (total_errors > 0) {
    std::printf("  note: %zu requests rejected (queue full under burst)\n",
                total_errors);
  }
  // Loose acceptance bar — this is a benchmark, not a unit test, but a
  // tenant landing under half its entitlement means the weighted drain
  // is not doing its job.
  if (fairness < 0.5) {
    std::printf("  FAILED: fairness ratio %.2f < 0.5\n", fairness);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool tenants = false;
  double faults = 0;
  size_t count = 20000;
  size_t workers = 2;
  size_t retries = 3;
  util::FlagParser flags("bench_serve", kUsage);
  flags.Bool("tenants", &tenants);
  flags.Double("faults", &faults);
  flags.Size("count", &count);
  flags.Size("workers", &workers);
  flags.Size("retries", &retries);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (faults < 0 || faults > 1) {
    std::fprintf(stderr, "bench_serve: --faults must be in [0, 1]\n");
    return 2;
  }
  workers = std::max<size_t>(1, workers);
  if (tenants) return RunTenants(count, workers);
  if (faults > 0) return RunFaults(count, workers, faults, retries);
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}
