// Section 6.5 timings, as google-benchmark micro-benchmarks:
// construction (XML parse and size, path suffix tree, CST at 1% space and
// unpruned) and per-query estimation latency for each algorithm. The
// paper reports < 10 min construction for 50 MB / Pentium II and ~1 ms
// per estimate; on modern hardware both should be far faster at our
// scaled size.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/estimator.h"
#include "cst/cst.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "suffix/path_suffix_tree.h"
#include "workload/workload.h"
#include "xml/xml.h"

namespace {

using namespace twig;

constexpr size_t kDataBytes = 2 * 1024 * 1024;

const tree::Tree& SharedData() {
  static tree::Tree data = [] {
    data::DblpOptions options;
    options.target_bytes = kDataBytes;
    return data::GenerateDblp(options);
  }();
  return data;
}

const suffix::PathSuffixTree& SharedPst() {
  static suffix::PathSuffixTree pst =
      suffix::PathSuffixTree::Build(SharedData());
  return pst;
}

const cst::Cst& SharedCst() {
  static cst::Cst summary = [] {
    cst::CstOptions options;
    options.space_budget_bytes = xml::XmlByteSize(SharedData()) / 100;
    return cst::Cst::Build(SharedData(), SharedPst(), options);
  }();
  return summary;
}

const workload::Workload& SharedWorkload() {
  static workload::Workload wl = [] {
    workload::WorkloadOptions options;
    options.num_queries = 200;
    options.compute_true_counts = false;
    return workload::GeneratePositive(SharedData(), options);
  }();
  return wl;
}

void BM_ParseXml(benchmark::State& state) {
  const std::string xml_text = xml::WriteXml(SharedData());
  for (auto _ : state) {
    auto parsed = xml::ParseXml(xml_text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml_text.size()));
}
BENCHMARK(BM_ParseXml)->Unit(benchmark::kMillisecond);

void BM_XmlByteSize(benchmark::State& state) {
  const tree::Tree& data = SharedData();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xml::XmlByteSize(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDataBytes));
}
BENCHMARK(BM_XmlByteSize)->Unit(benchmark::kMillisecond);

void BM_BuildPathSuffixTree(benchmark::State& state) {
  const tree::Tree& data = SharedData();
  for (auto _ : state) {
    auto pst = suffix::PathSuffixTree::Build(data);
    benchmark::DoNotOptimize(pst.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDataBytes));
}
BENCHMARK(BM_BuildPathSuffixTree)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// SharedData() with each value behind its own 8-character prefix (an
/// odd multiple of its ordinal, in hex), so no capped root-to-leaf path
/// repeats: the worst case for a build that inserts each distinct path
/// once.
const tree::Tree& DistinctPathData() {
  static tree::Tree data = [] {
    const tree::Tree& source = SharedData();
    tree::TreeBuilder builder;
    uint32_t values = 0;
    auto copy = [&](auto&& self, tree::NodeId n, tree::NodeId parent) -> void {
      if (source.IsValue(n)) {
        char prefix[9];
        std::snprintf(prefix, sizeof(prefix), "%08x", values++ * 2654435761u);
        builder.AddValue(parent, prefix + std::string(source.Value(n)));
        return;
      }
      const tree::NodeId element =
          parent == tree::kNullNode
              ? builder.AddRoot(source.LabelName(n))
              : builder.AddElement(parent, source.LabelName(n));
      for (tree::NodeId c : source.Children(n)) self(self, c, element);
    };
    copy(copy, source.root(), tree::kNullNode);
    return std::move(builder).Finish();
  }();
  return data;
}

void BM_BuildPathSuffixTreeDistinctPaths(benchmark::State& state) {
  const tree::Tree& data = DistinctPathData();
  for (auto _ : state) {
    auto pst = suffix::PathSuffixTree::Build(data);
    benchmark::DoNotOptimize(pst.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDataBytes));
}
BENCHMARK(BM_BuildPathSuffixTreeDistinctPaths)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Times Cst::Build over the shared tree at `space` of its XML size.
void BuildCst(benchmark::State& state, double space) {
  const tree::Tree& data = SharedData();
  const auto& pst = SharedPst();
  cst::CstOptions options;
  options.space_budget_bytes =
      static_cast<size_t>(space * static_cast<double>(xml::XmlByteSize(data)));
  for (auto _ : state) {
    auto summary = cst::Cst::Build(data, pst, options);
    benchmark::DoNotOptimize(summary.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDataBytes));
}

void BM_BuildCstAtOnePercent(benchmark::State& state) { BuildCst(state, 0.01); }
BENCHMARK(BM_BuildCstAtOnePercent)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Space 1.0, the build behind a paged store.
void BM_BuildCstUnpruned(benchmark::State& state) { BuildCst(state, 1.0); }
BENCHMARK(BM_BuildCstUnpruned)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Estimate(benchmark::State& state) {
  const auto algorithm = static_cast<core::Algorithm>(state.range(0));
  const auto& summary = SharedCst();
  const auto& wl = SharedWorkload();
  core::TwigEstimator estimator(&summary);
  size_t i = 0;
  for (auto _ : state) {
    const double est =
        estimator.Estimate(wl[i % wl.size()].twig, algorithm);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetLabel(core::AlgorithmName(algorithm));
}
BENCHMARK(BM_Estimate)
    ->DenseRange(0, 5, 1)
    ->Unit(benchmark::kMicrosecond);

// Same loop as BM_Estimate/MSH but with an explain trace attached, to
// quantify the cost of tracing (trace-off estimation must stay within
// ~2% of a build without obs wiring; trace-on pays for the string
// rendering and is expected to be several times slower).
void BM_EstimateTraced(benchmark::State& state) {
  const auto algorithm = static_cast<core::Algorithm>(state.range(0));
  const auto& summary = SharedCst();
  const auto& wl = SharedWorkload();
  core::TwigEstimator estimator(&summary);
  obs::Trace trace;
  core::EstimateOptions options;
  options.trace = &trace;
  size_t i = 0;
  for (auto _ : state) {
    const double est =
        estimator.Estimate(wl[i % wl.size()].twig, algorithm, options);
    benchmark::DoNotOptimize(est);
    benchmark::DoNotOptimize(trace.pieces.data());
    ++i;
  }
  state.SetLabel(std::string(core::AlgorithmName(algorithm)) + " traced");
}
BENCHMARK(BM_EstimateTraced)
    ->Arg(static_cast<int>(core::Algorithm::kMsh))
    ->Unit(benchmark::kMicrosecond);

void BM_EstimateBatch(benchmark::State& state) {
  const size_t num_threads = static_cast<size_t>(state.range(0));
  const auto& summary = SharedCst();
  const auto& wl = SharedWorkload();
  core::TwigEstimator estimator(&summary);
  core::BatchOptions options;
  options.num_threads = num_threads;
  for (auto _ : state) {
    stats::BatchStats batch_stats;
    const auto estimates =
        estimator.EstimateBatch(wl, core::Algorithm::kMsh, options,
                                &batch_stats);
    benchmark::DoNotOptimize(estimates.data());
    state.counters["qps"] = batch_stats.throughput_qps();
    const auto delta = [&](obs::Counter c) {
      return static_cast<double>(
          batch_stats.counter_deltas[static_cast<size_t>(c)]);
    };
    state.counters["cst_lookups"] =
        delta(obs::Counter::kCstSubpathLookups);
    state.counters["sethash_ix"] =
        delta(obs::Counter::kSethashIntersections);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wl.size()));
  state.SetLabel("MSH x" + std::to_string(num_threads) + " threads");
}
BENCHMARK(BM_EstimateBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ExactMatchCount(benchmark::State& state) {
  const auto& data = SharedData();
  const auto& wl = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const auto counts =
        match::CountTwigMatches(data, wl[i % wl.size()].twig).value();
    benchmark::DoNotOptimize(counts.occurrence);
    ++i;
  }
}
BENCHMARK(BM_ExactMatchCount)->Unit(benchmark::kMillisecond);

void BM_SetHashIntersection(benchmark::State& state) {
  const size_t length = static_cast<size_t>(state.range(0));
  sethash::SetHashFamily family(length, 99);
  std::vector<uint64_t> a, b;
  for (uint64_t i = 0; i < 5000; ++i) {
    if (i % 2 == 0) a.push_back(i);
    if (i % 3 == 0) b.push_back(i);
  }
  const sethash::Signature sa = family.SignatureOf(a);
  const sethash::Signature sb = family.SignatureOf(b);
  for (auto _ : state) {
    auto est = sethash::EstimateIntersectionSize(
        {{&sa, static_cast<double>(a.size())},
         {&sb, static_cast<double>(b.size())}});
    benchmark::DoNotOptimize(est.size);
  }
  state.SetLabel("L=" + std::to_string(length));
}
BENCHMARK(BM_SetHashIntersection)->Arg(32)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
