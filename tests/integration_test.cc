// End-to-end tests across modules: XML -> tree -> suffix tree -> CST ->
// estimators vs the exact matcher, on generated corpora.

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "data/generators.h"
#include "exp/harness.h"
#include "match/matcher.h"
#include "query/twig.h"
#include "storage/page_source.h"
#include "suffix/path_suffix_tree.h"
#include "workload/workload.h"
#include "xml/xml.h"

namespace twig {
namespace {

TEST(IntegrationTest, XmlRoundTripPreservesCounts) {
  data::DblpOptions options;
  options.target_bytes = 32 * 1024;
  tree::Tree original = data::GenerateDblp(options);
  auto reparsed = xml::ParseXml(xml::WriteXml(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), original.size());
  auto twig = query::ParseTwig("article(author, year)");
  ASSERT_TRUE(twig.ok());
  const auto a = match::CountTwigMatches(original, *twig).value();
  const auto b = match::CountTwigMatches(*reparsed, *twig).value();
  EXPECT_DOUBLE_EQ(a.occurrence, b.occurrence);
  EXPECT_DOUBLE_EQ(a.presence, b.presence);
}

TEST(IntegrationTest, UnprunedCstIsExactOnSinglePaths) {
  data::DblpOptions options;
  options.target_bytes = 24 * 1024;
  tree::Tree data = data::GenerateDblp(options);
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions copt;
  copt.prune_threshold = 1;
  cst::Cst summary = cst::Cst::Build(data, pst, copt);
  core::TwigEstimator estimator(&summary);

  workload::WorkloadOptions wopt;
  wopt.num_queries = 40;
  wopt.seed = 5;
  // Keep predicates within the indexed value prefix.
  wopt.max_value_chars = static_cast<int>(pst.max_value_chars());
  workload::Workload wl = workload::GenerateTrivial(data, wopt);
  ASSERT_EQ(wl.size(), 40u);
  for (const auto& wq : wl) {
    const double est = estimator.Estimate(wq.twig, core::Algorithm::kMo);
    EXPECT_NEAR(est, wq.truth.occurrence, 1e-6)
        << query::FormatTwig(wq.twig);
  }
}

TEST(IntegrationTest, EstimatorsTrackTruthOnUnprunedCst) {
  data::DblpOptions options;
  options.target_bytes = 24 * 1024;
  tree::Tree data = data::GenerateDblp(options);
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions copt;
  copt.prune_threshold = 1;
  copt.signature_length = 256;  // sharp signatures for this test
  cst::Cst summary = cst::Cst::Build(data, pst, copt);
  core::TwigEstimator estimator(&summary);

  workload::WorkloadOptions wopt;
  wopt.num_queries = 60;
  wopt.seed = 6;
  wopt.root_at_top_probability = 0;  // record-rooted joint queries
  workload::Workload wl = workload::GeneratePositive(data, wopt);
  stats::ErrorAccumulator msh_err;
  stats::ErrorAccumulator greedy_err;
  for (const auto& wq : wl) {
    msh_err.Add(wq.truth.occurrence,
                estimator.Estimate(wq.twig, core::Algorithm::kMsh));
    greedy_err.Add(wq.truth.occurrence,
                   estimator.Estimate(wq.twig, core::Algorithm::kGreedy));
  }
  // With a full CST and long signatures, MSH should be far more
  // accurate than the Greedy baseline, which ignores correlations.
  EXPECT_LT(msh_err.AvgRelativeError(), 0.6);
  EXPECT_GT(greedy_err.AvgRelativeError(),
            2 * msh_err.AvgRelativeError());
}

TEST(IntegrationTest, PrunedEstimatesDegradeGracefully) {
  data::DblpOptions options;
  options.target_bytes = 64 * 1024;
  tree::Tree data = data::GenerateDblp(options);
  auto pst = suffix::PathSuffixTree::Build(data);
  const size_t xml_bytes = xml::XmlByteSize(data);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 40;
  wopt.seed = 7;
  workload::Workload wl = workload::GeneratePositive(data, wopt);

  double prev_err = -1;
  for (double fraction : {0.01, 0.08, 0.5}) {
    cst::CstOptions copt;
    copt.space_budget_bytes =
        static_cast<size_t>(fraction * static_cast<double>(xml_bytes));
    cst::Cst summary = cst::Cst::Build(data, pst, copt);
    core::TwigEstimator estimator(&summary);
    stats::ErrorAccumulator err;
    for (const auto& wq : wl) {
      err.Add(wq.truth.occurrence,
              estimator.Estimate(wq.twig, core::Algorithm::kMsh));
    }
    if (prev_err >= 0) {
      // More space never makes things dramatically worse.
      EXPECT_LT(err.AvgRelativeError(), prev_err + 0.35);
    }
    prev_err = err.AvgRelativeError();
  }
}

TEST(IntegrationTest, NegativeQueryEstimatesAreSmall) {
  data::DblpOptions options;
  options.target_bytes = 64 * 1024;
  tree::Tree data = data::GenerateDblp(options);
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions copt;
  copt.prune_threshold = 1;
  cst::Cst summary = cst::Cst::Build(data, pst, copt);
  core::TwigEstimator estimator(&summary);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 30;
  wopt.seed = 8;
  workload::Workload wl = workload::GenerateNegative(data, wopt);
  for (const auto& wq : wl) {
    const double est = estimator.Estimate(wq.twig, core::Algorithm::kMsh);
    // True count is 0; estimates stay well below typical positive
    // counts (thousands).
    EXPECT_LT(est, 100.0) << query::FormatTwig(wq.twig);
  }
}

TEST(IntegrationTest, HarnessEvaluatesAllAlgorithms) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp, 48 * 1024, 9);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 20;
  wopt.seed = 10;
  workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);
  cst::Cst summary = exp::BuildCstAtFraction(ds, 0.05);
  auto evals = exp::EvaluateAll(summary, wl);
  ASSERT_EQ(evals.size(), core::kAllAlgorithms.size());
  for (const auto& eval : evals) {
    EXPECT_EQ(eval.errors.count(), wl.size());
    EXPECT_EQ(eval.ratios.count(), wl.size());
  }
}

TEST(IntegrationTest, SerializedCstGivesIdenticalEstimates) {
  // Three storage paths of one summary: in memory, paged through a
  // 4-frame pool that evicts on nearly every walk, and materialized
  // back from the pages. Every estimate must be bit-identical.
  data::DblpOptions options;
  options.target_bytes = 48 * 1024;
  tree::Tree data = data::GenerateDblp(options);
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions copt;
  copt.space_budget_bytes = xml::XmlByteSize(data) / 20;
  cst::Cst original = cst::Cst::Build(data, pst, copt);

  constexpr size_t kPageBytes = 512;
  auto store = original.SerializePaged(kPageBytes);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto source =
      storage::BlobPageSource::Open(std::move(store).value(), "integration");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  cst::PagedCstOptions popt;
  popt.pool_bytes = 4 * kPageBytes;
  auto paged = cst::PagedCst::Open(
      std::shared_ptr<const storage::PageSource>(std::move(source).value()),
      popt);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto materialized = cst::Cst::Materialize(*paged.value());
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

  const core::TwigEstimator in_memory(&original);
  const core::TwigEstimator through_pages(paged.value().get());
  const core::TwigEstimator round_trip(&materialized.value());
  workload::WorkloadOptions wopt;
  wopt.num_queries = 25;
  wopt.seed = 14;
  wopt.compute_true_counts = false;
  for (const auto& wq : workload::GeneratePositive(data, wopt)) {
    for (core::Algorithm a : core::kAllAlgorithms) {
      const double expected = in_memory.Estimate(wq.twig, a);
      EXPECT_EQ(through_pages.Estimate(wq.twig, a), expected)
          << "paged " << core::AlgorithmName(a) << " on "
          << query::FormatTwig(wq.twig);
      EXPECT_EQ(round_trip.Estimate(wq.twig, a), expected)
          << "materialized " << core::AlgorithmName(a) << " on "
          << query::FormatTwig(wq.twig);
    }
  }
  EXPECT_GT(paged.value()->buffer().stats().evictions, 0u);
  EXPECT_EQ(paged.value()->storage_error_count(), 0u);
}

TEST(IntegrationTest, SwissProtPipelineWorks) {
  exp::Dataset ds =
      exp::MakeDataset(exp::DatasetKind::kSwissProt, 64 * 1024, 12);
  EXPECT_EQ(ds.name, "swissprot");
  workload::WorkloadOptions wopt;
  wopt.num_queries = 15;
  wopt.seed = 13;
  workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);
  ASSERT_EQ(wl.size(), 15u);
  cst::Cst summary = exp::BuildCstAtFraction(ds, 0.1);
  core::TwigEstimator estimator(&summary);
  for (const auto& wq : wl) {
    EXPECT_GE(estimator.Estimate(wq.twig, core::Algorithm::kMsh), 0.0);
  }
}

}  // namespace
}  // namespace twig
