#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sethash/sethash.h"

namespace twig::sethash {
namespace {

std::vector<uint64_t> Range(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> out;
  for (uint64_t i = lo; i < hi; ++i) out.push_back(i);
  return out;
}

/// Exact resemblance of two integer ranges [0,a) and [b0,b1).
double ExactResemblance(uint64_t a, uint64_t b0, uint64_t b1) {
  const double inter =
      static_cast<double>(std::max<int64_t>(0, static_cast<int64_t>(a) -
                                                   static_cast<int64_t>(b0)));
  const double uni = static_cast<double>(std::max(a, b1));
  return inter / uni;
}

TEST(SetHashFamilyTest, DeterministicForSeed) {
  SetHashFamily f1(16, 7), f2(16, 7), f3(16, 8);
  EXPECT_EQ(f1.Hash(3, 42), f2.Hash(3, 42));
  EXPECT_NE(f1.Hash(3, 42), f3.Hash(3, 42));
}

TEST(SetHashFamilyTest, ComponentsAreIndependentFunctions) {
  SetHashFamily family(8, 1);
  EXPECT_NE(family.Hash(0, 42), family.Hash(1, 42));
}

TEST(SetHashFamilyTest, HashIsSeededHash64OfDerivedSeeds) {
  // Component i hashes with SeededHash64 under the seed chain
  // x_0 = seed, x_{i+1} = Mix64(x_i + golden ratio). Stored signatures
  // depend on these exact values, so precomputed keys must not move
  // a single bit.
  SetHashFamily family(8, 1);
  uint64_t x = 1;
  for (size_t i = 0; i < 8; ++i) {
    x = Mix64(x + 0x9e3779b97f4a7c15ULL);
    for (uint64_t element : {0ull, 99ull, 0xffffffffull, ~0ull}) {
      EXPECT_EQ(family.Hash(i, element),
                static_cast<uint32_t>(SeededHash64(x, element)))
          << "component " << i << " element " << element;
    }
  }
}

TEST(SignatureTest, EmptySignatureIsAllMax) {
  SetHashFamily family(4, 1);
  for (uint32_t c : family.EmptySignature()) EXPECT_EQ(c, kEmptyComponent);
}

TEST(SignatureTest, SignatureOfTakesComponentwiseMinima) {
  SetHashFamily family(16, 1);
  const Signature sig = family.SignatureOf({1, 2});
  ASSERT_EQ(sig.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(sig[i], std::min(family.Hash(i, 1), family.Hash(i, 2)));
  }
}

TEST(SignatureTest, SignatureIsOrderIndependent) {
  SetHashFamily family(16, 1);
  EXPECT_EQ(family.SignatureOf({1, 2, 3}), family.SignatureOf({3, 1, 2}));
}

TEST(SignatureTest, UnionSignatureIsComponentwiseMin) {
  // The signature of A ∪ B is the component-wise minimum of the two
  // signatures: the fold the CST count pass uses to merge a node's
  // signature from its occurrences.
  SetHashFamily family(16, 1);
  const Signature a = family.SignatureOf(Range(0, 50));
  const Signature b = family.SignatureOf(Range(40, 100));
  Signature folded = a;
  for (size_t i = 0; i < folded.size(); ++i) {
    folded[i] = std::min(folded[i], b[i]);
  }
  EXPECT_EQ(family.SignatureOf(Range(0, 100)), folded);
}

// Resemblance |∩|/|∪| as EstimateIntersectionSize reports it.

TEST(ResemblanceTest, IdenticalSetsHaveResemblanceOne) {
  SetHashFamily family(64, 1);
  const Signature a = family.SignatureOf(Range(0, 100));
  EXPECT_DOUBLE_EQ(
      EstimateIntersectionSize({{&a, 100.0}, {&a, 100.0}}).resemblance, 1.0);
}

TEST(ResemblanceTest, DisjointSetsNearZero) {
  SetHashFamily family(128, 1);
  const Signature a = family.SignatureOf(Range(0, 1000));
  const Signature b = family.SignatureOf(Range(1000, 2000));
  EXPECT_LT(
      EstimateIntersectionSize({{&a, 1000.0}, {&b, 1000.0}}).resemblance,
      0.05);
}

TEST(ResemblanceTest, TracksTrueOverlap) {
  SetHashFamily family(512, 3);
  // |A| = 1000, |B| = 1000, |A ∩ B| = 500, |A ∪ B| = 1500 -> rho = 1/3.
  const Signature a = family.SignatureOf(Range(0, 1000));
  const Signature b = family.SignatureOf(Range(500, 1500));
  EXPECT_NEAR(
      EstimateIntersectionSize({{&a, 1000.0}, {&b, 1000.0}}).resemblance,
      ExactResemblance(1000, 500, 1500), 0.08);
}

TEST(ResemblanceTest, ThreeWay) {
  SetHashFamily family(512, 3);
  const Signature a = family.SignatureOf(Range(0, 900));
  const Signature b = family.SignatureOf(Range(300, 1200));
  const Signature c = family.SignatureOf(Range(600, 1500));
  // Intersection [600, 900) = 300; union [0, 1500) = 1500 -> 0.2.
  EXPECT_NEAR(EstimateIntersectionSize({{&a, 900.0}, {&b, 900.0}, {&c, 900.0}})
                  .resemblance,
              0.2, 0.07);
}

TEST(ResemblanceTest, EmptySignatureComponentsIgnored) {
  SetHashFamily family(16, 1);
  const Signature empty = family.EmptySignature();
  const auto est = EstimateIntersectionSize({{&empty, 1.0}, {&empty, 1.0}});
  EXPECT_DOUBLE_EQ(est.resemblance, 0.0);
  EXPECT_EQ(est.matching_components, 0u);
}

TEST(IntersectionTest, SingleSetReturnsItsSize) {
  SetHashFamily family(32, 1);
  const Signature a = family.SignatureOf(Range(0, 10));
  const auto est = EstimateIntersectionSize({{&a, 10.0}});
  EXPECT_DOUBLE_EQ(est.size, 10.0);
  EXPECT_EQ(est.matching_components, 32u);
}

TEST(IntersectionTest, EstimatesOverlapSize) {
  SetHashFamily family(512, 9);
  const Signature a = family.SignatureOf(Range(0, 1000));
  const Signature b = family.SignatureOf(Range(500, 1500));
  const auto est = EstimateIntersectionSize({{&a, 1000.0}, {&b, 1000.0}});
  EXPECT_NEAR(est.size, 500.0, 150.0);
  EXPECT_GT(est.matching_components, 0u);
}

TEST(IntersectionTest, SubsetIntersectionIsSmallerSet) {
  SetHashFamily family(512, 9);
  const Signature a = family.SignatureOf(Range(0, 1000));
  const Signature b = family.SignatureOf(Range(0, 100));
  const auto est = EstimateIntersectionSize({{&a, 1000.0}, {&b, 100.0}});
  EXPECT_NEAR(est.size, 100.0, 40.0);
}

TEST(IntersectionTest, NeverExceedsSmallestSet) {
  SetHashFamily family(64, 5);
  const Signature a = family.SignatureOf(Range(0, 1000));
  const Signature b = family.SignatureOf(Range(0, 10));
  const auto est = EstimateIntersectionSize({{&a, 1000.0}, {&b, 10.0}});
  EXPECT_LE(est.size, 10.0);
}

TEST(IntersectionTest, DisjointSetsEstimateNearZero) {
  SetHashFamily family(256, 5);
  const Signature a = family.SignatureOf(Range(0, 500));
  const Signature b = family.SignatureOf(Range(500, 1000));
  const auto est = EstimateIntersectionSize({{&a, 500.0}, {&b, 500.0}});
  EXPECT_LT(est.size, 40.0);
}

TEST(IntersectionTest, ZeroSizedSetShortCircuits) {
  SetHashFamily family(32, 1);
  const Signature a = family.SignatureOf(Range(0, 10));
  const Signature empty = family.EmptySignature();
  const auto est = EstimateIntersectionSize({{&a, 10.0}, {&empty, 0.0}});
  EXPECT_DOUBLE_EQ(est.size, 0.0);
}

TEST(IntersectionTest, ThreeWayIntersection) {
  SetHashFamily family(512, 11);
  const Signature a = family.SignatureOf(Range(0, 900));
  const Signature b = family.SignatureOf(Range(300, 1200));
  const Signature c = family.SignatureOf(Range(600, 1500));
  const auto est = EstimateIntersectionSize(
      {{&a, 900.0}, {&b, 900.0}, {&c, 900.0}});
  EXPECT_NEAR(est.size, 300.0, 130.0);
}

/// Property sweep: the estimator converges to the exact intersection
/// as signature length grows.
class IntersectionConvergence : public ::testing::TestWithParam<size_t> {};

TEST_P(IntersectionConvergence, ErrorShrinksWithLength) {
  const size_t length = GetParam();
  SetHashFamily family(length, 17);
  const Signature a = family.SignatureOf(Range(0, 1000));
  const Signature b = family.SignatureOf(Range(400, 1400));
  const auto est = EstimateIntersectionSize({{&a, 1000.0}, {&b, 1000.0}});
  // True intersection 600. Binomial error ~ 1/sqrt(length); allow 5
  // sigma of the resemblance noise propagated through the scaling.
  const double sigma = 600.0 * 5.0 / std::sqrt(static_cast<double>(length));
  EXPECT_NEAR(est.size, 600.0, std::max(sigma, 120.0));
}

INSTANTIATE_TEST_SUITE_P(Lengths, IntersectionConvergence,
                         ::testing::Values(64, 128, 256, 512, 1024));

}  // namespace
}  // namespace twig::sethash
