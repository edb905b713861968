#include <gtest/gtest.h>

#include <string>

#include "match/matcher.h"
#include "query/twig.h"
#include "test_trees.h"

namespace twig::match {
namespace {

using query::ParseTwig;
using tree::Tree;

TwigCounts Count(const Tree& data, const char* twig_text,
                 const MatchOptions& options = {}) {
  auto twig = ParseTwig(twig_text);
  EXPECT_TRUE(twig.ok()) << twig.status().ToString();
  auto counts = CountTwigMatches(data, *twig, options);
  EXPECT_TRUE(counts.ok()) << counts.status().ToString();
  return *counts;
}

TEST(MatcherTest, PaperQueryOne) {
  // Figure 1, QUERY 1: book(author="A1", year="Y1") has three matches.
  Tree data = testutil::FigureOneTree();
  TwigCounts counts = Count(data, "book(author=\"A1\", year=\"Y1\")");
  EXPECT_DOUBLE_EQ(counts.presence, 3.0);
  EXPECT_DOUBLE_EQ(counts.occurrence, 3.0);
}

TEST(MatcherTest, PaperQueryTwoUnorderedVsOrdered) {
  // Figure 1, QUERY 2: book(author="A2", author="A1"-side, year="Y1"):
  // 2 unordered matches, 1 ordered match. Expressed with the sampled
  // sibling order author="A2" before author="A1".
  Tree data = testutil::FigureOneTree();
  const char* q = "book(author=\"A2\", author=\"A1\", year=\"Y1\")";
  TwigCounts unordered = Count(data, q);
  EXPECT_DOUBLE_EQ(unordered.presence, 2.0);
  EXPECT_DOUBLE_EQ(unordered.occurrence, 2.0);
  MatchOptions ordered;
  ordered.ordered = true;
  // In document order, authors appear as A1 then A2, so requiring A2
  // before A1 yields no ordered match; the A1-then-A2 query yields 2.
  EXPECT_DOUBLE_EQ(Count(data, q, ordered).occurrence, 0.0);
  EXPECT_DOUBLE_EQ(
      Count(data, "book(author=\"A1\", author=\"A2\", year=\"Y1\")", ordered)
          .occurrence,
      2.0);
}

TEST(MatcherTest, OccurrenceCountsAllMappings) {
  // book(author) maps to each (book, author) pair: 1 + 2 + 3 = 6;
  // presence counts distinct books: 3.
  Tree data = testutil::FigureOneTree();
  TwigCounts counts = Count(data, "book.author");
  EXPECT_DOUBLE_EQ(counts.presence, 3.0);
  EXPECT_DOUBLE_EQ(counts.occurrence, 6.0);
}

TEST(MatcherTest, SiblingInjectivity) {
  // book(author, author): injective pairs of distinct authors, ordered
  // mappings: book1: 0, book2: 2, book3: 6 -> 8 total; presence 2.
  Tree data = testutil::FigureOneTree();
  TwigCounts counts = Count(data, "book(author, author)");
  EXPECT_DOUBLE_EQ(counts.presence, 2.0);
  EXPECT_DOUBLE_EQ(counts.occurrence, 8.0);
}

TEST(MatcherTest, ValuePrefixSemantics) {
  tree::TreeBuilder b;
  auto dblp = b.AddRoot("dblp");
  auto book = b.AddElement(dblp, "book");
  auto author = b.AddElement(book, "author");
  b.AddValue(author, "Suciu");
  Tree data = std::move(b).Finish();
  EXPECT_DOUBLE_EQ(Count(data, "author=\"Su\"").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "author=\"Suciu\"").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "author=\"uciu\"").occurrence, 0.0);
  EXPECT_DOUBLE_EQ(Count(data, "author=\"Suciux\"").occurrence, 0.0);
}

TEST(MatcherTest, RootCanMatchAnywhere) {
  // The twig root maps to any data node, not just the data root.
  Tree data = testutil::FigureOneTree();
  EXPECT_DOUBLE_EQ(Count(data, "author=\"A3\"").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "year").presence, 3.0);
}

TEST(MatcherTest, NoMatchMeansZero) {
  Tree data = testutil::FigureOneTree();
  EXPECT_DOUBLE_EQ(Count(data, "book(author=\"A3\", title=\"T1\")").occurrence,
                   0.0);
  EXPECT_DOUBLE_EQ(Count(data, "journal").occurrence, 0.0);
}

TEST(MatcherTest, DeepChainMatch) {
  Tree data = testutil::FigureOneTree();
  EXPECT_DOUBLE_EQ(Count(data, "dblp.book.author=\"A1\"").occurrence, 3.0);
  EXPECT_DOUBLE_EQ(Count(data, "dblp.book.author=\"A1\"").presence, 1.0);
}

TEST(MatcherTest, WildcardMatchesAnyElement) {
  Tree data = testutil::FigureOneTree();
  // *(author="A2") matches books 2 and 3.
  EXPECT_DOUBLE_EQ(Count(data, "*(author=\"A2\")").presence, 2.0);
  // book.* counts all element children of books: 3+4+5 = 12.
  EXPECT_DOUBLE_EQ(Count(data, "book.*").occurrence, 12.0);
}

TEST(MatcherTest, MultisetPermanentBranching) {
  // A node with 4 identical-label children, query asks for 3:
  // occurrence = 4 * 3 * 2 = 24 injective ordered mappings.
  tree::TreeBuilder b;
  auto root = b.AddRoot("r");
  for (int i = 0; i < 4; ++i) b.AddElement(root, "c");
  Tree data = std::move(b).Finish();
  TwigCounts counts = Count(data, "r(c, c, c)");
  EXPECT_DOUBLE_EQ(counts.presence, 1.0);
  EXPECT_DOUBLE_EQ(counts.occurrence, 24.0);
  // Ordered semantics: choose an increasing triple: C(4,3) = 4.
  MatchOptions ordered;
  ordered.ordered = true;
  EXPECT_DOUBLE_EQ(Count(data, "r(c, c, c)", ordered).occurrence, 4.0);
}

TEST(MatcherTest, FigureTwoPattern) {
  Tree data = testutil::FigureTwoTree();
  TwigCounts counts = Count(data, "a.b.c(d.e, f.g)");
  EXPECT_DOUBLE_EQ(counts.presence, 1.0);
  EXPECT_DOUBLE_EQ(counts.occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "c(d, f)").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "c(e, f)").occurrence, 0.0);
}

TEST(MatcherTest, DescendantEdgeBasics) {
  // a(x(b), b): a//b reaches the nested b through child x and the
  // direct b child.
  tree::TreeBuilder b;
  auto a = b.AddRoot("a");
  auto x = b.AddElement(a, "x");
  b.AddElement(x, "b");
  b.AddElement(a, "b");
  Tree data = std::move(b).Finish();
  EXPECT_DOUBLE_EQ(Count(data, "a//b").occurrence, 2.0);
  EXPECT_DOUBLE_EQ(Count(data, "a//b").presence, 1.0);
  // Child-edge semantics are untouched.
  EXPECT_DOUBLE_EQ(Count(data, "a.b").occurrence, 1.0);
  // Deep chain: only the descendant edge crosses levels.
  EXPECT_DOUBLE_EQ(Count(data, "a.x.b").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "a//x").occurrence, 1.0);
}

TEST(MatcherTest, DescendantEdgeSkipsLevels) {
  // a -> x -> y -> b: a//b finds b three levels down.
  tree::TreeBuilder b;
  auto a = b.AddRoot("a");
  auto x = b.AddElement(a, "x");
  auto y = b.AddElement(x, "y");
  b.AddElement(y, "b");
  Tree data = std::move(b).Finish();
  EXPECT_DOUBLE_EQ(Count(data, "a//b").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "a.b").occurrence, 0.0);
  // Chained descendant edges compose.
  EXPECT_DOUBLE_EQ(Count(data, "a//y//b").occurrence, 1.0);
  EXPECT_DOUBLE_EQ(Count(data, "a//b//y").occurrence, 0.0);
}

TEST(MatcherTest, DescendantChildrenRouteThroughDistinctSubtrees) {
  // a(x(b), b): the two //b twig children must route through distinct
  // children of a — the nested b and the direct b, in both
  // assignments.
  tree::TreeBuilder b;
  auto a = b.AddRoot("a");
  auto x = b.AddElement(a, "x");
  b.AddElement(x, "b");
  b.AddElement(a, "b");
  Tree data = std::move(b).Finish();
  EXPECT_DOUBLE_EQ(Count(data, "a(//b, //b)").occurrence, 2.0);
  // Both b's under one child of a: no disjoint routing exists.
  tree::TreeBuilder nested_b;
  auto r = nested_b.AddRoot("a");
  auto mid = nested_b.AddElement(r, "x");
  nested_b.AddElement(mid, "b");
  nested_b.AddElement(mid, "b");
  Tree nested = std::move(nested_b).Finish();
  EXPECT_DOUBLE_EQ(Count(nested, "a(//b, //b)").occurrence, 0.0);
  EXPECT_DOUBLE_EQ(Count(nested, "x(//b, //b)").occurrence, 2.0);
}

TEST(MatcherTest, DescendantMixesWithValuesAndWildcards) {
  Tree data = testutil::FigureOneTree();
  // dblp//author="A1": authors live two levels below dblp.
  EXPECT_DOUBLE_EQ(Count(data, "dblp//author=\"A1\"").occurrence, 3.0);
  // *//author: dblp (6 authors below) + 3 books (their own authors).
  EXPECT_DOUBLE_EQ(Count(data, "*//author").occurrence, 12.0);
}

// Regression: Walk used to recurse per data-tree level, so a deep
// chain overflowed the native stack. 200k levels must count fine, for
// child and descendant edges alike.
TEST(MatcherTest, DeepChainDoesNotOverflowStack) {
  constexpr int kDepth = 200000;
  tree::TreeBuilder b;
  auto node = b.AddRoot("a");
  for (int i = 1; i < kDepth; ++i) node = b.AddElement(node, "a");
  Tree data = std::move(b).Finish();
  TwigCounts child = Count(data, "a.a");
  EXPECT_DOUBLE_EQ(child.presence, kDepth - 1);
  EXPECT_DOUBLE_EQ(child.occurrence, kDepth - 1);
  // a//a pairs every node with each strict descendant: n*(n-1)/2.
  TwigCounts desc = Count(data, "a//a");
  EXPECT_DOUBLE_EQ(desc.occurrence,
                   static_cast<double>(kDepth) * (kDepth - 1) / 2.0);
}

// Regression: the fan-out bound was a debug-only assert, so release
// builds hit shift UB (fan-out >= 64) or multi-GB allocations (~30).
// It must be a structured error in every build mode.
TEST(MatcherTest, FanOutBeyondDpWidthIsAnError) {
  tree::TreeBuilder b;
  auto root = b.AddRoot("r");
  for (int i = 0; i < 25; ++i) b.AddElement(root, "c");
  Tree data = std::move(b).Finish();
  std::string wide = "r(c";
  for (int i = 1; i < 25; ++i) wide += ", c";
  wide += ")";
  auto twig = ParseTwig(wide);
  ASSERT_TRUE(twig.ok());
  auto counts = CountTwigMatches(data, *twig);
  ASSERT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kInvalidArgument);
  // At the limit the DP still runs (on a small tree so the 2^20-state
  // DP table is touched only briefly).
  tree::TreeBuilder narrow_b;
  auto nroot = narrow_b.AddRoot("r");
  for (int i = 0; i < 4; ++i) narrow_b.AddElement(nroot, "c");
  Tree narrow = std::move(narrow_b).Finish();
  std::string at_limit = "r(c";
  for (size_t i = 1; i < kMaxTwigFanOut; ++i) at_limit += ", c";
  at_limit += ")";
  auto ok_twig = ParseTwig(at_limit);
  ASSERT_TRUE(ok_twig.ok());
  auto ok_counts = CountTwigMatches(narrow, *ok_twig);
  ASSERT_TRUE(ok_counts.ok());
  EXPECT_DOUBLE_EQ(ok_counts->occurrence, 0.0);  // 4 children < 20 asked
}

TEST(MatcherTest, EmptyInputs) {
  Tree empty;
  auto twig = ParseTwig("a");
  ASSERT_TRUE(twig.ok());
  TwigCounts counts = CountTwigMatches(empty, *twig).value();
  EXPECT_DOUBLE_EQ(counts.occurrence, 0.0);
}

TEST(MatcherTest, ValueLeafUnderWrongParentFails) {
  Tree data = testutil::FigureOneTree();
  // "book" elements have no direct value children.
  EXPECT_DOUBLE_EQ(Count(data, "book=\"A1\"").occurrence, 0.0);
}

}  // namespace
}  // namespace twig::match
