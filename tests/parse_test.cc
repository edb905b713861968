#include <gtest/gtest.h>

#include "core/expanded_query.h"
#include "core/parse.h"
#include "cst/cst.h"
#include "query/twig.h"
#include "test_trees.h"

namespace twig::core {
namespace {

using cst::Cst;
using cst::CstOptions;
using query::ParseTwig;
using suffix::PathSuffixTree;
using tree::Tree;

Cst BuildCst(const Tree& data, uint32_t threshold = 1) {
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = threshold;
  return Cst::Build(data, pst, options);
}

TEST(ExpandQueryTest, ElementsAndValueChars) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("book(author=\"A1\", year)");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  // book, author, 'A', '1', year.
  ASSERT_EQ(eq.atoms.size(), 5u);
  EXPECT_TRUE(eq.atoms[0].is_tag);
  EXPECT_TRUE(eq.atoms[1].is_tag);
  EXPECT_FALSE(eq.atoms[2].is_tag);
  EXPECT_FALSE(eq.atoms[3].is_tag);
  EXPECT_TRUE(eq.atoms[4].is_tag);
  EXPECT_EQ(eq.atoms[2].symbol, suffix::CharSymbol('A'));
  // Two root-to-leaf paths: book.author.A.1 and book.year.
  ASSERT_EQ(eq.paths.size(), 2u);
  EXPECT_EQ(eq.paths[0].size(), 4u);
  EXPECT_EQ(eq.paths[1].size(), 2u);
  // Branch: the book atom.
  ASSERT_EQ(eq.branch_atoms.size(), 1u);
  EXPECT_EQ(eq.branch_atoms[0], 0);
}

TEST(ExpandQueryTest, UnknownTagGetsUnknownSymbol) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("nosuchtag.author");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  EXPECT_EQ(eq.atoms[0].symbol, Cst::kUnknownSymbol);
}

TEST(ExpandQueryTest, ValueCharsCapped) {
  Tree data = testutil::FigureOneTree();
  suffix::PathSuffixTreeOptions options;
  options.max_value_chars = 2;
  auto pst = PathSuffixTree::Build(data, options);
  Cst cst = Cst::Build(data, pst);
  EXPECT_EQ(cst.max_value_chars(), 2u);
  auto twig = ParseTwig("author=\"A1234\"");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  EXPECT_EQ(eq.atoms.size(), 3u);  // author + 2 chars
}

TEST(MaximalParseTest, WholePathWhenPresent) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("book.author=\"A1\"");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto pieces = MaximalParseInterval(eq, cst, 0, 0,
                                     static_cast<int>(eq.paths[0].size()));
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].start, 0);
  EXPECT_EQ(pieces[0].length, 4);
  EXPECT_FALSE(pieces[0].missing);
}

TEST(MaximalParseTest, OverlappingPiecesOnPrunedCst) {
  // Threshold 2 prunes title:T* and author:A3 etc; a query through a
  // pruned deep node must parse into overlapping pieces.
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data, /*threshold=*/2);
  auto twig = ParseTwig("book.author=\"A2\"");  // pt(author:A2) = 2
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto pieces = MaximalParseInterval(eq, cst, 0, 0,
                                     static_cast<int>(eq.paths[0].size()));
  ASSERT_EQ(pieces.size(), 1u);  // book.author.A2 retained at pt >= 2
  // Now prune at 3: author:A2 (pt 2) goes away; the '2' char is rare.
  Cst tight = BuildCst(data, /*threshold=*/3);
  ExpandedQuery eq3 = ExpandQuery(*twig, tight);
  auto pieces3 = MaximalParseInterval(eq3, tight, 0, 0,
                                      static_cast<int>(eq3.paths[0].size()));
  ASSERT_GE(pieces3.size(), 2u);
  EXPECT_EQ(pieces3[0].start, 0);
  // Pieces must cover the whole path.
  int covered_end = 0;
  for (const auto& p : pieces3) {
    EXPECT_LE(p.start, covered_end);
    covered_end = std::max(covered_end, p.start + p.length);
  }
  EXPECT_EQ(covered_end, static_cast<int>(eq3.paths[0].size()));
}

TEST(MaximalParseTest, MissingAtomProducesMissingPiece) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("book.journal");  // journal not in data
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto pieces = MaximalParseInterval(eq, cst, 0, 0, 2);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_FALSE(pieces[0].missing);  // book
  EXPECT_TRUE(pieces[1].missing);   // journal
}

TEST(GreedyParseTest, NonOverlapping) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data, /*threshold=*/3);
  auto twig = ParseTwig("book.author=\"A2\"");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto pieces = GreedyParseInterval(eq, cst, 0, 0,
                                    static_cast<int>(eq.paths[0].size()));
  // Greedy pieces tile the path without overlap.
  int pos = 0;
  for (const auto& p : pieces) {
    EXPECT_EQ(p.start, pos);
    pos += p.length;
  }
  EXPECT_EQ(pos, static_cast<int>(eq.paths[0].size()));
}

TEST(ParseQueryTest, DedupesSharedPrefixPieces) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("dblp.book(author=\"A1\", year=\"Y1\")");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto pieces = ParseQuery(eq, cst, ParseStrategy::kMaximal);
  // Both paths fully match; identical (start,end) intervals appear once.
  for (size_t i = 0; i < pieces.size(); ++i) {
    for (size_t j = i + 1; j < pieces.size(); ++j) {
      EXPECT_FALSE(pieces[i].StartAtom(eq) == pieces[j].StartAtom(eq) &&
                   pieces[i].EndAtom(eq) == pieces[j].EndAtom(eq));
    }
  }
}

TEST(ParseQueryTest, PiecewiseSegmentsAtBranch) {
  // Deep branch: a.b.c(d, e) in a matching data tree; segments are
  // a.b.c, c.d, c.e (boundaries shared).
  tree::TreeBuilder builder;
  auto a = builder.AddRoot("a");
  auto b = builder.AddElement(a, "b");
  auto c = builder.AddElement(b, "c");
  builder.AddElement(c, "d");
  builder.AddElement(c, "e");
  Tree data = std::move(builder).Finish();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("a.b.c(d, e)");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto pieces = ParseQuery(eq, cst, ParseStrategy::kPiecewiseMaximal);
  // Maximal parse would give 2 pieces (whole paths); piecewise gives
  // 3: a.b.c, c.d, c.e.
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].length, 3);
  EXPECT_EQ(pieces[1].length, 2);
  EXPECT_EQ(pieces[2].length, 2);
}

TEST(ParseQueryTest, SinglePathQueryAllStrategiesAgree) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildCst(data);
  auto twig = ParseTwig("dblp.book.author=\"A1\"");
  ASSERT_TRUE(twig.ok());
  ExpandedQuery eq = ExpandQuery(*twig, cst);
  auto maximal = ParseQuery(eq, cst, ParseStrategy::kMaximal);
  auto piecewise = ParseQuery(eq, cst, ParseStrategy::kPiecewiseMaximal);
  ASSERT_EQ(maximal.size(), piecewise.size());
  for (size_t i = 0; i < maximal.size(); ++i) {
    EXPECT_EQ(maximal[i].start, piecewise[i].start);
    EXPECT_EQ(maximal[i].length, piecewise[i].length);
  }
}

}  // namespace
}  // namespace twig::core
