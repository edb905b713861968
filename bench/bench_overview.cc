// Table 1 (the algorithm property matrix) and the Section 5 worked
// example: estimating twig occurrences from presences under the
// uniformity assumption, on the paper's Figure 1 data tree.

#include <cstdio>

#include "core/estimator.h"
#include "cst/cst.h"
#include "match/matcher.h"
#include "query/twig.h"
#include "suffix/path_suffix_tree.h"
#include "tree/tree.h"

namespace {

using namespace twig;

/// The paper's Figure 1 DBLP fragment: three books.
tree::Tree FigureOneTree() {
  tree::TreeBuilder b;
  tree::NodeId dblp = b.AddRoot("dblp");
  auto add_book = [&](std::initializer_list<const char*> authors,
                      const char* title, const char* year) {
    tree::NodeId book = b.AddElement(dblp, "book");
    for (const char* a : authors) {
      b.AddValue(b.AddElement(book, "author"), a);
    }
    b.AddValue(b.AddElement(book, "title"), title);
    b.AddValue(b.AddElement(book, "year"), year);
  };
  add_book({"A1"}, "T1", "Y1");
  add_book({"A1", "A2"}, "T2", "Y1");
  add_book({"A1", "A2", "A3"}, "T3", "Y1");
  return std::move(b).Finish();
}

}  // namespace

int main() {
  std::printf("== Table 1: estimation algorithms ==\n");
  std::printf(
      "%-8s %-18s %-13s %-28s %s\n"
      "-------------------------------------------------------------------"
      "-----------\n"
      "%-8s %-18s %-13s %-28s %s\n"
      "%-8s %-18s %-13s %-28s %s\n"
      "%-8s %-18s %-13s %-28s %s\n"
      "%-8s %-18s %-13s %-28s %s\n"
      "%-8s %-18s %-13s %-28s %s\n"
      "%-8s %-18s %-13s %-28s %s\n",
      "Name", "Path Information", "Correlation", "Twiglets Formation",
      "Combination",
      "Leaf", "Not stored", "Not stored", "Single path", "MO",
      "Greedy", "Stored", "Not stored", "Single path", "Greedy",
      "MO", "Stored", "Not stored", "Single path", "MO",
      "MOSH", "Stored", "Stored", "Deep but often skinny", "MO",
      "PMOSH", "Stored", "Stored", "Bushy but often shallow", "MO",
      "MSH", "Stored", "Stored", "Deep/bushy balance", "MO");

  std::printf("\n== Section 5 example: occurrence estimation on the Figure 1 "
              "tree ==\n");
  tree::Tree data = FigureOneTree();
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions copt;
  copt.prune_threshold = 1;  // keep everything: the tree is tiny
  cst::Cst summary = cst::Cst::Build(data, pst, copt);

  auto twig = query::ParseTwig("book(author, year=\"Y1\")");
  const match::TwigCounts truth =
      match::CountTwigMatches(data, *twig).value();
  std::printf("query %s: true presence=%.0f, true occurrence=%.0f\n",
              query::FormatTwig(*twig).c_str(), truth.presence,
              truth.occurrence);
  core::TwigEstimator estimator(&summary);
  core::EstimateOptions presence_opts;
  presence_opts.semantics = core::CountSemantics::kPresence;
  core::EstimateOptions occurrence_opts;
  occurrence_opts.semantics = core::CountSemantics::kOccurrence;
  for (core::Algorithm algorithm : core::kAllAlgorithms) {
    std::printf("  %-7s presence=%6.2f  occurrence=%6.2f\n",
                core::AlgorithmName(algorithm),
                estimator.Estimate(*twig, algorithm, presence_opts),
                estimator.Estimate(*twig, algorithm, occurrence_opts));
  }
  std::printf("\nPaper's worked example: presence est 2.9 for the twiglet, "
              "occurrence\nscale (6/3)*(3/3) = 2 -> occurrence est ~5.8 vs "
              "true 6.\n");
  return 0;
}
