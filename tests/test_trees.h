// Shared fixture trees for the test suite.

#ifndef TWIG_TESTS_TEST_TREES_H_
#define TWIG_TESTS_TEST_TREES_H_

#include <cstdint>
#include <initializer_list>
#include <utility>

#include "data/generators.h"
#include "tree/tree.h"

namespace twig::testutil {

/// The paper's Figure 1 DBLP fragment: three books with duplicate
/// sibling author labels (the multiset case).
inline tree::Tree FigureOneTree() {
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

/// The Figure 2(a) example pattern's data-side analogue: one tree
/// containing paths a.b.c.d.e and a.b.c.f.g.
inline tree::Tree FigureTwoTree() {
  tree::TreeBuilder builder;
  tree::NodeId a = builder.AddRoot("a");
  tree::NodeId b = builder.AddElement(a, "b");
  tree::NodeId c = builder.AddElement(b, "c");
  tree::NodeId d = builder.AddElement(c, "d");
  builder.AddElement(d, "e");
  tree::NodeId f = builder.AddElement(c, "f");
  builder.AddElement(f, "g");
  return std::move(builder).Finish();
}

/// A generated 256 KiB DBLP document (about 14.5k nodes).
inline tree::Tree SmallDblp(uint64_t seed) {
  data::DblpOptions options;
  options.target_bytes = 256 * 1024;
  options.seed = seed;
  return data::GenerateDblp(options);
}

}  // namespace twig::testutil

#endif  // TWIG_TESTS_TEST_TREES_H_
