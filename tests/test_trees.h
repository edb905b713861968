// Shared fixture trees for the test suite.

#ifndef TWIG_TESTS_TEST_TREES_H_
#define TWIG_TESTS_TEST_TREES_H_

#include <cstdint>
#include <initializer_list>

#include "data/generators.h"
#include "tree/tree.h"

namespace twig::testutil {

/// The paper's Figure 1 DBLP fragment: three books with duplicate
/// sibling author labels (the multiset case).
inline tree::Tree FigureOneTree() {
  tree::Tree t;
  tree::NodeId dblp = t.AddRoot("dblp");
  auto add_book = [&](std::initializer_list<const char*> authors,
                      const char* title, const char* year) {
    tree::NodeId book = t.AddElement(dblp, "book");
    for (const char* a : authors) {
      t.AddValue(t.AddElement(book, "author"), a);
    }
    t.AddValue(t.AddElement(book, "title"), title);
    t.AddValue(t.AddElement(book, "year"), year);
  };
  add_book({"A1"}, "T1", "Y1");
  add_book({"A1", "A2"}, "T2", "Y1");
  add_book({"A1", "A2", "A3"}, "T3", "Y1");
  return t;
}

/// The Figure 2(a) example pattern's data-side analogue: one tree
/// containing paths a.b.c.d.e and a.b.c.f.g.
inline tree::Tree FigureTwoTree() {
  tree::Tree t;
  tree::NodeId a = t.AddRoot("a");
  tree::NodeId b = t.AddElement(a, "b");
  tree::NodeId c = t.AddElement(b, "c");
  tree::NodeId d = t.AddElement(c, "d");
  t.AddElement(d, "e");
  tree::NodeId f = t.AddElement(c, "f");
  t.AddElement(f, "g");
  return t;
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
