#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "suffix/path_suffix_tree.h"
#include "test_trees.h"

namespace twig::suffix {
namespace {

using tree::Tree;

/// Walks the tree along a subpath written as dotted tags followed by
/// optional value characters, e.g. "book.author:Su" or ":uciu". Edges
/// resolve through a (parent, symbol) map built from Parent and
/// GetSymbol, since the tree itself has no child lookup.
PstNodeId Find(const PathSuffixTree& pst, const Tree& data,
               const std::string& spec) {
  std::map<std::pair<PstNodeId, Symbol>, PstNodeId> children;
  for (PstNodeId n = 1; n < pst.node_count(); ++n) {
    children.emplace(std::make_pair(pst.Parent(n), pst.GetSymbol(n)), n);
  }
  auto step = [&](PstNodeId node, Symbol symbol) {
    const auto it = children.find(std::make_pair(node, symbol));
    return it == children.end() ? kNoPstNode : it->second;
  };
  const size_t colon = spec.find(':');
  const std::string tags = spec.substr(0, colon == std::string::npos
                                              ? spec.size()
                                              : colon);
  PstNodeId node = pst.root();
  if (!tags.empty()) {
    size_t start = 0;
    while (start <= tags.size()) {
      size_t dot = tags.find('.', start);
      const std::string tag =
          tags.substr(start, dot == std::string::npos ? std::string::npos
                                                      : dot - start);
      tree::LabelId id = data.labels().Find(tag);
      if (id == tree::kInvalidLabel) return kNoPstNode;
      node = step(node, TagSymbol(id));
      if (node == kNoPstNode) return kNoPstNode;
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
  }
  if (colon != std::string::npos) {
    for (char c : spec.substr(colon + 1)) {
      node = step(node, CharSymbol(c));
      if (node == kNoPstNode) return kNoPstNode;
    }
  }
  return node;
}

TEST(PathSuffixTreeTest, ContainsTagSubpathsOfAllSuffixes) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  EXPECT_NE(Find(pst, data, "dblp.book.author"), kNoPstNode);
  EXPECT_NE(Find(pst, data, "book.author"), kNoPstNode);
  EXPECT_NE(Find(pst, data, "author"), kNoPstNode);
  EXPECT_NE(Find(pst, data, "book.year"), kNoPstNode);
}

TEST(PathSuffixTreeTest, ValueCharsOnlyReachableAsPrefixAfterTags) {
  // "author.Su" exists, "author.uciu" must not (paper Section 3.1).
  tree::TreeBuilder b;
  auto dblp = b.AddRoot("dblp");
  auto book = b.AddElement(dblp, "book");
  auto author = b.AddElement(book, "author");
  b.AddValue(author, "Suciu");
  Tree data = std::move(b).Finish();
  auto pst = PathSuffixTree::Build(data);
  EXPECT_NE(Find(pst, data, "author:S"), kNoPstNode);
  EXPECT_NE(Find(pst, data, "author:Suciu"), kNoPstNode);
  EXPECT_EQ(Find(pst, data, "author:uciu"), kNoPstNode);
  // Character-only suffixes of the value do exist.
  EXPECT_NE(Find(pst, data, ":uciu"), kNoPstNode);
  EXPECT_NE(Find(pst, data, ":u"), kNoPstNode);
}

TEST(PathSuffixTreeTest, NoTagSplitMidName) {
  // "uthor.Suciu" must not exist: tags are atomic symbols.
  tree::TreeBuilder b;
  auto dblp = b.AddRoot("dblp");
  auto author = b.AddElement(dblp, "author");
  b.AddValue(author, "Suciu");
  Tree data = std::move(b).Finish();
  auto pst = PathSuffixTree::Build(data);
  // There is no single-char 'u' path followed by tag-like content;
  // verify by checking that from the root, the only tag children are
  // real tags and chars come only from value suffixes.
  EXPECT_EQ(Find(pst, data, "uthor"), kNoPstNode);
}

TEST(PathSuffixTreeTest, PathCountsArePathsContainingSubpath) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  // 12 root-to-leaf paths (one per value node).
  EXPECT_EQ(pst.total_paths(), 12u);
  // Every path contains "dblp" and "book".
  EXPECT_EQ(pst.PathCount(Find(pst, data, "dblp")), 12u);
  EXPECT_EQ(pst.PathCount(Find(pst, data, "book")), 12u);
  // 6 author paths.
  EXPECT_EQ(pst.PathCount(Find(pst, data, "book.author")), 6u);
  EXPECT_EQ(pst.PathCount(Find(pst, data, "dblp.book.author")), 6u);
  // 3 year paths, all with value Y1.
  EXPECT_EQ(pst.PathCount(Find(pst, data, "year:Y1")), 3u);
}

TEST(PathSuffixTreeTest, RepeatedSubpathInOnePathCountedOnce) {
  // Path a.a.a.v: subpath "a" occurs three times but in one path.
  tree::TreeBuilder b;
  auto a1 = b.AddRoot("a");
  auto a2 = b.AddElement(a1, "a");
  auto a3 = b.AddElement(a2, "a");
  b.AddValue(a3, "v");
  Tree data = std::move(b).Finish();
  auto pst = PathSuffixTree::Build(data);
  EXPECT_EQ(pst.PathCount(Find(pst, data, "a")), 1u);
  EXPECT_EQ(pst.PathCount(Find(pst, data, "a.a")), 1u);
  EXPECT_EQ(pst.PathCount(Find(pst, data, "a.a.a")), 1u);
}

TEST(PathSuffixTreeTest, PtIsMonotoneUnderSubpaths) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  // pt(child) <= pt(parent) across the whole trie.
  for (PstNodeId n = 1; n < pst.node_count(); ++n) {
    if (pst.Parent(n) == pst.root()) continue;
    EXPECT_LE(pst.PathCount(n), pst.PathCount(pst.Parent(n)))
        << "node " << n;
  }
}

TEST(PathSuffixTreeTest, StartsWithTagFlag) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  EXPECT_TRUE(pst.StartsWithTag(Find(pst, data, "book.author")));
  EXPECT_TRUE(pst.StartsWithTag(Find(pst, data, "author:A")));
  EXPECT_FALSE(pst.StartsWithTag(Find(pst, data, ":A")));
  EXPECT_FALSE(pst.StartsWithTag(Find(pst, data, ":1")));
}

TEST(PathSuffixTreeTest, ChildlessElementIsALeafPath) {
  tree::TreeBuilder b;
  auto a = b.AddRoot("a");
  b.AddElement(a, "br");
  Tree data = std::move(b).Finish();
  auto pst = PathSuffixTree::Build(data);
  EXPECT_EQ(pst.total_paths(), 1u);
  EXPECT_NE(Find(pst, data, "a.br"), kNoPstNode);
}

TEST(PathSuffixTreeTest, ValueCharCapRespected) {
  tree::TreeBuilder b;
  auto a = b.AddRoot("a");
  b.AddValue(a, "abcdefghijklmnop");
  Tree data = std::move(b).Finish();
  PathSuffixTreeOptions options;
  options.max_value_chars = 4;
  auto pst = PathSuffixTree::Build(data, options);
  EXPECT_NE(Find(pst, data, "a:abcd"), kNoPstNode);
  EXPECT_EQ(Find(pst, data, "a:abcde"), kNoPstNode);
}

TEST(PathSuffixTreeTest, DepthTracked) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  EXPECT_EQ(pst.Depth(Find(pst, data, "dblp")), 1u);
  EXPECT_EQ(pst.Depth(Find(pst, data, "dblp.book.author")), 3u);
  EXPECT_EQ(pst.Depth(Find(pst, data, "book.author:A1")), 4u);
}

/// Oracle for PathSuffixTree::Build: one thread inserting every suffix
/// in document order, with child edges kept in a std::map keyed by the
/// full (parent, symbol).
struct ReferencePst {
  struct Node {
    Symbol symbol = 0;
    PstNodeId parent = kNoPstNode;
    uint32_t pt = 0;
    uint32_t last_path = 0xffffffffu;
    uint32_t depth = 0;
    bool starts_with_tag = false;
  };
  std::vector<Node> nodes{Node{}};
  std::map<std::pair<PstNodeId, Symbol>, PstNodeId> children;
  uint32_t total_paths = 0;

  ReferencePst(const Tree& data, const PathSuffixTreeOptions& options) {
    std::vector<Symbol> symbols;
    auto dfs = [&](auto&& self, tree::NodeId n) -> void {
      if (data.IsValue(n)) {
        const std::string_view value = data.Value(n);
        const size_t take = std::min(value.size(), options.max_value_chars);
        for (size_t i = 0; i < take; ++i) {
          symbols.push_back(CharSymbol(value[i]));
        }
        InsertSuffixes(symbols);
        symbols.resize(symbols.size() - take);
        return;
      }
      symbols.push_back(TagSymbol(data.Label(n)));
      if (data.Children(n).empty()) InsertSuffixes(symbols);
      for (tree::NodeId c : data.Children(n)) self(self, c);
      symbols.pop_back();
    };
    if (!data.empty()) dfs(dfs, data.root());
  }

  void InsertSuffixes(const std::vector<Symbol>& symbols) {
    const uint32_t path_id = total_paths++;
    for (size_t start = 0; start < symbols.size(); ++start) {
      PstNodeId node = 0;
      for (size_t i = start; i < symbols.size(); ++i) {
        const auto key = std::make_pair(node, symbols[i]);
        auto it = children.find(key);
        if (it == children.end()) {
          Node fresh;
          fresh.symbol = symbols[i];
          fresh.parent = node;
          fresh.depth = nodes[node].depth + 1;
          fresh.starts_with_tag = node == 0 ? IsTagSymbol(symbols[i])
                                            : nodes[node].starts_with_tag;
          it = children.emplace(key, static_cast<PstNodeId>(nodes.size()))
                   .first;
          nodes.push_back(fresh);
        }
        Node& child = nodes[it->second];
        if (child.last_path != path_id) {
          child.last_path = path_id;
          ++child.pt;
        }
        node = it->second;
      }
    }
  }
};

/// Requires the tree's value-prefix table to list each non-empty capped
/// value prefix once, in document order of first occurrence, with the
/// number of value nodes that have it.
void ExpectValuePrefixesMatch(const Tree& data, const PathSuffixTree& pst) {
  std::vector<std::string> order;
  std::map<std::string, uint32_t> counts;
  for (tree::NodeId n = 0; n < data.size(); ++n) {
    if (!data.IsValue(n)) continue;
    const std::string prefix(data.Value(n).substr(0, pst.max_value_chars()));
    if (prefix.empty()) continue;
    if (counts[prefix]++ == 0) order.push_back(prefix);
  }
  ASSERT_EQ(pst.value_prefix_count(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(pst.ValuePrefix(i), order[i]) << "prefix " << i;
    EXPECT_EQ(pst.ValuePrefixCount(i), counts[order[i]]) << "prefix " << i;
  }
}

/// Builds with `options` and requires node-for-node equality with the
/// map-keyed reference: same IDs, symbols, parents, depths, pt and
/// starts_with_tag. Equal parents and symbols for every node make every
/// edge equal too. The value-prefix table must match as well.
void ExpectMatchesReference(const Tree& data,
                            const PathSuffixTreeOptions& options = {}) {
  SCOPED_TRACE("max_value_chars=" + std::to_string(options.max_value_chars));
  const PathSuffixTree pst = PathSuffixTree::Build(data, options);
  ExpectValuePrefixesMatch(data, pst);
  const ReferencePst ref(data, options);
  ASSERT_EQ(pst.node_count(), ref.nodes.size());
  EXPECT_EQ(pst.total_paths(), ref.total_paths);
  EXPECT_EQ(pst.max_value_chars(), options.max_value_chars);
  size_t mismatches = 0;
  for (PstNodeId n = 0; n < ref.nodes.size(); ++n) {
    const ReferencePst::Node& want = ref.nodes[n];
    if (pst.GetSymbol(n) != want.symbol || pst.Parent(n) != want.parent ||
        pst.Depth(n) != want.depth || pst.PathCount(n) != want.pt ||
        pst.StartsWithTag(n) != want.starts_with_tag) {
      if (++mismatches <= 5) ADD_FAILURE() << "node " << n << " differs";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(PathSuffixTreeOracleTest, MatchesMapReferenceOnFigureOneAndDblp) {
  ExpectMatchesReference(testutil::FigureOneTree());
  ExpectMatchesReference(testutil::SmallDblp(1));
  ExpectMatchesReference(testutil::SmallDblp(2));
}

TEST(PathSuffixTreeOracleTest, WideElementGrowsTheBuildTable) {
  // 70k distinct children of one element give the root and that
  // element 70k child edges each, so the build table doubles many times.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("wide");
  for (int i = 0; i < 70000; ++i) {
    const tree::NodeId child = b.AddElement(root, "c" + std::to_string(i));
    if (i % 7 == 0) b.AddValue(child, "v" + std::to_string(i % 50));
  }
  Tree data = std::move(b).Finish();
  ExpectMatchesReference(data);
  EXPECT_GE(PathSuffixTree::Build(data).node_count(), 140000u);
}

TEST(PathSuffixTreeOracleTest, RepeatedCharactersAndValueCaps) {
  // Runs of one character make every suffix of a value a prefix of the
  // next longer one: many repeated (node, 'a') probes along one chain.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("r");
  for (const char* value : {"aaaaaaaa", "a", "aaaa", "", "aaaaaaaaaaaaaaaaaaaa",
                            "abababab", "aaaaaaab"}) {
    b.AddValue(b.AddElement(root, "v"), value);
    b.AddValue(root, value);
  }
  Tree data = std::move(b).Finish();
  for (size_t cap : {0, 1, 8, 16}) {
    PathSuffixTreeOptions options;
    options.max_value_chars = cap;
    ExpectMatchesReference(data, options);
    ExpectMatchesReference(testutil::FigureOneTree(), options);
  }
}

TEST(PathSuffixTreeOracleTest, EmptyDocumentAndOneElement) {
  tree::TreeBuilder empty;
  const Tree none = std::move(empty).Finish();
  ExpectMatchesReference(none);
  EXPECT_EQ(PathSuffixTree::Build(none).node_count(), 1u);

  // <a/>: one path, one leading symbol, so one part.
  tree::TreeBuilder b;
  b.AddRoot("a");
  const Tree single = std::move(b).Finish();
  ExpectMatchesReference(single);
  const PathSuffixTree pst = PathSuffixTree::Build(single);
  EXPECT_EQ(pst.node_count(), 2u);
  EXPECT_EQ(pst.total_paths(), 1u);
}

TEST(PathSuffixTreeOracleTest, FewerLeadingSymbolsThanThreads) {
  // Only the tags a and b lead suffixes: at most two parts, whatever the
  // machine's thread count.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("a");
  b.AddElement(root, "b");
  b.AddElement(root, "b");
  const tree::NodeId inner = b.AddElement(root, "a");
  b.AddElement(b.AddElement(inner, "b"), "a");
  ExpectMatchesReference(std::move(b).Finish());
}

TEST(PathSuffixTreeOracleTest, OneLeadingSymbolCarriesMostOfTheWork) {
  // A 200-deep chain of a's ending in a value of a's: the tag a leads
  // suffixes visiting over 20k symbols, every other leading symbol at
  // most a few thousand.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("a");
  b.AddValue(b.AddElement(root, "b"), "xy");
  b.AddValue(b.AddElement(root, "c"), "z");
  tree::NodeId chain = root;
  for (int depth = 1; depth < 200; ++depth) chain = b.AddElement(chain, "a");
  b.AddValue(chain, std::string(300, 'a'));
  const Tree data = std::move(b).Finish();
  for (size_t cap : {8, 64}) {
    PathSuffixTreeOptions options;
    options.max_value_chars = cap;
    ExpectMatchesReference(data, options);
  }
}

TEST(PathSuffixTreeOracleTest, ValuesEqualUpToTheCapCollapse) {
  // The values agree in their first 8 characters and differ after them,
  // so at cap 8 their paths are one distinct path and at cap 16 three.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("r");
  for (int i = 0; i < 3; ++i) {
    for (const char* value : {"abcdefgh1", "abcdefgh2", "abcdefgh33"}) {
      b.AddValue(b.AddElement(root, "v"), value);
    }
  }
  const Tree data = std::move(b).Finish();
  for (size_t cap : {8, 16}) {
    PathSuffixTreeOptions options;
    options.max_value_chars = cap;
    ExpectMatchesReference(data, options);
    EXPECT_EQ(PathSuffixTree::Build(data, options).value_prefix_count(),
              cap == 8 ? 1u : 3u);
  }
}

TEST(PathSuffixTreeOracleTest, OneValuePrefixUnderTwoTagPaths) {
  // "xy" ends the tag paths r.a and r.b: two distinct paths, whose
  // prefix the value-prefix table lists once, with both value nodes.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("r");
  for (int i = 0; i < 4; ++i) {
    b.AddValue(b.AddElement(root, "a"), "xy");
    b.AddValue(b.AddElement(root, i % 2 == 0 ? "b" : "a"), "xy");
  }
  const Tree data = std::move(b).Finish();
  ExpectMatchesReference(data);
  const PathSuffixTree pst = PathSuffixTree::Build(data);
  ASSERT_EQ(pst.value_prefix_count(), 1u);
  EXPECT_EQ(pst.ValuePrefixCount(0), 8u);
}

TEST(PathSuffixTreeOracleTest, CapZeroValuePathEqualsChildlessElementPath) {
  // At cap 0 the value under r.a is the path r.a, the same path as the
  // childless r.a that follows it and the empty value under r.a.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("r");
  b.AddValue(b.AddElement(root, "a"), "text");
  b.AddElement(root, "a");
  b.AddValue(b.AddElement(root, "a"), "");
  b.AddElement(b.AddElement(root, "c"), "a");
  const Tree data = std::move(b).Finish();
  for (size_t cap : {0, 8}) {
    PathSuffixTreeOptions options;
    options.max_value_chars = cap;
    ExpectMatchesReference(data, options);
  }
}

TEST(PathSuffixTreeOracleTest, EveryPathDistinct) {
  // Every value starts with its own 8 characters, so no capped path
  // repeats and nothing collapses.
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("r");
  for (int i = 0; i < 500; ++i) {
    const tree::NodeId record = b.AddElement(root, i % 3 == 0 ? "x" : "y");
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "%08x", 7919 * i);
    b.AddValue(b.AddElement(record, "k"), std::string(prefix) + "tail");
  }
  const Tree data = std::move(b).Finish();
  for (size_t cap : {8, 16}) {
    PathSuffixTreeOptions options;
    options.max_value_chars = cap;
    ExpectMatchesReference(data, options);
    EXPECT_EQ(PathSuffixTree::Build(data, options).value_prefix_count(), 500u);
  }
}

TEST(PathSuffixTreeOracleTest, RepeatedBuildsGiveIdenticalNodes) {
  const Tree data = testutil::SmallDblp(5);
  const PathSuffixTree first = PathSuffixTree::Build(data);
  for (int run = 0; run < 4; ++run) {
    const PathSuffixTree again = PathSuffixTree::Build(data);
    ASSERT_EQ(again.node_count(), first.node_count());
    EXPECT_EQ(again.total_paths(), first.total_paths());
    size_t mismatches = 0;
    for (PstNodeId n = 0; n < first.node_count(); ++n) {
      if (again.GetSymbol(n) != first.GetSymbol(n) ||
          again.Parent(n) != first.Parent(n) ||
          again.Depth(n) != first.Depth(n) ||
          again.PathCount(n) != first.PathCount(n) ||
          again.StartsWithTag(n) != first.StartsWithTag(n)) {
        if (++mismatches <= 5) ADD_FAILURE() << "run " << run << " node " << n;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(SymbolTest, EncodingRoundTrips) {
  EXPECT_TRUE(IsTagSymbol(TagSymbol(0)));
  EXPECT_FALSE(IsTagSymbol(CharSymbol('a')));
  EXPECT_EQ(SymbolLabel(TagSymbol(7)), 7u);
  EXPECT_EQ(SymbolChar(CharSymbol('x')), 'x');
  // High-bit characters must not collide with tags.
  EXPECT_FALSE(IsTagSymbol(CharSymbol('\xff')));
}

}  // namespace
}  // namespace twig::suffix
