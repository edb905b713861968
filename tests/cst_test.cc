#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cst/cst.h"
#include "test_trees.h"
#include "util/hash.h"
#include "xml/xml.h"

namespace twig::cst {
namespace {

using suffix::PathSuffixTree;
using tree::Tree;

/// Walks the CST along "tags:chars" (see suffix_test.cc).
CstNodeId Find(const Cst& cst, const std::string& spec) {
  const size_t colon = spec.find(':');
  const std::string tags =
      spec.substr(0, colon == std::string::npos ? spec.size() : colon);
  CstNodeId node = cst.root();
  if (!tags.empty()) {
    size_t start = 0;
    while (start <= tags.size()) {
      size_t dot = tags.find('.', start);
      const std::string tag =
          tags.substr(start, dot == std::string::npos ? std::string::npos
                                                      : dot - start);
      node = cst.Step(node, cst.TagSymbolFor(tag));
      if (node == kNoCstNode) return kNoCstNode;
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
  }
  if (colon != std::string::npos) {
    for (char c : spec.substr(colon + 1)) {
      node = cst.Step(node, suffix::CharSymbol(c));
      if (node == kNoCstNode) return kNoCstNode;
    }
  }
  return node;
}

Cst BuildFullCst(const Tree& data) {
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = 1;
  return Cst::Build(data, pst, options);
}

TEST(CstTest, PresenceCountsFigureOne) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // Presence = distinct rooting nodes.
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "book")), 3.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "book.author")), 3.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "author")), 6.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "book.year:Y1")), 3.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "dblp.book")), 1.0);
}

TEST(CstTest, OccurrenceCountsFigureOne) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // Occurrence = node-sequence instances: 6 (book,author) pairs
  // (the paper's Section 5 example numbers).
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "book.author")), 6.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "book.year:Y1")), 3.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "dblp.book.author")), 6.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "author:A1")), 3.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "author:A2")), 2.0);
}

TEST(CstTest, CharOnlySubpathCounts) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // ":A" occurs once per author value (6) plus nowhere else.
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, ":A")), 6.0);
  // ":1" occurs in A1 (x3), T1 (x1), Y1 (x3).
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, ":1")), 7.0);
}

/// Brute-force counts of one subpath, from enumerating instances.
struct Tally {
  uint64_t co = 0;
  uint64_t char_roots = 0;  // (value node, offset) roots, char-only
  std::vector<uint64_t> roots;  // distinct rooting elements, ascending
};

/// Recounts every subpath of `data` without the CST: each element
/// roots one instance per downward path (ending at an element, or
/// running on into a prefix of a value child), and each (value node,
/// offset) roots one instance per character-only extension. Keys are
/// symbol sequences.
std::map<std::vector<suffix::Symbol>, Tally> BruteForceTallies(
    const Tree& data, size_t max_value_chars) {
  std::map<std::vector<suffix::Symbol>, Tally> tallies;
  std::vector<suffix::Symbol> path;
  auto count = [&](tree::NodeId root) {
    Tally& t = tallies[path];
    ++t.co;
    if (t.roots.empty() || t.roots.back() != root) t.roots.push_back(root);
  };
  auto extend = [&](auto&& self, tree::NodeId m, tree::NodeId root) -> void {
    path.push_back(suffix::TagSymbol(data.Label(m)));
    count(root);
    for (tree::NodeId ch : data.Children(m)) {
      if (!data.IsValue(ch)) {
        self(self, ch, root);
        continue;
      }
      const std::string_view value = data.Value(ch);
      const size_t take = std::min(value.size(), max_value_chars);
      for (size_t j = 0; j < take; ++j) {
        path.push_back(suffix::CharSymbol(value[j]));
        count(root);
      }
      path.resize(path.size() - take);
    }
    path.pop_back();
  };
  for (tree::NodeId n = 0; n < data.size(); ++n) {
    if (!data.IsValue(n)) {
      extend(extend, n, n);
      continue;
    }
    const std::string_view value = data.Value(n);
    const size_t take = std::min(value.size(), max_value_chars);
    for (size_t start = 0; start < take; ++start) {
      std::vector<suffix::Symbol> chars;
      for (size_t i = start; i < take; ++i) {
        chars.push_back(suffix::CharSymbol(value[i]));
        Tally& t = tallies[chars];
        ++t.co;
        ++t.char_roots;
      }
    }
  }
  return tallies;
}

/// Requires every retained node's C_p, C_o and signature to equal the
/// brute-force recount, the signature being SignatureOf its rooting set.
void ExpectCountsMatchBruteForce(const Tree& data, const Cst& cst,
                                 const CstOptions& options) {
  const auto tallies = BruteForceTallies(data, cst.max_value_chars());
  const sethash::SetHashFamily family(options.signature_length,
                                      options.signature_seed);
  size_t mismatches = 0;
  for (CstNodeId c = 1; c < cst.node_count(); ++c) {
    std::vector<suffix::Symbol> symbols;
    for (CstNodeId n = c; n != cst.root(); n = cst.Parent(n)) {
      symbols.insert(symbols.begin(), cst.GetSymbol(n));
    }
    const auto it = tallies.find(symbols);
    ASSERT_NE(it, tallies.end()) << "node " << c << " has no instance";
    const Tally& want = it->second;
    const double cp = cst.StartsWithTag(c)
                          ? static_cast<double>(want.roots.size())
                          : static_cast<double>(want.char_roots);
    const sethash::Signature* sig = cst.GetSignature(c);
    const bool sig_ok =
        cst.StartsWithTag(c)
            ? sig != nullptr && *sig == family.SignatureOf(want.roots)
            : sig == nullptr;
    if (cst.PresenceCount(c) != cp ||
        cst.OccurrenceCount(c) != static_cast<double>(want.co) || !sig_ok) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "node " << c << ": cp " << cst.PresenceCount(c)
                      << " want " << cp << ", co " << cst.OccurrenceCount(c)
                      << " want " << want.co << ", signature "
                      << (sig_ok ? "ok" : "differs");
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The a/b/a/b chain, its walk root placed on the last ID of count
/// block 0 so the walk runs on into block 1.
Tree ChainAcrossBlockBoundary() {
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("r");
  while (b.size() < Cst::kCountBlockRoots - 1) b.AddElement(root, "f");
  auto a1 = b.AddElement(root, "a");
  auto b1 = b.AddElement(a1, "b");
  auto a2 = b.AddElement(b1, "a");
  auto b2 = b.AddElement(a2, "b");
  b.AddValue(b2, "x");
  b.AddValue(b2, "y");
  Tree data = std::move(b).Finish();
  return data;
}

TEST(CstTest, RepeatedLabelsOnOnePathPresenceIsDistinctRoots) {
  // a/b/a/b chain with two leaves: subpath "a.b" roots at two distinct
  // nodes even though markers alternate (the regression that forces
  // root-at-a-time accumulation). The chain's walk crosses from one
  // count block into the next.
  Tree data = ChainAcrossBlockBoundary();
  ASSERT_EQ(data.Children(data.root()).back(), Cst::kCountBlockRoots - 1);
  Cst cst = BuildFullCst(data);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "a.b")), 2.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "a.b")), 2.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "a")), 2.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "b.a.b")), 1.0);
  ExpectCountsMatchBruteForce(data, cst, CstOptions{});
}

TEST(CstCountPassTest, MatchesBruteForceRecountAcrossBlocks) {
  const Tree data = testutil::SmallDblp(5);
  ASSERT_GT(data.size(), 8 * Cst::kCountBlockRoots);
  const auto pst = PathSuffixTree::Build(data);
  for (uint32_t threshold : {1u, 4u, 32u}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    CstOptions options;
    options.prune_threshold = threshold;
    const Cst cst = Cst::Build(data, pst, options);
    ASSERT_GT(cst.node_count(), 1u);
    ExpectCountsMatchBruteForce(data, cst, options);
  }
}

TEST(CstCountPassTest, RepeatedValuesMatchBruteForceAtEachCap) {
  // Values drawn from a few strings, some equal up to 8 characters and
  // different after them, so the count pass walks each distinct capped
  // prefix once for many value nodes. The tree spans several blocks.
  const char* const kValues[] = {"Suciu", "Chen", "abcdefgh-one",
                                 "abcdefgh-two", "abcdefghij", "x", ""};
  tree::TreeBuilder b;
  const tree::NodeId root = b.AddRoot("dblp");
  for (size_t i = 0; b.size() < 3 * Cst::kCountBlockRoots; ++i) {
    const tree::NodeId record =
        b.AddElement(root, i % 4 == 0 ? "book" : "article");
    b.AddValue(b.AddElement(record, "author"), kValues[i % 7]);
    b.AddValue(b.AddElement(record, "title"), kValues[(i * 3 + 1) % 7]);
    if (i % 5 == 0) b.AddValue(record, kValues[(i + 2) % 7]);
  }
  const Tree data = std::move(b).Finish();
  for (size_t cap : {8, 16}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    suffix::PathSuffixTreeOptions pst_options;
    pst_options.max_value_chars = cap;
    const auto pst = PathSuffixTree::Build(data, pst_options);
    ASSERT_LT(pst.value_prefix_count(), 8u);
    CstOptions options;
    options.prune_threshold = 1;
    const Cst cst = Cst::Build(data, pst, options);
    ASSERT_GT(cst.node_count(), 1u);
    ExpectCountsMatchBruteForce(data, cst, options);
  }
}

TEST(CstCountPassTest, RepeatedBuildsSerializeIdentically) {
  const Tree data = testutil::SmallDblp(5);
  const auto pst = PathSuffixTree::Build(data);
  constexpr size_t kPageBytes = 4096;
  for (uint32_t threshold : {1u, 4u, 32u}) {
    CstOptions options;
    options.prune_threshold = threshold;
    const Result<std::string> first =
        Cst::Build(data, pst, options).SerializePaged(kPageBytes);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    for (int i = 0; i < 4; ++i) {
      const Result<std::string> again =
          Cst::Build(data, pst, options).SerializePaged(kPageBytes);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_TRUE(again.value() == first.value())
          << "threshold " << threshold << " build " << i;
    }
  }
}

/// Folds every node's symbol, parent, depth, C_p, C_o, tag flag and
/// signature into one digest. It reads the public accessors, not a
/// serialized format, so the formats can change under it.
uint64_t SummaryDigest(const Cst& cst) {
  uint64_t digest = Mix64(cst.node_count());
  auto fold = [&digest](uint64_t v) { digest = Mix64(digest ^ v); };
  for (CstNodeId n = 0; n < cst.node_count(); ++n) {
    fold(cst.GetSymbol(n));
    fold(cst.Parent(n));
    fold(cst.Depth(n));
    fold(std::bit_cast<uint64_t>(cst.PresenceCount(n)));
    fold(std::bit_cast<uint64_t>(cst.OccurrenceCount(n)));
    fold(cst.StartsWithTag(n));
    const sethash::Signature* signature = cst.GetSignature(n);
    fold(signature == nullptr ? 0 : signature->size());
    if (signature == nullptr) continue;
    for (uint32_t component : *signature) fold(component);
  }
  return digest;
}

TEST(CstTest, SummaryDigestIsPinned) {
  // Construction work (the data tree's layout, the count pass) must
  // leave the summary bit for bit as it is: any moved count, link or
  // signature component moves a digest.
  const Tree data = testutil::SmallDblp(1);
  const auto pst = PathSuffixTree::Build(data);
  const double xml_bytes = static_cast<double>(xml::XmlByteSize(data));
  const std::pair<double, uint64_t> pinned[] = {
      {0.01, 0x92561c0f0bb19187ULL},
      {0.1, 0x10dfa28be293d675ULL},
      {1.0, 0x1089925ab7cf5cb2ULL}};
  for (const auto& [space, digest] : pinned) {
    CstOptions options;
    options.space_budget_bytes = static_cast<size_t>(space * xml_bytes);
    const Cst cst = Cst::Build(data, pst, options);
    EXPECT_EQ(SummaryDigest(cst), digest)
        << "space " << space << ": 0x" << std::hex << SummaryDigest(cst);
  }
}

TEST(CstTest, SignaturesOnlyOnTagRootedSubpaths) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  EXPECT_NE(cst.GetSignature(Find(cst, "book.author")), nullptr);
  EXPECT_NE(cst.GetSignature(Find(cst, "author:A1")), nullptr);
  EXPECT_EQ(cst.GetSignature(Find(cst, ":A")), nullptr);
}

TEST(CstTest, SignatureCapturesRootingSets) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // "book.author" and "book.year" are rooted at the same 3 book nodes:
  // identical sets, so identical signatures and resemblance 1.
  const auto* sa = cst.GetSignature(Find(cst, "book.author"));
  const auto* sy = cst.GetSignature(Find(cst, "book.year"));
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sy, nullptr);
  EXPECT_EQ(*sa, *sy);
  // "author:A3" roots at 1 author node; disjoint from year nodes.
  const auto* s3 = cst.GetSignature(Find(cst, "author:A3"));
  ASSERT_NE(s3, nullptr);
  EXPECT_NE(*s3, *sa);
}

TEST(CstTest, PruningKeepsFrequentDropsRare) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = 3;
  Cst cst = Cst::Build(data, pst, options);
  EXPECT_NE(Find(cst, "book.author"), kNoCstNode);  // pt = 6
  EXPECT_NE(Find(cst, "year:Y1"), kNoCstNode);      // pt = 3
  EXPECT_EQ(Find(cst, "title:T1"), kNoCstNode);     // pt = 1
  EXPECT_EQ(Find(cst, "author:A3"), kNoCstNode);    // pt = 1
}

TEST(CstTest, PrunedCstClosedUnderSubpaths) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  for (uint32_t threshold : {2, 3, 6}) {
    CstOptions options;
    options.prune_threshold = threshold;
    Cst cst = Cst::Build(data, pst, options);
    // Every node's parent exists and suffix of every retained subpath
    // is retained: spot-check with the known hierarchy.
    if (Find(cst, "dblp.book.author") != kNoCstNode) {
      EXPECT_NE(Find(cst, "book.author"), kNoCstNode);
      EXPECT_NE(Find(cst, "author"), kNoCstNode);
      EXPECT_NE(Find(cst, "dblp.book"), kNoCstNode);
    }
  }
}

TEST(CstTest, BudgetedBuildRespectsBudget) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.space_budget_bytes = 2000;
  Cst cst = Cst::Build(data, pst, options);
  EXPECT_LE(cst.size_bytes(), 2000u);
  EXPECT_GT(cst.node_count(), 1u);
  // A tighter budget retains no more nodes.
  options.space_budget_bytes = 600;
  Cst tight = Cst::Build(data, pst, options);
  EXPECT_LE(tight.size_bytes(), 600u);
  EXPECT_LE(tight.node_count(), cst.node_count());
}

TEST(CstTest, LongestMatch) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  std::vector<suffix::Symbol> symbols = {
      cst.TagSymbolFor("book"), cst.TagSymbolFor("author"),
      suffix::CharSymbol('A'), suffix::CharSymbol('9')};
  auto match = cst.LongestMatch(symbols, 0);
  EXPECT_EQ(match.length, 3u);  // book.author.A but not the '9'
  EXPECT_EQ(match.node, Find(cst, "book.author:A"));
  auto from1 = cst.LongestMatch(symbols, 1);
  EXPECT_EQ(from1.length, 2u);  // author.A
}

TEST(CstTest, UnknownTagNeverMatches) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  EXPECT_EQ(cst.TagSymbolFor("nosuchtag"), Cst::kUnknownSymbol);
  EXPECT_EQ(cst.Step(cst.root(), Cst::kUnknownSymbol), kNoCstNode);
}

TEST(CstTest, OutOfRangeSymbolsNeverMatch) {
  // Regression: the old child map keyed (node << 22) | symbol without
  // masking the symbol, so stepping node n with symbol (1 << 22) | s
  // aliased ((n + 1) << 22) | s and returned node n+1's child along s.
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  std::vector<suffix::Symbol> in_range;
  for (const char* tag : {"dblp", "book", "author", "year"}) {
    ASSERT_NE(cst.TagSymbolFor(tag), Cst::kUnknownSymbol) << tag;
    in_range.push_back(cst.TagSymbolFor(tag));
  }
  for (char c : {'A', 'Y', '1'}) in_range.push_back(suffix::CharSymbol(c));
  for (CstNodeId n = 0; n < static_cast<CstNodeId>(cst.node_count()); ++n) {
    EXPECT_EQ(cst.Step(n, Cst::kUnknownSymbol), kNoCstNode);
    EXPECT_EQ(cst.Step(n, suffix::kMaxSymbol + 1), kNoCstNode);
    for (suffix::Symbol s : in_range) {
      EXPECT_EQ(cst.Step(n, s | (1u << 22)), kNoCstNode);
    }
  }
}

TEST(CstTest, GlobalStats) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  EXPECT_EQ(cst.data_node_count(), data.size());
  EXPECT_EQ(cst.prune_threshold(), 1u);
  EXPECT_GT(cst.size_bytes(), 0u);
  EXPECT_EQ(cst.signature_length(), CstOptions{}.signature_length);
}

}  // namespace
}  // namespace twig::cst
