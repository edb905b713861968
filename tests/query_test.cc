#include <gtest/gtest.h>

#include <random>
#include <string>

#include "query/twig.h"

namespace twig::query {
namespace {

TEST(TwigTest, BuildSimpleTwig) {
  Twig t;
  TwigNodeId book = t.AddRoot("book");
  TwigNodeId author = t.AddElement(book, "author");
  TwigNodeId value = t.AddValue(author, "Su");
  EXPECT_EQ(t.root(), book);
  EXPECT_EQ(t.Tag(book), "book");
  EXPECT_EQ(t.Tag(author), "author");
  EXPECT_TRUE(t.IsValue(value));
  EXPECT_EQ(t.Value(value), "Su");
  EXPECT_EQ(t.size(), 3u);
}

TEST(TwigTest, RootToLeafPaths) {
  auto t = ParseTwig("a(b.c=\"x\", d)");
  ASSERT_TRUE(t.ok());
  auto paths = t->RootToLeafPaths();
  ASSERT_EQ(paths.size(), 2u);
  // a.b.c."x" and a.d
  EXPECT_EQ(paths[0].size(), 4u);
  EXPECT_EQ(paths[1].size(), 2u);
  EXPECT_EQ(paths[0][0], t->root());
  EXPECT_EQ(paths[1][0], t->root());
}

TEST(TwigTest, DepthIsEdgesFromRoot) {
  auto t = ParseTwig("a.b.c");
  ASSERT_TRUE(t.ok());
  auto paths = t->RootToLeafPaths();
  EXPECT_EQ(t->Depth(paths[0][0]), 0u);
  EXPECT_EQ(t->Depth(paths[0][2]), 2u);
}

TEST(TwigTest, WildcardDetection) {
  auto t = ParseTwig("book(*=\"x\")");
  ASSERT_TRUE(t.ok());
  TwigNodeId star = t->Children(t->root())[0];
  EXPECT_TRUE(t->IsWildcard(star));
  EXPECT_FALSE(t->IsWildcard(t->root()));
}

TEST(ParseTwigTest, DotChain) {
  auto t = ParseTwig("dblp.book.author=\"Suciu\"");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 4u);
  EXPECT_EQ(FormatTwig(*t), "dblp.book.author=\"Suciu\"");
}

TEST(ParseTwigTest, NestedChildren) {
  auto t = ParseTwig("book(publisher=\"MK\", year=\"1993\")");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Children(t->root()).size(), 2u);
  EXPECT_EQ(FormatTwig(*t), "book(publisher=\"MK\", year=\"1993\")");
}

TEST(ParseTwigTest, WhitespaceTolerated) {
  auto t = ParseTwig("  book ( author = \"Su\" , year ) ");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatTwig(*t), "book(author=\"Su\", year)");
}

TEST(ParseTwigTest, EscapedQuotes) {
  auto t = ParseTwig(R"(a="x\"y")");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Value(t->Children(t->root())[0]), "x\"y");
}

TEST(ParseTwigTest, Errors) {
  EXPECT_FALSE(ParseTwig("").ok());
  EXPECT_FALSE(ParseTwig("a(b").ok());
  EXPECT_FALSE(ParseTwig("a=unquoted").ok());
  EXPECT_FALSE(ParseTwig("a)b").ok());
  EXPECT_FALSE(ParseTwig("a=\"unterminated").ok());
}

TEST(ParseTwigTest, DescendantEdges) {
  auto t = ParseTwig("a//b");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 2u);
  TwigNodeId b = t->Children(t->root())[0];
  EXPECT_EQ(t->EdgeFromParent(b), EdgeKind::kDescendant);
  EXPECT_EQ(t->EdgeFromParent(t->root()), EdgeKind::kChild);
  EXPECT_EQ(FormatTwig(*t), "a//b");

  auto mixed = ParseTwig("a(//b.c, d//e)");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(FormatTwig(*mixed), "a(//b.c, d//e)");
}

TEST(ParseTwigTest, SlashIsChildEdgeAlias) {
  auto slash = ParseTwig("a/b/c");
  auto dot = ParseTwig("a.b.c");
  ASSERT_TRUE(slash.ok() && dot.ok());
  EXPECT_TRUE(TwigEquals(*slash, *dot));
  // '.' is the canonical spelling; '/' never round-trips verbatim.
  EXPECT_EQ(FormatTwig(*slash), "a.b.c");
}

TEST(ParseTwigTest, DescendantEdgeErrors) {
  // No root edge, and value predicates cannot hang on '//'.
  EXPECT_FALSE(ParseTwig("//a").ok());
  EXPECT_FALSE(ParseTwig("a//\"v\"").ok());
  EXPECT_FALSE(ParseTwig("a(//\"v\")").ok());
  EXPECT_FALSE(ParseTwig("a//=\"v\"").ok());
  EXPECT_FALSE(ParseTwig("a//").ok());
}

TEST(TwigEqualsTest, EdgeKindsDistinguish) {
  auto child = ParseTwig("a.b");
  auto desc = ParseTwig("a//b");
  ASSERT_TRUE(child.ok() && desc.ok());
  EXPECT_FALSE(TwigEquals(*child, *desc));
  auto desc2 = ParseTwig("a//b");
  ASSERT_TRUE(desc2.ok());
  EXPECT_TRUE(TwigEquals(*desc, *desc2));
}

TEST(FormatTwigTest, DescendantRoundTrips) {
  for (const char* text :
       {"a//b", "a//b//c", "a.b//c.d", "a(//b, c//d=\"x\")",
        "*//b(c, //*)"}) {
    auto t = ParseTwig(text);
    ASSERT_TRUE(t.ok()) << text << ": " << t.status().ToString();
    const std::string printed = FormatTwig(*t);
    auto reparsed = ParseTwig(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(TwigEquals(*t, *reparsed)) << text << " -> " << printed;
    EXPECT_EQ(FormatTwig(*reparsed), printed);
  }
}

TEST(FormatTwigTest, RoundTripsComplexTwig) {
  const char* text = "dblp.article(author=\"Sto\", year=\"1993\", title)";
  auto t = ParseTwig(text);
  ASSERT_TRUE(t.ok());
  auto reparsed = ParseTwig(FormatTwig(*t));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(TwigEquals(*t, *reparsed));
}

// FormatTwig prints a bare quoted string for a value child that cannot
// take the `=` form — a node with several value children, or value and
// element children mixed. Before ParseChild learned that form, these
// twigs printed fine but the print didn't parse back.
TEST(FormatTwigTest, MixedValueAndElementChildrenRoundTrip) {
  Twig t;
  TwigNodeId root = t.AddRoot("a");
  t.AddValue(root, "v1");
  t.AddElement(root, "b");
  t.AddValue(root, "v2");
  const std::string printed = FormatTwig(t);
  EXPECT_EQ(printed, "a(\"v1\", b, \"v2\")");
  auto reparsed = ParseTwig(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(TwigEquals(t, *reparsed));
}

TEST(FormatTwigTest, MultipleValueChildrenRoundTrip) {
  Twig t;
  TwigNodeId root = t.AddRoot("author");
  t.AddValue(root, "Su");
  t.AddValue(root, "Sto");
  auto reparsed = ParseTwig(FormatTwig(t));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(TwigEquals(t, *reparsed));
}

// Fuzz Parse(Format(t)) == t over random twig shapes whose value
// strings draw from an alphabet of everything the grammar treats as
// structure: quotes, backslashes, parens, commas, dots, equals,
// whitespace. Escaping must round-trip all of it.
TEST(FormatTwigTest, HostileValueFuzzRoundTrip) {
  const std::string alphabet = "\"\\(),.= \tabz*_-:";
  std::mt19937 rng(0x7719);
  std::uniform_int_distribution<size_t> alpha(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> value_len(0, 12);
  std::uniform_int_distribution<int> fanout(0, 3);
  std::uniform_int_distribution<int> choice(0, 99);
  const char* tags[] = {"a", "b", "cd", "x1", "*"};
  std::uniform_int_distribution<size_t> tag_pick(0, 4);

  auto random_value = [&] {
    std::string v;
    const int n = value_len(rng);
    for (int i = 0; i < n; ++i) v.push_back(alphabet[alpha(rng)]);
    return v;
  };

  for (int iteration = 0; iteration < 300; ++iteration) {
    Twig t;
    TwigNodeId root = t.AddRoot(tags[tag_pick(rng)]);
    // Grow breadth-first up to a small size; values are always leaves.
    std::vector<TwigNodeId> frontier = {root};
    while (!frontier.empty() && t.size() < 12) {
      TwigNodeId node = frontier.back();
      frontier.pop_back();
      const int children = fanout(rng);
      for (int c = 0; c < children && t.size() < 12; ++c) {
        if (choice(rng) < 40) {
          t.AddValue(node, random_value());
        } else {
          const EdgeKind edge = choice(rng) < 30 ? EdgeKind::kDescendant
                                                 : EdgeKind::kChild;
          frontier.push_back(t.AddElement(node, tags[tag_pick(rng)], edge));
        }
      }
    }
    const std::string printed = FormatTwig(t);
    auto reparsed = ParseTwig(printed);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << iteration << ": " << printed << " -> "
        << reparsed.status().ToString();
    EXPECT_TRUE(TwigEquals(t, *reparsed))
        << "iteration " << iteration << ": " << printed;
    // Printing is idempotent: the reparse prints identically.
    EXPECT_EQ(FormatTwig(*reparsed), printed);
  }
}

TEST(TwigEqualsTest, DetectsDifferences) {
  auto a = ParseTwig("a(b, c)");
  auto b = ParseTwig("a(b, c)");
  auto c = ParseTwig("a(c, b)");
  auto d = ParseTwig("a(b, c=\"x\")");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_TRUE(TwigEquals(*a, *b));
  EXPECT_FALSE(TwigEquals(*a, *c));  // child order matters structurally
  EXPECT_FALSE(TwigEquals(*a, *d));
}

TEST(TwigEqualsTest, EmptyTwigs) {
  Twig a, b;
  EXPECT_TRUE(TwigEquals(a, b));
}

}  // namespace
}  // namespace twig::query
