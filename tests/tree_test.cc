#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "test_trees.h"
#include "tree/tree.h"

namespace twig::tree {
namespace {

TEST(TreeTest, RootIsFirstNode) {
  TreeBuilder b;
  NodeId r = b.AddRoot("dblp");
  Tree t = std::move(b).Finish();
  EXPECT_EQ(r, t.root());
  EXPECT_EQ(t.LabelName(r), "dblp");
}

TEST(TreeTest, ChildrenPreserveOrder) {
  TreeBuilder b;
  NodeId r = b.AddRoot("a");
  NodeId c1 = b.AddElement(r, "b");
  NodeId c2 = b.AddElement(r, "c");
  Tree t = std::move(b).Finish();
  ASSERT_EQ(t.Children(r).size(), 2u);
  EXPECT_EQ(t.Children(r)[0], c1);
  EXPECT_EQ(t.Children(r)[1], c2);
  EXPECT_TRUE(t.Children(c1).empty());
}

TEST(TreeTest, ValueNodesCarryStrings) {
  TreeBuilder b;
  NodeId r = b.AddRoot("book");
  NodeId v = b.AddValue(r, "Morgan Kaufmann");
  Tree t = std::move(b).Finish();
  EXPECT_TRUE(t.IsValue(v));
  EXPECT_FALSE(t.IsValue(r));
  EXPECT_EQ(t.Value(v), "Morgan Kaufmann");
}

TEST(TreeTest, MultipleValuesShareArena) {
  TreeBuilder b;
  NodeId r = b.AddRoot("r");
  NodeId v1 = b.AddValue(r, "abc");
  NodeId v2 = b.AddValue(r, "defg");
  Tree t = std::move(b).Finish();
  EXPECT_EQ(t.Value(v1), "abc");
  EXPECT_EQ(t.Value(v2), "defg");
}

TEST(TreeTest, LabelsInterned) {
  Tree t = testutil::FigureOneTree();
  NodeId b1 = t.Children(t.root())[0];
  NodeId b2 = t.Children(t.root())[1];
  EXPECT_EQ(t.Label(b1), t.Label(b2));
  EXPECT_EQ(t.labels().Find("book"), t.Label(b1));
  EXPECT_EQ(t.labels().Find("nosuchtag"), kInvalidLabel);
}

TEST(TreeBuilderTest, EmptyBuilderFinishesAsEmptyTree) {
  const Tree t = TreeBuilder().Finish();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.labels().size(), 0u);
}

TEST(TreeBuilderTest, RootOnlyTreeHasNoChildren) {
  TreeBuilder b;
  b.AddRoot("only");
  const Tree t = std::move(b).Finish();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.IsValue(t.root()));
  EXPECT_TRUE(t.Children(t.root()).empty());
}

TEST(TreeBuilderTest, LastNodeValueKeepsItsBytes) {
  // The last value's end is the offset sentinel Finish appends.
  TreeBuilder b;
  const NodeId r = b.AddRoot("r");
  b.AddValue(b.AddElement(r, "e"), "first");
  const NodeId last = b.AddValue(r, "last bytes");
  const Tree t = std::move(b).Finish();
  ASSERT_EQ(last, t.size() - 1);
  EXPECT_EQ(t.Value(last), "last bytes");
  EXPECT_EQ(t.Value(2), "first");
}

TEST(TreeBuilderTest, WideElementKeepsChildOrder) {
  // 70,000 children, every third with a value child of its own, so the
  // root's child IDs are not contiguous.
  TreeBuilder b;
  const NodeId root = b.AddRoot("wide");
  std::vector<NodeId> want;
  for (int i = 0; i < 70000; ++i) {
    const NodeId child = b.AddElement(root, "c");
    want.push_back(child);
    if (i % 3 == 0) b.AddValue(child, "v");
  }
  const Tree t = std::move(b).Finish();
  const auto children = t.Children(root);
  ASSERT_EQ(children.size(), want.size());
  EXPECT_TRUE(std::equal(children.begin(), children.end(), want.begin()));
  EXPECT_EQ(t.Children(want[0]).size(), 1u);
  EXPECT_TRUE(t.Children(want[1]).empty());
}

TEST(TreeBuilderTest, ChildSpansHoldEveryNonRootNodeOnce) {
  const Tree t = testutil::SmallDblp(1);
  ASSERT_GT(t.size(), 10000u);
  std::vector<int> seen(t.size(), 0);
  for (NodeId n = 0; n < t.size(); ++n) {
    const auto children = t.Children(n);
    if (t.IsValue(n)) {
      EXPECT_TRUE(children.empty()) << n;
    }
    for (size_t i = 0; i < children.size(); ++i) {
      ASSERT_LT(children[i], t.size());
      EXPECT_GT(children[i], i == 0 ? n : children[i - 1]) << n;
      ++seen[children[i]];
    }
  }
  EXPECT_EQ(seen[t.root()], 0);
  for (NodeId n = 1; n < t.size(); ++n) ASSERT_EQ(seen[n], 1) << n;
}

TEST(LabelTableTest, InternIsIdempotent) {
  LabelTable table;
  LabelId a = table.Intern("author");
  LabelId b = table.Intern("book");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("author"), a);
  EXPECT_EQ(table.Name(a), "author");
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace twig::tree
