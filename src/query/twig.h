// Twig queries: small rooted node-labeled trees (Section 2).
//
// Non-leaf query nodes carry tag labels; leaf query nodes may carry a
// value-string predicate. A value predicate matches a data value node
// whose string has the predicate as a *prefix* — this is the semantics
// the CST's path suffix tree encodes for tag-anchored leaf strings
// (e.g. the subpath "author.Su" exists because some author value
// starts with "Su"); the exact ground-truth matcher uses the same
// semantics so estimates and true counts are comparable.
//
// A textual syntax is provided for examples and tools:
//   book(author="Su", year="199")
//   dblp.book(title="Data", author)
//   dblp//book(author, //year="199")
// where `a.b.c` is shorthand for a child chain (`a/b` is an accepted
// alias for `a.b`), `(x, y)` lists children, and `//` marks an
// ancestor-descendant edge: `a//b` asks for a `b` anywhere strictly
// below the matched `a`; inside a child list, a `//` prefix marks that
// child's edge (`a(//b, c)`). Value predicates always hang on a child
// edge — `//"v"` and `a//="v"` are syntax errors. The wildcard tag "*"
// matches any element label (paper Section 7 extension). Both edge
// kinds and wildcards are supported by the exact matcher and the
// estimator.

#ifndef TWIG_QUERY_TWIG_H_
#define TWIG_QUERY_TWIG_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace twig::query {

/// Index of a node within a Twig.
using TwigNodeId = uint32_t;

inline constexpr TwigNodeId kNullTwigNode = 0xffffffffu;

/// Kind of the edge connecting a twig node to its parent. Child is the
/// paper's parent-child edge; Descendant is the XPath-style
/// ancestor-descendant axis (`a//b`: b strictly below a). The root has
/// no incoming edge and reports kChild.
enum class EdgeKind : uint8_t {
  kChild,
  kDescendant,
};

/// A twig query.
class Twig {
 public:
  Twig() = default;

  /// Creates the root element. Must be the first node added.
  TwigNodeId AddRoot(std::string_view tag) {
    assert(nodes_.empty());
    return AddNode(kNullTwigNode, tag, /*is_value=*/false);
  }

  /// Adds an element node under `parent`. Tag "*" is the wildcard;
  /// `edge` selects the parent-child (default) or ancestor-descendant
  /// axis for the new node's incoming edge.
  TwigNodeId AddElement(TwigNodeId parent, std::string_view tag,
                        EdgeKind edge = EdgeKind::kChild) {
    assert(parent != kNullTwigNode);
    return AddNode(parent, tag, /*is_value=*/false, edge);
  }

  /// Adds a leaf value-predicate node under `parent`.
  TwigNodeId AddValue(TwigNodeId parent, std::string_view value) {
    assert(parent != kNullTwigNode);
    return AddNode(parent, value, /*is_value=*/true);
  }

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  TwigNodeId root() const {
    assert(!empty());
    return 0;
  }

  bool IsValue(TwigNodeId n) const { return nodes_[n].is_value; }
  bool IsWildcard(TwigNodeId n) const {
    return !nodes_[n].is_value && nodes_[n].text == "*";
  }

  /// Kind of the edge from n's parent to n (kChild for the root and
  /// for value leaves, whose predicates always bind to the parent).
  EdgeKind EdgeFromParent(TwigNodeId n) const { return nodes_[n].edge; }

  /// Tag of an element node.
  std::string_view Tag(TwigNodeId n) const {
    assert(!IsValue(n));
    return nodes_[n].text;
  }

  /// Value predicate of a value node.
  std::string_view Value(TwigNodeId n) const {
    assert(IsValue(n));
    return nodes_[n].text;
  }

  TwigNodeId Parent(TwigNodeId n) const { return nodes_[n].parent; }
  const std::vector<TwigNodeId>& Children(TwigNodeId n) const {
    return nodes_[n].children;
  }

  /// Root-to-leaf node-ID sequences, in left-to-right order.
  std::vector<std::vector<TwigNodeId>> RootToLeafPaths() const;

  /// Depth of node `n` (root = 0).
  size_t Depth(TwigNodeId n) const {
    size_t d = 0;
    while (nodes_[n].parent != kNullTwigNode) {
      n = nodes_[n].parent;
      ++d;
    }
    return d;
  }

 private:
  struct Node {
    std::string text;  // tag or value predicate
    bool is_value = false;
    EdgeKind edge = EdgeKind::kChild;  // edge from parent
    TwigNodeId parent = kNullTwigNode;
    std::vector<TwigNodeId> children;
  };

  TwigNodeId AddNode(TwigNodeId parent, std::string_view text, bool is_value,
                     EdgeKind edge = EdgeKind::kChild) {
    TwigNodeId id = static_cast<TwigNodeId>(nodes_.size());
    Node node;
    node.text = std::string(text);
    node.is_value = is_value;
    node.edge = edge;
    node.parent = parent;
    nodes_.push_back(std::move(node));
    if (parent != kNullTwigNode) {
      assert(!nodes_[parent].is_value && "value nodes cannot have children");
      nodes_[parent].children.push_back(id);
    }
    return id;
  }

  std::vector<Node> nodes_;
};

/// Parses the textual twig syntax described in the header comment.
Result<Twig> ParseTwig(std::string_view text);

/// Prints a twig in canonical textual syntax (inverse of ParseTwig).
std::string FormatTwig(const Twig& twig);

/// True if the two twigs are structurally identical (same shape, tags,
/// values, edge kinds, and child order).
bool TwigEquals(const Twig& a, const Twig& b);

}  // namespace twig::query

#endif  // TWIG_QUERY_TWIG_H_
