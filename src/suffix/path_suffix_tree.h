// The path suffix tree (Section 3.1, first construction stage).
//
// Contains every subpath of every root-to-leaf path of the data tree
// (tags atomic, leaf values character-wise, value portions reachable
// only as a prefix when tags precede them), with each node's *path
// appearance count* pt = number of root-to-leaf paths containing the
// subpath. pt is the pruning statistic: it is monotone (pt of any
// sub-subpath >= pt of the subpath), so threshold pruning keeps the
// CST closed under taking subpaths, which the maximal-overlap
// combination step relies on. Presence / occurrence counts and set-hash
// signatures are attached later, by Cst::Build, only for the retained
// nodes.
//
// Build inserts every suffix of every root-to-leaf path symbol by
// symbol, so construction is one (node, symbol) -> child lookup per
// symbol visited (11.8M lookups into 314k nodes for 8 MB of DBLP). The
// suffixes are split by leading symbol into one part per hardware
// thread. Each part grows its own trie, and a merge on creation stamps
// renumbers the parts' nodes into the order one thread inserting every
// suffix would create them (DESIGN.md §17). The finished tree keeps
// only what Cst::Build reads; it has no child lookup.

#ifndef TWIG_SUFFIX_PATH_SUFFIX_TREE_H_
#define TWIG_SUFFIX_PATH_SUFFIX_TREE_H_

#include <cstdint>
#include <vector>

#include "suffix/symbol.h"
#include "tree/tree.h"

namespace twig::suffix {

/// Index of a node in the path suffix tree. Node 0 is the root (the
/// empty subpath).
using PstNodeId = uint32_t;

inline constexpr PstNodeId kNoPstNode = 0xffffffffu;

/// Options for path suffix tree construction.
struct PathSuffixTreeOptions {
  /// At most this many leading characters of each leaf value string are
  /// indexed. Caps the quadratic blow-up of character-level suffixes;
  /// queries use short (1-4 char) leaf predicates, so a modest cap
  /// loses nothing in practice.
  size_t max_value_chars = 8;
};

/// The unpruned (stage-one) path suffix tree over a data tree. Node IDs
/// are creation order of a serial build, so every parent's ID is below
/// its children's.
class PathSuffixTree {
 public:
  /// Builds the tree over all root-to-leaf paths of `data`, on one pool
  /// thread per part (on the calling thread when there is one part).
  static PathSuffixTree Build(const tree::Tree& data,
                              const PathSuffixTreeOptions& options = {});

  size_t node_count() const { return nodes_.size(); }

  PstNodeId root() const { return 0; }

  /// Path appearance count of the node's subpath.
  uint32_t PathCount(PstNodeId node) const { return nodes_[node].pt; }

  /// True if the node's subpath begins with a tag symbol (i.e., is
  /// rooted at a non-leaf data node). Only such subpaths carry set-hash
  /// signatures in the CST (paper footnote 3).
  bool StartsWithTag(PstNodeId node) const {
    return nodes_[node].starts_with_tag != 0;
  }

  Symbol GetSymbol(PstNodeId node) const { return nodes_[node].symbol; }
  PstNodeId Parent(PstNodeId node) const { return nodes_[node].parent; }
  uint32_t Depth(PstNodeId node) const { return nodes_[node].depth; }

  /// Total number of root-to-leaf paths inserted.
  uint32_t total_paths() const { return total_paths_; }

  /// Leading characters of each leaf value the tree indexes (the
  /// options' cap). A CST built from this tree walks the same prefix.
  size_t max_value_chars() const { return max_value_chars_; }

 private:
  struct Node {
    Symbol symbol = 0;
    PstNodeId parent = kNoPstNode;
    uint32_t pt = 0;  // path appearance count
    uint32_t depth : 31 = 0;
    uint32_t starts_with_tag : 1 = 0;
  };
  static_assert(sizeof(Node) == 16);

  std::vector<Node> nodes_;
  uint32_t total_paths_ = 0;
  size_t max_value_chars_ = 0;
};

}  // namespace twig::suffix

#endif  // TWIG_SUFFIX_PATH_SUFFIX_TREE_H_
