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
// symbol visited (11.8M lookups into 314k nodes for 8 MB of DBLP).
// While the trie grows, those lookups go through an open-addressing
// table of child IDs that confirms each hit against the candidate
// node's own parent and symbol at full width; the immutable ChildIndex
// that serves every later lookup is built once at the end.

#ifndef TWIG_SUFFIX_PATH_SUFFIX_TREE_H_
#define TWIG_SUFFIX_PATH_SUFFIX_TREE_H_

#include <cstdint>
#include <vector>

#include "suffix/child_index.h"
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
  /// Safety valve: once this many trie nodes exist, insertion stops
  /// creating new nodes (existing counts stay exact; subpaths first
  /// seen afterwards are missed). 0 disables the cap.
  size_t max_nodes = 0;
};

/// The unpruned (stage-one) path suffix tree over a data tree.
class PathSuffixTree {
 public:
  /// Builds the tree over all root-to-leaf paths of `data`.
  static PathSuffixTree Build(const tree::Tree& data,
                              const PathSuffixTreeOptions& options = {});

  size_t node_count() const { return nodes_.size(); }

  PstNodeId root() const { return 0; }

  /// Child of `node` along `symbol`, or kNoPstNode. Out-of-range
  /// symbols (> kMaxSymbol, including unknown-tag sentinels) never
  /// match any child.
  PstNodeId FindChild(PstNodeId node, Symbol symbol) const {
    if (symbol > kMaxSymbol) return kNoPstNode;
    return child_index_.Find(node, symbol);
  }

  /// Path appearance count of the node's subpath.
  uint32_t PathCount(PstNodeId node) const { return nodes_[node].pt; }

  /// True if the node's subpath begins with a tag symbol (i.e., is
  /// rooted at a non-leaf data node). Only such subpaths carry set-hash
  /// signatures in the CST (paper footnote 3).
  bool StartsWithTag(PstNodeId node) const {
    return nodes_[node].starts_with_tag;
  }

  Symbol GetSymbol(PstNodeId node) const { return nodes_[node].symbol; }
  PstNodeId Parent(PstNodeId node) const { return nodes_[node].parent; }
  uint32_t Depth(PstNodeId node) const { return nodes_[node].depth; }

  /// Total number of root-to-leaf paths inserted.
  uint32_t total_paths() const { return total_paths_; }

  /// True if the node cap was hit during construction (some infrequent
  /// subpaths are missing and their pt is not represented).
  bool truncated() const { return truncated_; }

 private:
  struct Node {
    Symbol symbol = 0;
    PstNodeId parent = kNoPstNode;
    uint32_t pt = 0;            // path appearance count
    uint32_t last_path = 0xffffffffu;  // dedup marker during build
    uint32_t depth = 0;
    bool starts_with_tag = false;
  };

  /// Construction-time child lookup (defined in the .cc file); dropped
  /// once the flat index is built.
  class BuildTable;

  /// Inserts all suffixes of one root-to-leaf path given as symbols.
  void InsertPathSuffixes(const std::vector<Symbol>& symbols,
                          uint32_t path_id, size_t max_nodes,
                          BuildTable& table);

  std::vector<Node> nodes_;
  ChildIndex child_index_;
  uint32_t total_paths_ = 0;
  bool truncated_ = false;
};

}  // namespace twig::suffix

#endif  // TWIG_SUFFIX_PATH_SUFFIX_TREE_H_
