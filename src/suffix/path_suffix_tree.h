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
// The tree depends only on the multiset of capped root-to-leaf paths,
// and most paths repeat an earlier one (on 8 MB of DBLP, 30k distinct
// among 211k). So Build first finds the distinct paths, keyed by their
// tag path and the full capped value prefix, and then inserts every
// suffix of each distinct path once, adding the path's multiplicity to
// pt. The suffixes are split by leading symbol into one part per
// hardware thread. Each part grows its own trie and stamps each node
// with the insertion that created it; each part then places its own
// nodes at the IDs one thread inserting every suffix of every path in
// document order would give them (DESIGN.md §17). The finished tree
// keeps only what Cst::Build reads, and no child lookup: a 12-byte
// record a node, plus the distinct capped value prefixes with their
// multiplicities, from which the count pass takes the
// character-only subpaths.

#ifndef TWIG_SUFFIX_PATH_SUFFIX_TREE_H_
#define TWIG_SUFFIX_PATH_SUFFIX_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
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

  /// Number of symbols in the node's subpath. The tree stores no depth,
  /// so this walks up the parents.
  uint32_t Depth(PstNodeId node) const {
    uint32_t depth = 0;
    for (; node != root(); node = nodes_[node].parent) ++depth;
    return depth;
  }

  /// Total number of root-to-leaf paths inserted.
  uint32_t total_paths() const { return total_paths_; }

  /// Leading characters of each leaf value the tree indexes (the
  /// options' cap). A CST built from this tree walks the same prefix.
  size_t max_value_chars() const { return max_value_chars_; }

  /// Number of distinct non-empty capped value prefixes: the leading
  /// max_value_chars() characters of the data tree's value strings.
  size_t value_prefix_count() const { return prefix_counts_.size(); }

  /// The i-th distinct capped value prefix, in document order of first
  /// occurrence.
  std::string_view ValuePrefix(size_t i) const {
    return std::string_view(prefix_bytes_)
        .substr(prefix_offsets_[i],
                prefix_offsets_[i + 1] - prefix_offsets_[i]);
  }

  /// Number of value nodes whose capped prefix is ValuePrefix(i).
  uint32_t ValuePrefixCount(size_t i) const { return prefix_counts_[i]; }

 private:
  // The tag flag takes the symbol word's top bit: a tag symbol is 256 +
  // its label, far below 2^31.
  struct Node {
    Symbol symbol : 31 = 0;
    uint32_t starts_with_tag : 1 = 0;
    PstNodeId parent = kNoPstNode;
    uint32_t pt = 0;  // path appearance count
  };
  static_assert(sizeof(Node) == 12);

  std::vector<Node> nodes_;
  uint32_t total_paths_ = 0;
  size_t max_value_chars_ = 0;
  // The distinct capped value prefixes: prefix i is bytes
  // [prefix_offsets_[i], prefix_offsets_[i + 1]) of prefix_bytes_.
  std::string prefix_bytes_;
  std::vector<uint32_t> prefix_offsets_{0};
  std::vector<uint32_t> prefix_counts_;
};

}  // namespace twig::suffix

#endif  // TWIG_SUFFIX_PATH_SUFFIX_TREE_H_
