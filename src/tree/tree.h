// The node-labeled data tree (Section 2 of the paper).
//
// A Tree is a rooted tree whose non-leaf nodes are labeled with tags
// from a small alphabet (interned LabelIds) and whose leaf nodes are
// labeled with arbitrary value strings. An XML document maps onto a
// Tree with element tags and attribute names as non-leaf labels and
// text / attribute values as leaf labels.
//
// A Tree is immutable. A TreeBuilder creates its nodes one at a time
// and Finish() lays them out once in flat arrays (DESIGN.md §18): one
// label per node, the value bytes concatenated behind n+1 offsets, and
// the children in CSR form, so a node costs 16 bytes plus its value.

#ifndef TWIG_TREE_TREE_H_
#define TWIG_TREE_TREE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tree/label_table.h"

namespace twig::tree {

/// Index of a node within a Tree. IDs are dense and assigned in
/// creation order; generators and parsers create nodes in document
/// (preorder) order.
using NodeId = uint32_t;

/// Sentinel for "no node" (e.g., the parent the root is added under).
inline constexpr NodeId kNullNode = 0xffffffffu;

/// A rooted node-labeled tree. Nodes are either *elements* (tag label,
/// may have children) or *values* (leaf string label, no children).
class Tree {
 public:
  Tree() = default;

  // Movable but not copyable: trees can be large.
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;
  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;

  /// Number of nodes.
  size_t size() const { return node_labels_.size(); }
  bool empty() const { return node_labels_.empty(); }

  /// The root node (node 0). Requires a non-empty tree.
  NodeId root() const {
    assert(!empty());
    return 0;
  }

  /// True if `n` is a leaf *value* node (string-labeled).
  bool IsValue(NodeId n) const { return node_labels_[n] == kInvalidLabel; }

  /// Tag label of an element node.
  LabelId Label(NodeId n) const {
    assert(!IsValue(n));
    return node_labels_[n];
  }

  /// Tag string of an element node.
  std::string_view LabelName(NodeId n) const {
    return labels_.Name(Label(n));
  }

  /// String label of a value node.
  std::string_view Value(NodeId n) const {
    assert(IsValue(n));
    return std::string_view(values_).substr(
        value_offsets_[n], value_offsets_[n + 1] - value_offsets_[n]);
  }

  /// The children of `n` in creation order (so in increasing ID order).
  std::span<const NodeId> Children(NodeId n) const {
    return {children_.data() + child_offsets_[n],
            children_.data() + child_offsets_[n + 1]};
  }

  const LabelTable& labels() const { return labels_; }

 private:
  friend class TreeBuilder;

  std::vector<LabelId> node_labels_;  // per node; kInvalidLabel = value
  // value_offsets_[n]..value_offsets_[n+1] delimit node n's bytes in
  // values_ (an empty range for elements); n+1 slots.
  std::vector<uint32_t> value_offsets_;
  std::string values_;  // all value strings, concatenated
  // child_offsets_[n]..child_offsets_[n+1] delimit node n's children
  // in children_; n+1 slots.
  std::vector<uint32_t> child_offsets_;
  std::vector<NodeId> children_;
  LabelTable labels_;
};

/// Creates a Tree's nodes in order, then freezes them into the Tree's
/// flat layout once. A parent must exist before its children, so IDs
/// are topological; the parsers and generators add nodes in preorder.
class TreeBuilder {
 public:
  /// Creates the root element. Must be the first node added.
  NodeId AddRoot(std::string_view tag) {
    assert(parents_.empty());
    return AddNode(kNullNode, tree_.labels_.Intern(tag), {});
  }

  /// Adds an element node under `parent`, an element added earlier.
  NodeId AddElement(NodeId parent, std::string_view tag) {
    assert(IsElement(parent));
    return AddNode(parent, tree_.labels_.Intern(tag), {});
  }

  /// Adds a leaf value node under `parent`, an element added earlier.
  NodeId AddValue(NodeId parent, std::string_view value) {
    assert(IsElement(parent));
    return AddNode(parent, kInvalidLabel, value);
  }

  /// Number of nodes added so far.
  size_t size() const { return parents_.size(); }

  /// Lays the nodes out as a Tree: closes the value offsets, places the
  /// children by one counting sort on parent, and drops the parents.
  Tree Finish() &&;

 private:
  bool IsElement(NodeId n) const { return n < size() && !tree_.IsValue(n); }

  NodeId AddNode(NodeId parent, LabelId label, std::string_view value) {
    const NodeId id = static_cast<NodeId>(parents_.size());
    parents_.push_back(parent);
    tree_.node_labels_.push_back(label);
    tree_.value_offsets_.push_back(static_cast<uint32_t>(tree_.values_.size()));
    tree_.values_.append(value);
    return id;
  }

  Tree tree_;  // labels, value offsets and bytes grow here in place
  std::vector<NodeId> parents_;
};

}  // namespace twig::tree

#endif  // TWIG_TREE_TREE_H_
