#include "tree/tree.h"

namespace twig::tree {

Tree TreeBuilder::Finish() && {
  Tree tree = std::move(tree_);
  const size_t n = parents_.size();
  if (n == 0) return tree;
  tree.value_offsets_.push_back(static_cast<uint32_t>(tree.values_.size()));

  // Counting sort by parent, as ChildIndex::Build does but without its
  // symbol sort: children stay in creation order. Every parent is below
  // n - 1, so counting parent p's children into slot p + 2 leaves p's
  // start in slot p + 1 after the prefix sum; placing them then moves
  // slot p + 1 on to p's end, which is p + 1's start.
  std::vector<uint32_t>& offsets = tree.child_offsets_;
  offsets.assign(n + 1, 0);
  for (NodeId c = 1; c < n; ++c) ++offsets[parents_[c] + 2];
  for (size_t i = 2; i <= n; ++i) offsets[i] += offsets[i - 1];
  tree.children_.resize(n - 1);
  for (NodeId c = 1; c < n; ++c) tree.children_[offsets[parents_[c] + 1]++] = c;
  parents_ = {};
  return tree;
}

}  // namespace twig::tree
