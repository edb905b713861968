#include "suffix/path_suffix_tree.h"

#include <algorithm>
#include <bit>

namespace twig::suffix {

std::string SymbolToString(Symbol s, const tree::LabelTable& labels) {
  if (IsTagSymbol(s)) return std::string(labels.Name(SymbolLabel(s)));
  return std::string(1, SymbolChar(s));
}

/// Open addressing with linear probing over a power-of-two array of
/// child IDs, kept at most half full. A slot stores only the child: its
/// key is the child's own (parent, symbol), which every probe compares
/// at full width, so no symbol value can alias another node's edge and
/// the table costs 4 bytes a slot. Node 0 (the root) is nobody's child,
/// so 0 marks an empty slot.
class PathSuffixTree::BuildTable {
 public:
  explicit BuildTable(const std::vector<Node>& nodes) : nodes_(nodes) {
    Rehash(1024);
  }

  /// The slot holding the child of `node` along `symbol`, or the empty
  /// slot (*slot == 0) where that child belongs. Valid until Insert.
  PstNodeId* Find(PstNodeId node, Symbol symbol) {
    for (size_t i = SlotOf(node, symbol);; i = (i + 1) & mask_) {
      const PstNodeId c = slots_[i];
      if (c == 0 || (nodes_[c].parent == node && nodes_[c].symbol == symbol)) {
        return &slots_[i];
      }
    }
  }

  /// Stores `child`, whose node record already exists, in the empty
  /// slot Find returned for its (parent, symbol).
  void Insert(PstNodeId* slot, PstNodeId child) {
    *slot = child;
    if (++size_ * 2 > slots_.size()) Rehash(slots_.size() * 2);
  }

 private:
  size_t SlotOf(PstNodeId node, Symbol symbol) const {
    const uint64_t h = (uint64_t{node} * 0x9e3779b97f4a7c15ULL) ^
                       (uint64_t{symbol} * 0xbf58476d1ce4e5b9ULL);
    return static_cast<size_t>(h >> shift_);
  }

  /// Reinserts every non-root node (all of them are in the table) in
  /// ID order, which reads the node array sequentially.
  void Rehash(size_t slot_count) {
    slots_.assign(slot_count, 0);
    mask_ = slot_count - 1;
    shift_ = 64 - std::countr_zero(slot_count);
    for (PstNodeId c = 1; c < nodes_.size(); ++c) {
      size_t i = SlotOf(nodes_[c].parent, nodes_[c].symbol);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = c;
    }
  }

  const std::vector<Node>& nodes_;
  std::vector<PstNodeId> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

void PathSuffixTree::InsertPathSuffixes(const std::vector<Symbol>& symbols,
                                        uint32_t path_id, size_t max_nodes,
                                        BuildTable& table) {
  for (size_t start = 0; start < symbols.size(); ++start) {
    PstNodeId node = root();
    for (size_t i = start; i < symbols.size(); ++i) {
      const Symbol symbol = symbols[i];
      PstNodeId* slot = table.Find(node, symbol);
      PstNodeId child = *slot;
      if (child == 0) {
        if (max_nodes != 0 && nodes_.size() >= max_nodes) {
          truncated_ = true;
          break;  // stop extending this suffix
        }
        child = static_cast<PstNodeId>(nodes_.size());
        Node n;
        n.symbol = symbol;
        n.parent = node;
        n.depth = nodes_[node].depth + 1;
        n.starts_with_tag =
            (node == root()) ? IsTagSymbol(symbol) : nodes_[node].starts_with_tag;
        nodes_.push_back(n);
        table.Insert(slot, child);
      }
      Node& c = nodes_[child];
      if (c.last_path != path_id) {
        c.last_path = path_id;
        ++c.pt;
      }
      node = child;
    }
  }
}

PathSuffixTree PathSuffixTree::Build(const tree::Tree& data,
                                     const PathSuffixTreeOptions& options) {
  PathSuffixTree pst;
  pst.nodes_.push_back(Node{});  // root: the empty subpath

  // DFS over the data tree maintaining the current tag-symbol stack;
  // each leaf terminates one root-to-leaf path. Child edges go into the
  // build table only during construction (insertion is incremental);
  // the flat index that serves all post-build lookups is built once at
  // the end.
  BuildTable table(pst.nodes_);
  std::vector<Symbol> symbols;
  uint32_t path_id = 0;
  auto dfs = [&](auto&& self, tree::NodeId n) -> void {
    if (data.IsValue(n)) {
      const std::string_view value = data.Value(n);
      const size_t take = std::min(value.size(), options.max_value_chars);
      for (size_t i = 0; i < take; ++i) {
        symbols.push_back(CharSymbol(value[i]));
      }
      pst.InsertPathSuffixes(symbols, path_id++, options.max_nodes, table);
      symbols.resize(symbols.size() - take);
      return;
    }
    symbols.push_back(TagSymbol(data.Label(n)));
    if (data.Children(n).empty()) {
      // A childless element is itself a leaf of the data tree.
      pst.InsertPathSuffixes(symbols, path_id++, options.max_nodes, table);
    } else {
      for (tree::NodeId c : data.Children(n)) self(self, c);
    }
    symbols.pop_back();
  };
  if (!data.empty()) dfs(dfs, data.root());
  pst.total_paths_ = path_id;
  pst.child_index_ = ChildIndex::Build(
      pst.nodes_.size(), [&](size_t n) { return pst.nodes_[n].parent; },
      [&](size_t n) { return pst.nodes_[n].symbol; });
  return pst;
}

}  // namespace twig::suffix
