#include "suffix/path_suffix_tree.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "util/thread_pool.h"

namespace twig::suffix {

namespace {

constexpr uint32_t kNoPath = 0xffffffffu;

/// A node of one part's private trie: the edge into it and its pt. The
/// tag flag and depth follow from the parent, so the merge fills them.
struct PartNode {
  Symbol symbol = 0;
  PstNodeId parent = 0;  // part-local ID; 0 is the part's copy of the root
  uint32_t pt = 0;
};

/// The nodes one part's suffixes create, in creation order. keys[i]
/// holds node i's creation stamp, (path id << 32) | start of the suffix
/// whose insertion created it, until the merge places the node; from
/// then on it holds the node's ID in the merged tree. keys[0] is the
/// root's, placed at 0 from the start.
struct Part {
  std::vector<PartNode> nodes;
  std::vector<uint64_t> keys;
};

/// Construction-time child lookup of one part's trie. Open addressing
/// with linear probing over a power-of-two array of child IDs, kept at
/// most half full. A slot stores only the child: its key is the child's
/// own (parent, symbol), which every probe compares at full width, so
/// no symbol value can alias another node's edge and the table costs 4
/// bytes a slot. Node 0 (the root) is nobody's child, so 0 marks an
/// empty slot.
class BuildTable {
 public:
  explicit BuildTable(const std::vector<PartNode>& nodes) : nodes_(nodes) {
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

  const std::vector<PartNode>& nodes_;
  std::vector<PstNodeId> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

/// Calls visit(symbols) for each root-to-leaf path of `data` in
/// document order. `symbols` holds the path's tags and, when the path
/// ends in a value, at most `max_value_chars` of its leading characters.
template <typename Visit>
void ForEachPath(const tree::Tree& data, size_t max_value_chars,
                 Visit&& visit) {
  std::vector<Symbol> symbols;
  auto dfs = [&](auto&& self, tree::NodeId n) -> void {
    if (data.IsValue(n)) {
      const std::string_view value = data.Value(n);
      const size_t take = std::min(value.size(), max_value_chars);
      for (size_t i = 0; i < take; ++i) {
        symbols.push_back(CharSymbol(value[i]));
      }
      visit(symbols);
      symbols.resize(symbols.size() - take);
      return;
    }
    symbols.push_back(TagSymbol(data.Label(n)));
    if (data.Children(n).empty()) {
      // A childless element is itself a leaf of the data tree.
      visit(symbols);
    } else {
      for (tree::NodeId c : data.Children(n)) self(self, c);
    }
    symbols.pop_back();
  };
  if (!data.empty()) dfs(dfs, data.root());
}

/// Inserts, in document order, every suffix whose leading symbol
/// `owner` assigns to `part`. The build table and the pt markers are
/// freed before the part is returned.
Part BuildPart(const tree::Tree& data, size_t max_value_chars,
               const std::vector<uint32_t>& owner, uint32_t part) {
  Part out;
  out.nodes.emplace_back();
  out.keys.push_back(0);
  // The last path that counted toward each node's pt.
  std::vector<uint32_t> last_path(1, kNoPath);
  BuildTable table(out.nodes);
  uint32_t path_id = 0;
  ForEachPath(data, max_value_chars, [&](const std::vector<Symbol>& symbols) {
    for (size_t start = 0; start < symbols.size(); ++start) {
      if (owner[symbols[start]] != part) continue;
      const uint64_t stamp = (uint64_t{path_id} << 32) | start;
      PstNodeId node = 0;
      for (size_t i = start; i < symbols.size(); ++i) {
        PstNodeId* slot = table.Find(node, symbols[i]);
        PstNodeId child = *slot;
        if (child == 0) {
          child = static_cast<PstNodeId>(out.nodes.size());
          out.nodes.push_back(PartNode{symbols[i], node, 0});
          out.keys.push_back(stamp);
          last_path.push_back(kNoPath);
          table.Insert(slot, child);
        }
        if (last_path[child] != path_id) {
          last_path[child] = path_id;
          ++out.nodes[child].pt;
        }
        node = child;
      }
    }
    ++path_id;
  });
  return out;
}

}  // namespace

PathSuffixTree PathSuffixTree::Build(const tree::Tree& data,
                                     const PathSuffixTreeOptions& options) {
  const size_t cap = options.max_value_chars;
  PathSuffixTree pst;
  pst.max_value_chars_ = cap;

  // Weigh each leading symbol by the symbols its suffixes visit, then
  // deal the symbols out heaviest first, each to the lightest part so
  // far. A node's subtrie shares its leading symbol, so no node is
  // reached from two parts.
  std::vector<uint64_t> weight(kFirstTagSymbol + data.labels().size(), 0);
  ForEachPath(data, cap, [&](const std::vector<Symbol>& symbols) {
    for (size_t start = 0; start < symbols.size(); ++start) {
      weight[symbols[start]] += symbols.size() - start;
    }
    ++pst.total_paths_;
  });
  std::vector<Symbol> leading;
  for (Symbol s = 0; s < weight.size(); ++s) {
    if (weight[s] != 0) leading.push_back(s);
  }
  std::stable_sort(leading.begin(), leading.end(),
                   [&](Symbol a, Symbol b) { return weight[a] > weight[b]; });
  const size_t part_count = std::min<size_t>(
      leading.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<uint32_t> owner(weight.size(), 0);
  std::vector<uint64_t> load(part_count, 0);
  for (Symbol s : leading) {
    const auto lightest = std::min_element(load.begin(), load.end());
    owner[s] = static_cast<uint32_t>(lightest - load.begin());
    *lightest += weight[s];
  }

  std::vector<Part> parts(part_count);
  if (part_count == 1) {
    parts[0] = BuildPart(data, cap, owner, 0);
  } else if (part_count > 1) {
    util::ThreadPool pool(part_count);
    pool.ParallelFor(part_count, [&](size_t part, size_t /*worker*/) {
      parts[part] =
          BuildPart(data, cap, owner, static_cast<uint32_t>(part));
    });
  }

  // Merge the parts on their stamps. Each (path, start) belongs to one
  // part, so equal stamps never meet across parts, and within a part
  // one insertion's nodes follow each other parents first. Placing the
  // node with the smallest next stamp each time restores the serial
  // creation order.
  size_t node_count = 1;
  for (const Part& part : parts) node_count += part.nodes.size() - 1;
  pst.nodes_.reserve(node_count);
  pst.nodes_.push_back(Node{});  // root: the empty subpath
  std::vector<size_t> next(part_count, 1);
  for (;;) {
    size_t earliest = part_count;
    for (size_t p = 0; p < part_count; ++p) {
      if (next[p] == parts[p].nodes.size()) continue;
      if (earliest == part_count ||
          parts[p].keys[next[p]] < parts[earliest].keys[next[earliest]]) {
        earliest = p;
      }
    }
    if (earliest == part_count) break;
    Part& part = parts[earliest];
    const size_t i = next[earliest]++;
    const PartNode& n = part.nodes[i];
    Node node;
    node.symbol = n.symbol;
    node.parent = static_cast<PstNodeId>(part.keys[n.parent]);
    node.pt = n.pt;
    const Node& up = pst.nodes_[node.parent];
    node.depth = up.depth + 1;
    node.starts_with_tag =
        node.parent == 0 ? IsTagSymbol(n.symbol) : up.starts_with_tag;
    part.keys[i] = pst.nodes_.size();
    pst.nodes_.push_back(node);
  }
  return pst;
}

}  // namespace twig::suffix
