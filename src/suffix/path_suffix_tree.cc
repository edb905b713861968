#include "suffix/path_suffix_tree.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <thread>

#include "util/hash.h"
#include "util/thread_pool.h"

namespace twig::suffix {

namespace {

constexpr uint32_t kNoPath = 0xffffffffu;

/// A node of a construction-time trie (one part's, or the tag paths'):
/// the edge into it and its pt. The tag flag follows from the parent,
/// so placement fills it.
struct PartNode {
  Symbol symbol = 0;
  PstNodeId parent = 0;  // trie-local ID; 0 is the trie's root
  // The node's pt until placement copies it out; from then on, the
  // node's ID in the merged tree, where its children look it up.
  uint32_t pt = 0;
};

/// The nodes one part's insertions create, in creation order. stamps[i]
/// is node i's creation stamp, (distinct path << 32) | start of the
/// suffix whose insertion created it. Node 0 is the part's copy of the
/// root.
struct Part {
  std::vector<PartNode> nodes;
  std::vector<uint64_t> stamps;
};

/// Construction-time child lookup of a trie. Open addressing with
/// linear probing over a power-of-two array of child IDs, kept at most
/// half full. A slot stores only the child: its key is the child's own
/// (parent, symbol), which every probe compares at full width, so no
/// symbol value can alias another node's edge and the table costs 4
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
  /// ID order, which reads the node array sequentially. The old slots
  /// are freed first, so a part never holds two tables at once.
  void Rehash(size_t slot_count) {
    std::vector<PstNodeId>().swap(slots_);
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

/// Open-addressing index of distinct keys kept in the caller's list. A
/// slot holds a key's list index + 1 (0 marks an empty slot) beside 32
/// bits of its hash, which place the key and screen probes, so growing
/// never rereads a key. Kept at most half full.
class DistinctTable {
 public:
  DistinctTable() { Rehash(1024); }

  /// The list index of the key that hashes to `hash` and that
  /// `equal(index)` accepts. If no such key is listed yet, records
  /// `fresh` as its index and returns `fresh`.
  template <typename Equal>
  uint32_t FindOrAdd(uint64_t hash, uint32_t fresh, Equal&& equal) {
    const uint32_t h = static_cast<uint32_t>(hash >> 32);
    for (size_t i = h >> shift_;; i = (i + 1) & mask_) {
      const Slot slot = slots_[i];
      if (slot.index == 0) {
        slots_[i] = Slot{fresh + 1, h};
        if (++size_ * 2 > slots_.size()) Rehash(slots_.size() * 2);
        return fresh;
      }
      if (slot.hash == h && equal(slot.index - 1)) return slot.index - 1;
    }
  }

 private:
  struct Slot {
    uint32_t index = 0;  // list index + 1
    uint32_t hash = 0;
  };

  void Rehash(size_t slot_count) {
    std::vector<Slot> old(slot_count);
    old.swap(slots_);
    mask_ = slot_count - 1;
    shift_ = 32 - std::countr_zero(slot_count);
    for (const Slot& slot : old) {
      if (slot.index == 0) continue;
      size_t i = slot.hash >> shift_;
      while (slots_[i].index != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

/// One distinct capped root-to-leaf path: the tags of `tag_path`, a node
/// of the tag-path trie, then a capped value prefix, which is empty for
/// a path that ends at a childless element. `count` is the number of
/// root-to-leaf paths equal to it.
struct DistinctPath {
  PstNodeId tag_path = 0;
  uint32_t prefix_begin = 0;  // in DistinctPaths::prefix_bytes
  uint32_t prefix_size = 0;
  uint32_t count = 0;
};

/// The distinct capped root-to-leaf paths of a data tree, in document
/// order of first occurrence, and the weight of each leading symbol:
/// the symbols its suffixes of the distinct paths visit.
struct DistinctPaths {
  std::vector<PartNode> tag_paths;  // trie of tag paths; pt unused
  std::vector<DistinctPath> paths;
  std::string prefix_bytes;  // the paths' value prefixes, concatenated
  std::vector<uint64_t> weight;
  uint32_t total_paths = 0;

  std::string_view Prefix(const DistinctPath& path) const {
    return std::string_view(prefix_bytes)
        .substr(path.prefix_begin, path.prefix_size);
  }
};

/// One walk of the data tree. A root-to-leaf path's key is its tag
/// path's node in a trie of tag paths plus the full capped value prefix
/// (empty for a childless element), so two paths share a key exactly
/// when their symbol sequences are equal. Each distinct path keeps its
/// own copy of its prefix, so comparing keys never reads back into the
/// data tree. The walk's lookup tables are freed when it returns.
DistinctPaths FindDistinctPaths(const tree::Tree& data, size_t cap) {
  DistinctPaths out;
  out.tag_paths.emplace_back();
  out.weight.assign(kFirstTagSymbol + data.labels().size(), 0);
  BuildTable tag_children(out.tag_paths);
  DistinctTable keys;
  std::vector<Symbol> tags;  // the tag path being walked
  auto leaf = [&](PstNodeId tag_path, std::string_view prefix) {
    ++out.total_paths;
    const uint32_t fresh = static_cast<uint32_t>(out.paths.size());
    const uint32_t d = keys.FindOrAdd(
        HashBytes(prefix, tag_path), fresh, [&](uint32_t i) {
          const DistinctPath& path = out.paths[i];
          return path.tag_path == tag_path && out.Prefix(path) == prefix;
        });
    if (d != fresh) {
      ++out.paths[d].count;
      return;
    }
    out.paths.push_back(
        DistinctPath{tag_path, static_cast<uint32_t>(out.prefix_bytes.size()),
                     static_cast<uint32_t>(prefix.size()), 1});
    out.prefix_bytes.append(prefix);
    const size_t length = tags.size() + prefix.size();
    for (size_t start = 0; start < tags.size(); ++start) {
      out.weight[tags[start]] += length - start;
    }
    for (size_t start = 0; start < prefix.size(); ++start) {
      out.weight[CharSymbol(prefix[start])] += prefix.size() - start;
    }
  };
  auto dfs = [&](auto&& self, tree::NodeId n, PstNodeId parent_path) -> void {
    if (data.IsValue(n)) {
      leaf(parent_path, data.Value(n).substr(0, cap));
      return;
    }
    const Symbol symbol = TagSymbol(data.Label(n));
    PstNodeId* slot = tag_children.Find(parent_path, symbol);
    PstNodeId tag_path = *slot;
    if (tag_path == 0) {
      tag_path = static_cast<PstNodeId>(out.tag_paths.size());
      out.tag_paths.push_back(PartNode{symbol, parent_path, 0});
      tag_children.Insert(slot, tag_path);
    }
    tags.push_back(symbol);
    if (data.Children(n).empty()) {
      // A childless element is itself a leaf of the data tree.
      leaf(tag_path, {});
    } else {
      for (tree::NodeId c : data.Children(n)) self(self, c, tag_path);
    }
    tags.pop_back();
  };
  if (!data.empty()) dfs(dfs, data.root(), 0);
  return out;
}

/// Inserts every suffix of every distinct path whose leading symbol
/// `owner` assigns to `part`, in order of first occurrence, adding the
/// path's multiplicity to the pt of each node it reaches. `visits`, the
/// symbols those insertions visit, bounds the nodes they create, so the
/// node, stamp and marker arrays never grow by copying. The build table
/// and the pt markers are freed before the part is returned.
Part BuildPart(const DistinctPaths& distinct,
               const std::vector<uint32_t>& owner, uint32_t part,
               size_t visits) {
  Part out;
  out.nodes.reserve(visits + 1);
  out.stamps.reserve(visits + 1);
  // The last distinct path that counted toward each node's pt.
  std::vector<uint32_t> last_path;
  last_path.reserve(visits + 1);
  out.nodes.emplace_back();
  out.stamps.push_back(0);
  last_path.push_back(kNoPath);
  BuildTable table(out.nodes);
  std::vector<Symbol> symbols;
  for (uint32_t d = 0; d < distinct.paths.size(); ++d) {
    const DistinctPath& path = distinct.paths[d];
    symbols.clear();
    for (PstNodeId t = path.tag_path; t != 0;
         t = distinct.tag_paths[t].parent) {
      symbols.push_back(distinct.tag_paths[t].symbol);
    }
    std::reverse(symbols.begin(), symbols.end());
    for (char c : distinct.Prefix(path)) symbols.push_back(CharSymbol(c));
    for (size_t start = 0; start < symbols.size(); ++start) {
      if (owner[symbols[start]] != part) continue;
      const uint64_t stamp = (uint64_t{d} << 32) | start;
      PstNodeId node = 0;
      for (size_t i = start; i < symbols.size(); ++i) {
        PstNodeId* slot = table.Find(node, symbols[i]);
        PstNodeId child = *slot;
        if (child == 0) {
          child = static_cast<PstNodeId>(out.nodes.size());
          out.nodes.push_back(PartNode{symbols[i], node, 0});
          out.stamps.push_back(stamp);
          last_path.push_back(kNoPath);
          table.Insert(slot, child);
        }
        if (last_path[child] != d) {
          last_path[child] = d;
          out.nodes[child].pt += path.count;
        }
        node = child;
      }
    }
  }
  return out;
}

}  // namespace

PathSuffixTree PathSuffixTree::Build(const tree::Tree& data,
                                     const PathSuffixTreeOptions& options) {
  const size_t cap = options.max_value_chars;
  PathSuffixTree pst;
  pst.max_value_chars_ = cap;

  // Find the distinct paths, weighing each leading symbol by the
  // symbols its suffixes of them visit, then deal the symbols out
  // heaviest first, each to the lightest part so far. A node's subtrie
  // shares its leading symbol, so no node is reached from two parts.
  const DistinctPaths distinct = FindDistinctPaths(data, cap);
  pst.total_paths_ = distinct.total_paths;
  const std::vector<uint64_t>& weight = distinct.weight;
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

  std::unique_ptr<util::ThreadPool> pool;
  if (part_count > 1) pool = std::make_unique<util::ThreadPool>(part_count);
  auto for_each_part = [&](const std::function<void(size_t)>& body) {
    if (pool == nullptr) {
      for (size_t p = 0; p < part_count; ++p) body(p);
    } else {
      pool->ParallelFor(part_count,
                        [&](size_t p, size_t /*worker*/) { body(p); });
    }
  };

  std::vector<Part> parts(part_count);
  for_each_part([&](size_t p) {
    parts[p] =
        BuildPart(distinct, owner, static_cast<uint32_t>(p), load[p]);
  });

  // Place each part's nodes at their serial IDs. A serial build creates
  // nodes in stamp order, and one insertion's new nodes follow each
  // other, parents first. Each (path, start) belongs to one part, so a
  // part's stamps are sorted and no stamp occurs in two parts. A node's
  // ID is therefore the number of nodes before it in its own part,
  // plus the root, plus the number of smaller stamps in every other
  // part. A part reads the others' stamps, which nothing writes any
  // more, and writes only its own nodes and the merged nodes it places;
  // its parents are its own, placed before their children.
  size_t node_count = 1;
  for (const Part& part : parts) node_count += part.nodes.size() - 1;
  pst.nodes_.resize(node_count);  // node 0: the root, the empty subpath
  for_each_part([&](size_t p) {
    Part& own = parts[p];
    // Per part, the first stamp not below the current node's stamp.
    std::vector<size_t> next(part_count, 1);
    for (size_t i = 1; i < own.nodes.size(); ++i) {
      const uint64_t stamp = own.stamps[i];
      size_t id = i;
      for (size_t q = 0; q < part_count; ++q) {
        if (q == p) continue;
        const std::vector<uint64_t>& other = parts[q].stamps;
        while (next[q] < other.size() && other[next[q]] < stamp) ++next[q];
        id += next[q] - 1;
      }
      PartNode& n = own.nodes[i];
      Node& node = pst.nodes_[id];
      node.symbol = n.symbol;
      node.parent = own.nodes[n.parent].pt;
      node.pt = n.pt;
      node.starts_with_tag = node.parent == 0
                                 ? IsTagSymbol(n.symbol)
                                 : pst.nodes_[node.parent].starts_with_tag;
      n.pt = static_cast<uint32_t>(id);
    }
  });
  parts.clear();
  parts.shrink_to_fit();

  // The distinct capped value prefixes, for the count pass's
  // character-only subpaths. Every non-empty one ends a value path.
  DistinctTable prefixes;
  for (const DistinctPath& path : distinct.paths) {
    const std::string_view prefix = distinct.Prefix(path);
    if (prefix.empty()) continue;
    const uint32_t fresh = static_cast<uint32_t>(pst.prefix_counts_.size());
    const uint32_t i = prefixes.FindOrAdd(
        HashBytes(prefix), fresh,
        [&](uint32_t j) { return pst.ValuePrefix(j) == prefix; });
    if (i == fresh) {
      pst.prefix_bytes_.append(prefix);
      pst.prefix_offsets_.push_back(
          static_cast<uint32_t>(pst.prefix_bytes_.size()));
      pst.prefix_counts_.push_back(0);
    }
    pst.prefix_counts_[i] += path.count;
  }
  return pst;
}

}  // namespace twig::suffix
