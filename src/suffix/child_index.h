// Flat, cache-friendly child adjacency for the CST.
//
// (node, symbol) -> child is the hot lookup of LongestMatch and every
// estimation algorithm. The ChildIndex answers it with the layout the
// tree-pattern-matching literature uses: one contiguous backing array
// of (symbol, child) entries, grouped per parent node, each group
// sorted by symbol and binary-searched on lookup. Lookups touch one
// offsets slot and one short sorted span — two cache lines for typical
// fan-outs — and symbols are compared at full 32-bit width, so no
// symbol value can alias another node's entries.
//
// The index is immutable: it is built once, after all nodes exist,
// from the nodes' (parent, symbol) fields. It serves the CST only. The
// path suffix tree resolves children through open-addressing build
// tables while it grows (path_suffix_tree.cc) and keeps no child
// lookup once built; Cst::Build indexes the nodes it retains.

#ifndef TWIG_SUFFIX_CHILD_INDEX_H_
#define TWIG_SUFFIX_CHILD_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "suffix/symbol.h"

namespace twig::suffix {

class ChildIndex {
 public:
  /// One child edge: `child` is reached from its parent along `symbol`.
  struct Entry {
    Symbol symbol = 0;
    uint32_t child = 0;
  };

  /// Returned by Find when `node` has no child along `symbol`. Equal to
  /// kNoPstNode / cst::kNoCstNode so callers can return it directly.
  static constexpr uint32_t kNotFound = 0xffffffffu;

  ChildIndex() = default;

  /// Builds the index for a tree of `node_count` nodes whose node 0 is
  /// the root. `parent_of(n)` / `symbol_of(n)` describe the edge into
  /// node n (n >= 1); parents must be < n (topological ID order) and
  /// (parent, symbol) pairs must be unique.
  template <typename ParentFn, typename SymbolFn>
  static ChildIndex Build(size_t node_count, ParentFn&& parent_of,
                          SymbolFn&& symbol_of) {
    ChildIndex index;
    if (node_count == 0) return index;
    index.offsets_.assign(node_count + 1, 0);
    // Counting sort by parent: count fan-outs, prefix-sum into offsets,
    // then place each edge at its parent's cursor.
    for (size_t n = 1; n < node_count; ++n) {
      ++index.offsets_[parent_of(n) + 1];
    }
    for (size_t n = 1; n <= node_count; ++n) {
      index.offsets_[n] += index.offsets_[n - 1];
    }
    index.entries_.resize(node_count - 1);
    std::vector<uint32_t> cursor(index.offsets_.begin(),
                                 index.offsets_.end() - 1);
    for (size_t n = 1; n < node_count; ++n) {
      index.entries_[cursor[parent_of(n)]++] =
          Entry{symbol_of(n), static_cast<uint32_t>(n)};
    }
    for (size_t n = 0; n < node_count; ++n) {
      std::sort(index.entries_.begin() + index.offsets_[n],
                index.entries_.begin() + index.offsets_[n + 1],
                [](const Entry& a, const Entry& b) {
                  return a.symbol < b.symbol;
                });
    }
    return index;
  }

  /// Child of `node` along `symbol`, or kNotFound. Symbols above
  /// kMaxSymbol (including the kUnknownSymbol sentinel) never match:
  /// entries are compared at full width, and Build rejects storing
  /// them, so the search simply finds nothing.
  uint32_t Find(uint32_t node, Symbol symbol) const {
    if (node + 1 >= offsets_.size()) return kNotFound;
    const Entry* first = entries_.data() + offsets_[node];
    const Entry* last = entries_.data() + offsets_[node + 1];
    while (first < last) {
      const Entry* mid = first + (last - first) / 2;
      if (mid->symbol < symbol) {
        first = mid + 1;
      } else if (symbol < mid->symbol) {
        last = mid;
      } else {
        return mid->child;
      }
    }
    return kNotFound;
  }

  /// All child edges of `node`, sorted by symbol.
  std::span<const Entry> Children(uint32_t node) const {
    return {entries_.data() + offsets_[node],
            entries_.data() + offsets_[node + 1]};
  }

  size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t entry_count() const { return entries_.size(); }

  /// Raw parts, for serialization. offsets() has node_count()+1 slots;
  /// offsets()[n]..offsets()[n+1] delimit node n's span in entries().
  std::span<const uint32_t> offsets() const { return offsets_; }
  std::span<const Entry> entries() const { return entries_; }

  /// Reassembles an index from serialized parts. Returns false (and
  /// leaves `out` empty) unless the parts are structurally valid:
  /// offsets monotone from 0 to entries.size() with node_count+1
  /// slots, every span strictly sorted by symbol, every symbol within
  /// kMaxSymbol, and every child a valid non-root node ID. Parent /
  /// symbol consistency against the node array is the caller's check.
  static bool FromParts(size_t node_count, std::vector<uint32_t> offsets,
                        std::vector<Entry> entries, ChildIndex* out) {
    *out = ChildIndex();
    if (offsets.size() != node_count + 1) return false;
    if (offsets.front() != 0 || offsets.back() != entries.size()) return false;
    // Validate the whole offsets array before touching entries: a span
    // bound is only known to be <= entries.size() once every later
    // offset has been seen to be non-decreasing too.
    for (size_t n = 0; n < node_count; ++n) {
      if (offsets[n] > offsets[n + 1]) return false;
    }
    for (size_t n = 0; n < node_count; ++n) {
      for (uint32_t e = offsets[n]; e < offsets[n + 1]; ++e) {
        if (e > offsets[n] && entries[e - 1].symbol >= entries[e].symbol) {
          return false;  // unsorted or duplicate symbol in span
        }
        if (entries[e].symbol > kMaxSymbol) return false;
        if (entries[e].child == 0 || entries[e].child >= node_count) {
          return false;
        }
      }
    }
    out->offsets_ = std::move(offsets);
    out->entries_ = std::move(entries);
    return true;
  }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<Entry> entries_;
};

}  // namespace twig::suffix

#endif  // TWIG_SUFFIX_CHILD_INDEX_H_
