// The correlated subpath tree (CST) — the paper's summary data
// structure (Section 3).
//
// A CST is a pruned path suffix tree whose every retained subpath
// carries:
//   * the presence count  C_p = number of distinct data nodes rooting
//     the subpath (for character-only subpaths: distinct (value node,
//     offset) occurrences),
//   * the occurrence count C_o = number of distinct node-sequence
//     instances of the subpath (used by the multiset extension,
//     Section 5),
//   * for subpaths rooted at a non-leaf label: a set-hash signature of
//     the set of data-node IDs rooting the subpath (Section 3.4-3.5).
//
// Pruning is by path appearance count (pt), which favors subpaths
// toward the root (paper footnote 5) and is monotone, so the retained
// set is closed under taking sub-subpaths — the property the
// maximal-overlap combination step relies on.
//
// Construction runs in two stages so that experiment sweeps can share
// work: PathSuffixTree::Build is done once per data set; Cst::Build
// (threshold selection + counting + signatures) is done once per space
// budget. Cst::Build's count pass runs on one thread per core; its
// output does not depend on the thread count (DESIGN.md §17). It walks
// tag-rooted subpaths from every element, and character-only subpaths
// once per distinct capped value prefix the PST keeps, adding that
// prefix's multiplicity.

#ifndef TWIG_CST_CST_H_
#define TWIG_CST_CST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cst/view.h"
#include "sethash/sethash.h"
#include "suffix/child_index.h"
#include "suffix/path_suffix_tree.h"
#include "suffix/symbol.h"
#include "tree/tree.h"
#include "util/status.h"

namespace twig::cst {

/// Options for CST construction.
struct CstOptions {
  /// Number of components in each set-hash signature.
  size_t signature_length = 64;
  /// Seed for the signature hash family.
  uint64_t signature_seed = 0x5e7aa5e7aa5ULL;

  /// Explicit prune threshold: keep subpaths whose path appearance
  /// count is >= this. Ignored when space_budget_bytes is set.
  uint32_t prune_threshold = 1;

  /// If nonzero, pick the smallest threshold whose retained size (under
  /// the cost model below) fits the budget.
  size_t space_budget_bytes = 0;

  /// Cost model: structural bytes per retained node (symbol, child
  /// link, C_p, C_o) and bytes per signature component.
  size_t bytes_per_node = 16;
  size_t bytes_per_signature_component = 4;
};

/// The CST summary structure, fully materialized in memory.
/// Self-contained: keeps its own copy of the label table so estimation
/// never touches the data tree. Implements the CstView lookup surface
/// (cst/view.h); `final` so calls through a concrete Cst devirtualize.
class Cst final : public CstView {
 public:
  /// Builds a CST over `data` from its (stage-one) path suffix tree,
  /// counting the value prefix the tree indexes (pst.max_value_chars()).
  static Cst Build(const tree::Tree& data, const suffix::PathSuffixTree& pst,
                   const CstOptions& options = {});

  /// Data nodes per work item of Build's count pass: walk roots
  /// [k * kCountBlockRoots, (k + 1) * kCountBlockRoots) form block k,
  /// with the PST's distinct value prefixes of the same indices (there
  /// are fewer of those than value nodes). A tree of one block is
  /// counted on the calling thread.
  static constexpr size_t kCountBlockRoots = 1024;

  // -- Navigation (CstView) ----------------------------------------------

  /// Child of `node` along `symbol`, or kNoCstNode. Out-of-range
  /// symbols (> suffix::kMaxSymbol, including kUnknownSymbol) never
  /// match: the flat index stores full-width symbols, so no sentinel
  /// can alias another (node, symbol) entry.
  CstNodeId Step(CstNodeId node, suffix::Symbol symbol) const override {
    if (symbol > suffix::kMaxSymbol) return kNoCstNode;
    return child_index_.Find(node, symbol);
  }

  Match LongestMatch(std::span<const suffix::Symbol> symbols,
                     size_t start) const override;

  size_t CopyChildren(CstNodeId node,
                      std::vector<suffix::ChildIndex::Entry>* out)
      const override {
    const auto children = child_index_.Children(node);
    out->assign(children.begin(), children.end());
    return out->size();
  }

  // -- Per-node statistics (CstView) --------------------------------------

  double PresenceCount(CstNodeId node) const override {
    return nodes_[node].cp;
  }

  double OccurrenceCount(CstNodeId node) const override {
    return nodes_[node].co;
  }

  bool StartsWithTag(CstNodeId node) const override {
    return nodes_[node].starts_with_tag;
  }

  /// Set-hash signature of the node's rooting set, or nullptr for
  /// character-only subpaths. The in-memory pool is stable, so the
  /// scratch overload ignores its scratch argument.
  const sethash::Signature* GetSignature(CstNodeId node) const {
    const uint32_t idx = nodes_[node].signature_index;
    return idx == 0xffffffffu ? nullptr : &signatures_[idx];
  }
  const sethash::Signature* GetSignature(
      CstNodeId node, sethash::Signature* /*scratch*/) const override {
    return GetSignature(node);
  }

  uint32_t Depth(CstNodeId node) const override { return nodes_[node].depth; }
  suffix::Symbol GetSymbol(CstNodeId node) const override {
    return nodes_[node].symbol;
  }
  CstNodeId Parent(CstNodeId node) const override {
    return nodes_[node].parent;
  }

  // -- Global statistics (CstView) -----------------------------------------

  uint64_t data_node_count() const override { return data_node_count_; }
  uint32_t prune_threshold() const override { return prune_threshold_; }
  size_t size_bytes() const override { return size_bytes_; }
  size_t node_count() const override { return nodes_.size(); }
  size_t signature_count() const override { return signatures_.size(); }
  size_t signature_length() const override { return signature_length_; }
  size_t max_value_chars() const override { return max_value_chars_; }

  // -- Serialization --------------------------------------------------------

  /// Serializes the CST as a TWCST03 store (cst/paged_cst.h), the
  /// summary's only on-disk format: fixed-size self-checksummed pages
  /// that cst::PagedCst reads back on demand through a
  /// storage::BufferManager. The store is self-contained (counts,
  /// signatures and the label table), so estimation needs no access to
  /// the data. InvalidArgument when `page_size` is not a power of two
  /// in storage's supported range or is too small to hold one record (a
  /// signature of the default length needs >= 512-byte pages).
  Result<std::string> SerializePaged(size_t page_size) const;

  /// Rebuilds a fully in-memory Cst from any CstView (e.g. a paged
  /// TWCST03 reader), by walking every node. The result answers every
  /// CstView query identically to `view`. Returns the view's storage
  /// error if a degraded read is detected mid-walk — a half-copied
  /// summary is never returned.
  static Result<Cst> Materialize(const CstView& view);

  // -- Label mapping --------------------------------------------------------

  const tree::LabelTable& labels() const override { return labels_; }

 private:
  struct Node {
    suffix::Symbol symbol = 0;
    CstNodeId parent = kNoCstNode;
    uint32_t depth = 0;
    bool starts_with_tag = false;
    double cp = 0;  // presence count
    double co = 0;  // occurrence count
    uint32_t signature_index = 0xffffffffu;
  };

  /// Picks the smallest threshold whose retained size fits the budget.
  static uint32_t ThresholdForBudget(const suffix::PathSuffixTree& pst,
                                     const CstOptions& options);

  /// Stage two: walk the data tree accumulating C_p / C_o / signatures
  /// for the retained nodes, blocks of walk roots spread over a thread
  /// pool sized to the machine. Character-only subpaths are counted
  /// from `pst`'s distinct value prefixes, once per prefix. Each worker
  /// counts into its own C_p / C_o partials; signatures fold in place
  /// by atomic min, skipped when the worker's ceiling for the signature
  /// shows a fold lowers nothing.
  void AccumulateCounts(const tree::Tree& data,
                        const suffix::PathSuffixTree& pst,
                        const sethash::SetHashFamily& family);

  std::vector<Node> nodes_;
  suffix::ChildIndex child_index_;
  std::vector<sethash::Signature> signatures_;
  tree::LabelTable labels_;
  uint64_t data_node_count_ = 0;
  uint32_t prune_threshold_ = 1;
  size_t size_bytes_ = 0;
  size_t signature_length_ = 0;
  size_t max_value_chars_ = 16;
};

}  // namespace twig::cst

#endif  // TWIG_CST_CST_H_
