#include "cst/cst.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace twig::cst {

using suffix::CharSymbol;
using suffix::IsTagSymbol;
using suffix::kNoPstNode;
using suffix::PathSuffixTree;
using suffix::PstNodeId;
using suffix::Symbol;
using suffix::TagSymbol;
using tree::NodeId;
using tree::Tree;

Cst::Match Cst::LongestMatch(std::span<const Symbol> symbols,
                             size_t start) const {
  Match match;
  CstNodeId node = root();
  for (size_t i = start; i < symbols.size(); ++i) {
    CstNodeId next = Step(node, symbols[i]);
    if (next == kNoCstNode) break;
    node = next;
    match.node = node;
    match.length = i - start + 1;
  }
  return match;
}

uint32_t Cst::ThresholdForBudget(const PathSuffixTree& pst,
                                 const CstOptions& options) {
  const size_t sig_bytes =
      options.signature_length * options.bytes_per_signature_component;
  // Group retained cost by pt value, then admit groups from most to
  // least frequent while the budget holds. Whole groups keep the
  // threshold semantics (pt >= t) and hence pruning monotonicity. Only
  // values some node has form a group, so the threshold is always one
  // of them. Groups are few (1,391 for the 314k nodes of an 8 MiB
  // document), so they are hashed and only they are sorted.
  std::unordered_map<uint32_t, size_t> cost_by_pt;
  for (PstNodeId n = 1; n < pst.node_count(); ++n) {
    const size_t cost = options.bytes_per_node +
                        (pst.StartsWithTag(n) ? sig_bytes : 0);
    cost_by_pt[pst.PathCount(n)] += cost;
  }
  std::vector<std::pair<uint32_t, size_t>> groups(cost_by_pt.begin(),
                                                  cost_by_pt.end());
  std::sort(groups.begin(), groups.end(), std::greater<>());
  size_t used = 0;
  uint32_t threshold = 0xffffffffu;  // retain nothing
  for (const auto& [pt, cost] : groups) {
    if (used + cost > options.space_budget_bytes) break;
    used += cost;
    threshold = pt;
  }
  return threshold;
}

Cst Cst::Build(const Tree& data, const PathSuffixTree& pst,
               const CstOptions& options) {
  Cst cst;
  cst.signature_length_ = options.signature_length;
  cst.max_value_chars_ = pst.max_value_chars();
  cst.data_node_count_ = data.size();
  cst.prune_threshold_ = options.space_budget_bytes > 0
                             ? ThresholdForBudget(pst, options)
                             : std::max<uint32_t>(options.prune_threshold, 1);

  // Copy the label table so the CST is self-contained.
  for (tree::LabelId id = 0; id < data.labels().size(); ++id) {
    cst.labels_.Intern(data.labels().Name(id));
  }

  // -- Retain pt >= threshold, remapping to dense CST IDs. PST IDs are
  // topologically ordered (parents created first), and pt monotonicity
  // guarantees a retained node's parent is retained.
  const size_t sig_bytes =
      options.signature_length * options.bytes_per_signature_component;
  std::vector<CstNodeId> remap(pst.node_count(), kNoCstNode);
  cst.nodes_.push_back(Node{});  // CST root
  remap[pst.root()] = 0;
  for (PstNodeId n = 1; n < pst.node_count(); ++n) {
    if (pst.PathCount(n) < cst.prune_threshold_) continue;
    assert(remap[pst.Parent(n)] != kNoCstNode);
    Node node;
    node.symbol = pst.GetSymbol(n);
    node.parent = remap[pst.Parent(n)];
    node.depth = cst.nodes_[node.parent].depth + 1;
    node.starts_with_tag = pst.StartsWithTag(n);
    if (node.starts_with_tag) {
      node.signature_index = static_cast<uint32_t>(cst.signatures_.size());
      cst.signatures_.emplace_back(options.signature_length,
                                   sethash::kEmptyComponent);
    }
    const CstNodeId id = static_cast<CstNodeId>(cst.nodes_.size());
    remap[n] = id;
    cst.size_bytes_ +=
        options.bytes_per_node + (node.starts_with_tag ? sig_bytes : 0);
    cst.nodes_.push_back(std::move(node));
  }
  cst.child_index_ = suffix::ChildIndex::Build(
      cst.nodes_.size(), [&](size_t n) { return cst.nodes_[n].parent; },
      [&](size_t n) { return cst.nodes_[n].symbol; });

  sethash::SetHashFamily family(options.signature_length,
                                options.signature_seed);
  if (!data.empty() && cst.nodes_.size() > 1) {
    cst.AccumulateCounts(data, pst, family);
  }
  return cst;
}

namespace {

constexpr uint32_t kNoSignature = 0xffffffffu;

/// One worker's share of the count pass. C_p and C_o are integers, so
/// the partials sum exactly, in any order.
struct CountPartial {
  std::vector<uint64_t> cp;
  std::vector<uint64_t> co;
  /// Last walk root that counted toward a node's C_p. A walk never
  /// leaves its worker, so a per-worker marker dedups exactly.
  std::vector<NodeId> last_root;
  /// The walk root's L component hashes, reused across roots, and the
  /// smallest of them.
  std::vector<uint32_t> hashes;
  uint32_t min_hash = sethash::kEmptyComponent;
  /// Per signature, a bound on every component: the largest component
  /// this worker saw when it last folded into the signature. Components
  /// only fall, so the bound holds, and a root whose smallest hash is
  /// at least the bound lowers nothing.
  std::vector<uint32_t> ceiling;
};

}  // namespace

void Cst::AccumulateCounts(const Tree& data, const PathSuffixTree& pst,
                           const sethash::SetHashFamily& family) {
  const size_t length = family.length();
  const size_t block_count =
      (data.size() + kCountBlockRoots - 1) / kCountBlockRoots;
  const size_t worker_count = std::min<size_t>(
      block_count, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<CountPartial> partials(worker_count);
  for (CountPartial& p : partials) {
    p.cp.assign(nodes_.size(), 0);
    p.co.assign(nodes_.size(), 0);
    p.last_root.assign(nodes_.size(), tree::kNullNode);
    p.hashes.resize(length);
    p.ceiling.assign(signatures_.size(), sethash::kEmptyComponent);
  }

  // Counts walk roots and distinct value prefixes [block *
  // kCountBlockRoots, ...) into `worker`'s partial. Walks read nodes_
  // and child_index_ and write only the partial and, through atomic
  // min, the signatures.
  auto count_block = [&](size_t block, size_t worker) {
    CountPartial& p = partials[worker];

    // Visits a CST node during the walk rooted at data node `walk_root`.
    auto visit = [&](CstNodeId c, NodeId walk_root) {
      ++p.co[c];
      if (p.last_root[c] == walk_root) return;
      p.last_root[c] = walk_root;
      ++p.cp[c];
      const uint32_t index = nodes_[c].signature_index;
      if (index == kNoSignature || p.min_hash >= p.ceiling[index]) return;
      // Workers fold into the shared signatures by atomic min, which
      // reaches the same minima in any order. After its loop a
      // component is at most min(seen, hash), and stays so.
      uint32_t* sig = signatures_[index].data();
      uint32_t ceiling = 0;
      for (size_t i = 0; i < length; ++i) {
        std::atomic_ref<uint32_t> component(sig[i]);
        uint32_t seen = component.load(std::memory_order_relaxed);
        while (p.hashes[i] < seen &&
               !component.compare_exchange_weak(seen, p.hashes[i],
                                                std::memory_order_relaxed)) {
        }
        ceiling = std::max(ceiling, std::min(seen, p.hashes[i]));
      }
      p.ceiling[index] = ceiling;
    };

    // Extends a walk over the (capped) prefix of a value string.
    auto walk_value_prefix = [&](CstNodeId c, std::string_view value,
                                 NodeId walk_root) {
      const size_t take = std::min(value.size(), max_value_chars_);
      for (size_t i = 0; i < take; ++i) {
        c = Step(c, CharSymbol(value[i]));
        if (c == kNoCstNode) return;
        visit(c, walk_root);
      }
    };

    // Recursive walk matching the CST against the subtree below `m`,
    // all within the walk rooted at data node `walk_root`.
    auto walk = [&](auto&& self, NodeId m, CstNodeId c,
                    NodeId walk_root) -> void {
      visit(c, walk_root);
      for (NodeId ch : data.Children(m)) {
        if (data.IsValue(ch)) {
          walk_value_prefix(c, data.Value(ch), walk_root);
        } else {
          CstNodeId next = Step(c, TagSymbol(data.Label(ch)));
          if (next != kNoCstNode) self(self, ch, next, walk_root);
        }
      }
    };

    // Character-only subpaths: every (value node, offset) is a root,
    // and each (start, depth) visit is a distinct instance, so C_p and
    // C_o grow without markers. They depend only on the capped value,
    // so each distinct prefix is walked once, adding its multiplicity.
    const size_t first = block * kCountBlockRoots;
    const size_t last = first + kCountBlockRoots;
    for (size_t v = first; v < std::min(pst.value_prefix_count(), last);
         ++v) {
      const std::string_view prefix = pst.ValuePrefix(v);
      const uint64_t count = pst.ValuePrefixCount(v);
      for (size_t start = 0; start < prefix.size(); ++start) {
        CstNodeId c = root();
        for (size_t i = start; i < prefix.size(); ++i) {
          c = Step(c, CharSymbol(prefix[i]));
          if (c == kNoCstNode) break;
          p.cp[c] += count;
          p.co[c] += count;
        }
      }
    }

    for (NodeId n = static_cast<NodeId>(first); n < std::min(data.size(), last);
         ++n) {
      if (data.IsValue(n)) continue;
      // Tag-rooted subpaths: one walk rooted at element node n.
      CstNodeId c0 = Step(root(), TagSymbol(data.Label(n)));
      if (c0 == kNoCstNode) continue;
      p.min_hash = sethash::kEmptyComponent;
      for (size_t i = 0; i < length; ++i) {
        p.hashes[i] = family.Hash(i, n);
        p.min_hash = std::min(p.min_hash, p.hashes[i]);
      }
      walk(walk, n, c0, n);
    }
  };

  if (worker_count == 1) {
    for (size_t block = 0; block < block_count; ++block) {
      count_block(block, 0);
    }
  } else {
    util::ThreadPool pool(worker_count);
    pool.ParallelFor(block_count, count_block);
  }

  for (CstNodeId c = 0; c < nodes_.size(); ++c) {
    uint64_t cp = 0;
    uint64_t co = 0;
    for (const CountPartial& p : partials) {
      cp += p.cp[c];
      co += p.co[c];
    }
    nodes_[c].cp = static_cast<double>(cp);
    nodes_[c].co = static_cast<double>(co);
  }
}

Result<Cst> Cst::Materialize(const CstView& view) {
  const uint64_t errors_before = view.storage_error_count();
  Cst out;
  const size_t node_count = view.node_count();
  out.nodes_.resize(node_count);
  out.signatures_.reserve(view.signature_count());
  std::vector<uint32_t> offsets(node_count + 1, 0);
  std::vector<suffix::ChildIndex::Entry> entries;
  entries.reserve(node_count > 0 ? node_count - 1 : 0);
  std::vector<suffix::ChildIndex::Entry> children;
  sethash::Signature scratch;
  for (CstNodeId node = 0; node < node_count; ++node) {
    Node& n = out.nodes_[node];
    n.symbol = view.GetSymbol(node);
    n.parent = view.Parent(node);
    n.depth = view.Depth(node);
    n.starts_with_tag = view.StartsWithTag(node);
    n.cp = view.PresenceCount(node);
    n.co = view.OccurrenceCount(node);
    const sethash::Signature* signature = view.GetSignature(node, &scratch);
    if (signature != nullptr) {
      n.signature_index = static_cast<uint32_t>(out.signatures_.size());
      out.signatures_.push_back(*signature);
    }
    offsets[node] = static_cast<uint32_t>(entries.size());
    view.CopyChildren(node, &children);
    entries.insert(entries.end(), children.begin(), children.end());
  }
  offsets[node_count] = static_cast<uint32_t>(entries.size());
  // A degraded source yields misses, not garbage — but a Cst built
  // from misses would silently answer wrong. Refuse it.
  if (view.storage_error_count() != errors_before) {
    const Status health = view.storage_health();
    return health.ok() ? Status::Corruption("summary storage degraded "
                                            "during materialization")
                       : health;
  }
  if (!suffix::ChildIndex::FromParts(node_count, std::move(offsets),
                                     std::move(entries),
                                     &out.child_index_)) {
    return Status::Corruption("view's child index is not well-formed");
  }
  out.labels_ = view.labels();
  out.data_node_count_ = view.data_node_count();
  out.prune_threshold_ = view.prune_threshold();
  out.size_bytes_ = view.size_bytes();
  out.signature_length_ = view.signature_length();
  out.max_value_chars_ = view.max_value_chars();
  return out;
}

}  // namespace twig::cst
