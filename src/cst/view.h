// The abstract CST lookup surface.
//
// Estimation (src/core/) only ever *reads* a summary: longest-match
// walks, child fan-outs, per-node counts, signatures, and a handful of
// global scalars. CstView names exactly that surface so two storage
// strategies can sit behind one estimator:
//
//   * cst::Cst       — the fully materialized in-memory summary
//                      (vectors of nodes, a flat child index, a
//                      signature pool);
//   * cst::PagedCst  — a demand-paged reader over a TWCST03 store,
//                      pinning 64 KiB pages through a bounded
//                      storage::BufferManager as the walk touches them.
//
// Two interface choices exist purely because pages can be *evicted*:
//
//   * GetSignature takes a caller-provided scratch signature. The
//     in-memory summary ignores it and returns a pointer into its
//     pool; the paged reader fills the scratch (the pinned page may be
//     gone by the time the caller dereferences) and returns it.
//     Callers that collect several signatures before use must keep one
//     scratch object alive per signature (see Combiner::SubpathsCount).
//   * Children are copied out (CopyChildren) instead of returned as a
//     span into backing storage, for the same lifetime reason. The
//     frontier walker reuses one buffer across steps, so the copy does
//     not allocate in steady state.
//
// Reads never fail loudly mid-walk: a paged implementation that hits
// an IO or checksum error, or a record that fails its checks,
// degrades the failing access to a miss (kNoCstNode / zero counts / no
// signature) and records the error; callers that need the
// no-silent-wrong-answer contract check storage_error_count() around
// an estimate (serve::TryEstimateFailClosed does, and fails the request
// instead of returning a poisoned number).

#ifndef TWIG_CST_VIEW_H_
#define TWIG_CST_VIEW_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sethash/sethash.h"
#include "suffix/child_index.h"
#include "suffix/symbol.h"
#include "tree/label_table.h"
#include "util/status.h"

namespace twig::cst {

/// Index of a node in the CST. Node 0 is the root (empty subpath).
using CstNodeId = uint32_t;

inline constexpr CstNodeId kNoCstNode = 0xffffffffu;

/// Read-only summary surface shared by the in-memory and paged CSTs.
class CstView {
 public:
  virtual ~CstView() = default;

  // -- Navigation --------------------------------------------------------

  CstNodeId root() const { return 0; }

  /// Child of `node` along `symbol`, or kNoCstNode. Out-of-range
  /// symbols (> suffix::kMaxSymbol, including kUnknownSymbol) never
  /// match.
  virtual CstNodeId Step(CstNodeId node, suffix::Symbol symbol) const = 0;

  /// Deepest CST node matching a prefix of symbols[start..), plus the
  /// number of symbols matched (0 means symbols[start] has no CST node).
  struct Match {
    CstNodeId node = kNoCstNode;
    size_t length = 0;
  };
  virtual Match LongestMatch(std::span<const suffix::Symbol> symbols,
                             size_t start) const;

  /// Copies all child edges of `node` (sorted by symbol) into `*out`,
  /// replacing its contents, and returns the edge count. A copy rather
  /// than a span: a paged implementation's backing page may be evicted
  /// once the accessor returns.
  virtual size_t CopyChildren(
      CstNodeId node, std::vector<suffix::ChildIndex::Entry>* out) const = 0;

  // -- Per-node statistics ------------------------------------------------

  /// Presence count C_p of the node's subpath.
  virtual double PresenceCount(CstNodeId node) const = 0;

  /// Occurrence count C_o of the node's subpath.
  virtual double OccurrenceCount(CstNodeId node) const = 0;

  /// True if the node's subpath begins with a tag; exactly these nodes
  /// carry signatures.
  virtual bool StartsWithTag(CstNodeId node) const = 0;

  /// Set-hash signature of the node's rooting set, or nullptr for
  /// character-only subpaths. `scratch` must outlive every use of the
  /// returned pointer: the in-memory summary ignores it, the paged
  /// reader copies the signature into it and returns &*scratch.
  virtual const sethash::Signature* GetSignature(
      CstNodeId node, sethash::Signature* scratch) const = 0;

  virtual uint32_t Depth(CstNodeId node) const = 0;
  virtual suffix::Symbol GetSymbol(CstNodeId node) const = 0;
  virtual CstNodeId Parent(CstNodeId node) const = 0;

  /// Renders the node's full subpath for diagnostics and explain
  /// traces ("book.author.Su"). The root renders as "". It follows
  /// parent links rather than trusting Depth(), so a paged view whose
  /// reads fail mid-walk renders the part it could read.
  std::string DescribeSubpath(CstNodeId node) const;

  // -- Global statistics ---------------------------------------------------

  /// Number of nodes in the data tree (the paper's normalizer for
  /// Pr(subpath) = C(subpath) / N).
  virtual uint64_t data_node_count() const = 0;

  /// The prune threshold actually applied (pt >= threshold retained).
  virtual uint32_t prune_threshold() const = 0;

  /// Retained size under the construction cost model.
  virtual size_t size_bytes() const = 0;

  virtual size_t node_count() const = 0;
  virtual size_t signature_count() const = 0;
  virtual size_t signature_length() const = 0;
  virtual size_t max_value_chars() const = 0;

  // -- Storage health ------------------------------------------------------

  /// OK for in-memory summaries. A paged implementation reports the
  /// first IO / checksum error its accessors degraded on (accessors
  /// return misses rather than throwing; see the header comment).
  virtual Status storage_health() const { return Status::OK(); }

  /// Number of degraded page accesses so far (0 for in-memory
  /// summaries). Callers snapshot this around an estimate to detect
  /// whether any lookup silently degraded to a miss.
  virtual uint64_t storage_error_count() const { return 0; }

  // -- Label mapping --------------------------------------------------------

  /// Symbol for a query tag name, or the kUnknownSymbol sentinel if the
  /// tag never occurs in the data (no CST node can match it).
  suffix::Symbol TagSymbolFor(std::string_view tag) const {
    tree::LabelId id = labels().Find(tag);
    return id == tree::kInvalidLabel ? kUnknownSymbol : suffix::TagSymbol(id);
  }

  /// A symbol value that is guaranteed to match no CST child.
  static constexpr suffix::Symbol kUnknownSymbol = 0xffffffffu;

  virtual const tree::LabelTable& labels() const = 0;
};

}  // namespace twig::cst

#endif  // TWIG_CST_VIEW_H_
