// Demand-paged CST reader over the TWCST03 store format, the CST's
// only serialized form (Cst::SerializePaged writes it).
//
// TWCST03 layout — everything the summary carries, arranged into
// fixed-size self-checksummed pages (storage/page.h) so a reader can
// verify and cache exactly the bytes a walk touches:
//
//   page 0 (kMeta)     store magic/version/geometry, the global
//                      scalars, and the section directory
//   kNodes             36-byte node records (symbol, parent, depth,
//                      starts_with_tag, C_p, C_o, signature index)
//   kChildOffsets      node_count+1 u32 span offsets
//   kChildEntries      node_count-1 (symbol, child) u32 pairs
//   kSignatures        signature_count records of signature_length u32s
//   kStrings           label table, length-prefixed, streamed
//
// Fixed-size records never straddle a page boundary: each section
// packs floor(capacity / record_bytes) records per page, so any record
// is decoded from a single pinned frame. Labels are the exception
// (byte stream) and are loaded eagerly at Open — they are small, hot,
// and needed for every query's tag resolution.
//
// PagedCst implements CstView by pinning pages through a
// storage::BufferManager. A store is untrusted input: Open validates
// the meta page and the labels (unique names), and every record read
// is checked before it is used — node symbols within
// suffix::kMaxSymbol, tag symbols naming a stored label, parents
// before their children, child and signature ids in range. Accessors
// degrade to a miss on IO/checksum errors and on records that fail
// those checks (kNoCstNode, zero counts, no signature) and record the
// error: storage_health() holds the first failure sticky,
// storage_error_count() counts every degraded access.
// serve::TryEstimateFailClosed snapshots the count around each
// estimate, so a degraded read fails the request instead of silently
// skewing it.

#ifndef TWIG_CST_PAGED_CST_H_
#define TWIG_CST_PAGED_CST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "cst/cst.h"
#include "cst/view.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_source.h"
#include "tree/label_table.h"

namespace twig::cst {

struct PagedCstOptions {
  /// Size of the reader's private buffer pool.
  size_t pool_bytes = 16 * 1024 * 1024;
};

class PagedCst final : public CstView {
 public:
  /// Opens a paged CST over `source`: registers it with a private
  /// buffer pool of `options.pool_bytes`, pins and parses the meta
  /// page, and eagerly loads the label table. Returns Corruption for
  /// structural problems, including a source that is not a TWCST03
  /// store.
  static Result<std::shared_ptr<PagedCst>> Open(
      std::shared_ptr<const storage::PageSource> source,
      const PagedCstOptions& options = {});

  /// Opens a .twcst03 file, read page by page into the buffer pool
  /// (NotFound/Corruption with the concrete reason, errno text
  /// included, on failure). The reader holds the file's descriptor
  /// until it is destroyed, so replacing the path does not disturb it.
  static Result<std::shared_ptr<PagedCst>> OpenFile(
      const std::string& path, const PagedCstOptions& options = {});

  ~PagedCst() override;

  // -- CstView -----------------------------------------------------------

  CstNodeId Step(CstNodeId node, suffix::Symbol symbol) const override;
  size_t CopyChildren(CstNodeId node,
                      std::vector<suffix::ChildIndex::Entry>* out)
      const override;
  double PresenceCount(CstNodeId node) const override;
  double OccurrenceCount(CstNodeId node) const override;
  bool StartsWithTag(CstNodeId node) const override;
  const sethash::Signature* GetSignature(
      CstNodeId node, sethash::Signature* scratch) const override;
  uint32_t Depth(CstNodeId node) const override;
  suffix::Symbol GetSymbol(CstNodeId node) const override;
  CstNodeId Parent(CstNodeId node) const override;

  uint64_t data_node_count() const override { return meta_.data_node_count; }
  uint32_t prune_threshold() const override { return meta_.prune_threshold; }
  size_t size_bytes() const override { return meta_.size_bytes; }
  size_t node_count() const override { return meta_.node_count; }
  size_t signature_count() const override { return meta_.signature_count; }
  size_t signature_length() const override { return meta_.signature_length; }
  size_t max_value_chars() const override { return meta_.max_value_chars; }
  const tree::LabelTable& labels() const override { return labels_; }

  Status storage_health() const override;
  uint64_t storage_error_count() const override {
    return error_count_.load(std::memory_order_relaxed);
  }

  /// The pool this CST pins through (per-pool traffic stats).
  const storage::BufferManager& buffer() const { return *buffer_; }

 private:
  /// One section's location within the store. `type` is fixed per
  /// section; every page pinned for the section must carry it.
  struct Section {
    storage::PageType type = storage::PageType::kMeta;
    uint32_t first_page = 0;
    uint32_t page_count = 0;
    uint32_t record_bytes = 0;
    uint32_t records_per_page = 0;
  };

  struct Meta {
    uint64_t data_node_count = 0;
    uint32_t prune_threshold = 1;
    uint64_t size_bytes = 0;
    uint64_t signature_length = 0;
    uint64_t max_value_chars = 0;
    uint32_t node_count = 0;
    uint32_t signature_count = 0;
    uint32_t label_count = 0;
    Section nodes{storage::PageType::kNodes};
    Section child_offsets{storage::PageType::kChildOffsets};
    Section child_entries{storage::PageType::kChildEntries};
    Section signatures{storage::PageType::kSignatures};
    Section strings{storage::PageType::kStrings};
  };

  /// The decoded fixed fields of one node record.
  struct NodeRecord {
    suffix::Symbol symbol = 0;
    CstNodeId parent = kNoCstNode;
    uint32_t depth = 0;
    bool starts_with_tag = false;
    double cp = 0;
    double co = 0;
    uint32_t signature_index = 0xffffffffu;
  };

  PagedCst() = default;

  Status ParseMeta(std::string_view payload, uint32_t payload_bytes);
  Status LoadLabels();

  /// Pins the page holding record `index` of `section` and returns the
  /// record's bytes via `pin` + pointer. Null on any storage error,
  /// including a page of another section's type (recorded).
  const char* PinRecord(const Section& section, uint64_t index,
                        storage::PinnedPage* pin) const;
  /// Decodes node record `node` and checks it (see the header comment).
  /// False, with the error recorded, when the read or a check fails.
  bool ReadNode(CstNodeId node, NodeRecord* out) const;
  bool ReadOffsets(CstNodeId node, uint32_t* lo, uint32_t* hi) const;
  void RecordError(const Status& status) const;

  std::shared_ptr<storage::BufferManager> buffer_;
  std::shared_ptr<const storage::PageSource> source_;
  uint64_t source_id_ = 0;
  Meta meta_;
  tree::LabelTable labels_;

  mutable std::atomic<uint64_t> error_count_{0};
  mutable std::mutex error_mutex_;
  mutable Status first_error_;  // guarded by error_mutex_
};

}  // namespace twig::cst

#endif  // TWIG_CST_PAGED_CST_H_
