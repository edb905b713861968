// Streaming TWCST03 page builder. The writer grows an in-memory blob
// one sealed page at a time: callers open a page, append payload bytes
// into it, and the writer stamps the header and per-page checksum when
// the page closes. Page 0 (the meta page) is typically reserved first
// and patched at the end, once the section directory and page count
// are known — OverwritePage re-seals it with a fresh checksum.
//
// Fixed-size records must not straddle pages (the paged reader decodes
// a record from a single pinned frame); EnsureRoom rolls to a new page
// of the same type when the current one cannot fit the next record.

#ifndef TWIG_STORAGE_PAGE_WRITER_H_
#define TWIG_STORAGE_PAGE_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace twig::storage {

class PageWriter {
 public:
  explicit PageWriter(uint32_t page_size);

  uint32_t page_size() const { return page_size_; }

  /// Pages opened so far (including the one in progress).
  uint32_t page_count() const {
    return static_cast<uint32_t>(types_.size());
  }

  /// Seals the page in progress (if any) and opens a new one of
  /// `type`. Returns the new page's id.
  uint32_t BeginPage(PageType type);

  /// Payload bytes still free in the page in progress.
  size_t remaining() const;

  /// Appends `bytes` payload bytes to the page in progress; they must
  /// fit (callers size records via EnsureRoom first).
  void Append(const void* data, size_t bytes);

  /// Opens a new page of `type` unless the current page is of that
  /// type with at least `bytes` free. Returns the current page id.
  uint32_t EnsureRoom(PageType type, size_t bytes);

  /// Appends `bytes` to pages of `type`, splitting across page
  /// boundaries freely (for byte-stream sections like label strings).
  void AppendSpill(PageType type, const void* data, size_t bytes);

  /// Replaces page `id`'s payload (an already-sealed page — the meta
  /// patch) and re-seals it. `bytes` must fit the page capacity.
  void OverwritePage(uint32_t id, const void* payload, size_t bytes);

  /// Seals the page in progress and returns the finished store bytes.
  /// The writer is spent afterwards.
  std::string Finish();

 private:
  char* PageAt(uint32_t id) {
    return blob_.data() + static_cast<size_t>(id) * page_size_;
  }
  void Seal(uint32_t id, uint32_t payload_bytes);

  const uint32_t page_size_;
  std::string blob_;
  std::vector<PageType> types_;   // per opened page
  bool open_ = false;             // a page is in progress
  size_t payload_used_ = 0;       // of the page in progress
};

/// Replaces the file at `path` with `bytes`: writes them to a uniquely
/// named temporary file beside `path`, syncs it, and renames it over
/// `path`. A reader that has the old file open keeps reading the old
/// bytes, and `path` never holds a partly written file. On failure the
/// temporary file is removed and `path` is left as it was.
Status WriteStoreFile(const std::string& path, std::string_view bytes);

}  // namespace twig::storage

#endif  // TWIG_STORAGE_PAGE_WRITER_H_
