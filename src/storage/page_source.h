// Where pages come from. A PageSource hands raw page bytes to the
// BufferManager, which owns validation (checksums), caching, and
// eviction; sources stay dumb and stateless beyond their backing
// bytes. Two implementations:
//
//   BlobPageSource — pages served out of an in-memory string. Used by
//     tests and bench_storage, which never touch disk.
//   FilePageSource — a .twcst03 file read with pread(2), each page
//     straight into the buffer-pool frame that asked for it. The pool
//     is the only copy of the store the process holds; the kernel's
//     page cache still serves cold reads, shared across processes and
//     re-opens, but is not charged to the reader.
//
// Both verify at Open that the byte stream is exactly as long as the
// geometry the meta page declares, so a truncated store fails fast
// instead of at some later pin, and a store with trailing bytes is
// refused.

#ifndef TWIG_STORAGE_PAGE_SOURCE_H_
#define TWIG_STORAGE_PAGE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace twig::storage {

class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Copies page `page_id`'s raw bytes (header included) into `out`,
  /// which has room for page_size() bytes. No checksum verification —
  /// the buffer manager does that once per load, not once per read.
  virtual Status ReadPage(uint32_t page_id, char* out) const = 0;

  uint32_t page_size() const { return page_size_; }
  uint32_t page_count() const { return page_count_; }

  /// Human-readable origin ("<memory>" or a file path) for errors.
  const std::string& name() const { return name_; }

 protected:
  PageSource(std::string name, uint32_t page_size, uint32_t page_count)
      : name_(std::move(name)),
        page_size_(page_size),
        page_count_(page_count) {}

  std::string name_;
  uint32_t page_size_ = 0;
  uint32_t page_count_ = 0;
};

/// Serves pages from a string owned by the source.
class BlobPageSource : public PageSource {
 public:
  static Result<std::unique_ptr<BlobPageSource>> Open(std::string blob,
                                                      std::string name);

  Status ReadPage(uint32_t page_id, char* out) const override;

 private:
  BlobPageSource(std::string blob, std::string name, uint32_t page_size,
                 uint32_t page_count);

  std::string blob_;
};

/// Serves pages from a store file through its descriptor, which the
/// source owns for its lifetime: a reader keeps the file it opened
/// even after the path is replaced. Open errors carry errno text so an
/// unreadable path surfaces a concrete reason (a failed swap reports
/// it via health). A store truncated under an open source fails the
/// pins past its new end with Corruption.
class FilePageSource : public PageSource {
 public:
  static Result<std::unique_ptr<FilePageSource>> Open(
      const std::string& path);

  ~FilePageSource() override;
  FilePageSource(const FilePageSource&) = delete;
  FilePageSource& operator=(const FilePageSource&) = delete;

  /// Concurrent reads share the descriptor without a lock (pread(2)
  /// takes its offset as an argument).
  Status ReadPage(uint32_t page_id, char* out) const override;

 private:
  FilePageSource(std::string path, int fd);

  int fd_ = -1;
};

/// Validates the byte-stream geometry shared by both sources: probes
/// the meta prefix, checks `total_bytes` is exactly page_size *
/// page_count (a short stream is truncated; trailing bytes are not part
/// of any page, so a longer one is not a store either).
Status CheckStoreGeometry(std::string_view head, size_t total_bytes,
                          const std::string& name, uint32_t* page_size,
                          uint32_t* page_count);

}  // namespace twig::storage

#endif  // TWIG_STORAGE_PAGE_SOURCE_H_
