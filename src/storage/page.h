// The TWCST03 page: the fixed-size, self-describing unit of disk-backed
// CST storage.
//
// A store is an array of `page_size` pages. Every page opens with a
// 24-byte header and carries its own FNV-1a checksum over the rest of
// the page, so a demand-paged reader can verify exactly the bytes it
// touches:
//
//   offset  field          meaning
//   ------  -------------  -------------------------------------------
//        0  magic   u32    kPageMagic ("TWP3")
//        4  type    u16    PageType of the payload
//        6  flags   u16    reserved, must be 0
//        8  page_id u32    this page's index in the store
//       12  payload u32    meaningful payload bytes (<= capacity)
//       16  checksum u64   FNV-1a over bytes [24, page_size)
//
// Bytes past the payload are zero (and checksummed as zeros), so a
// truncated write, a bit flip anywhere in the page, or a page served
// at the wrong index all fail validation. Page 0 is the meta page: the
// store-wide scalars plus a section directory locating the node /
// child-index / signature / string sections (cst/paged_cst.cc owns
// that layout; this header only knows about pages).

#ifndef TWIG_STORAGE_PAGE_H_
#define TWIG_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/hash.h"
#include "util/status.h"

namespace twig::storage {

/// "TWP3" in byte order: the first four bytes of every page.
inline constexpr char kPageMagicBytes[4] = {'T', 'W', 'P', '3'};

/// Default page size. 64 KiB amortizes the per-page header and
/// checksum to 0.04% while keeping a 16 MiB pool 256 frames deep.
inline constexpr size_t kDefaultPageBytes = 64 * 1024;

/// Smallest supported page: headers plus at least one node record per
/// page must fit with room to spare.
inline constexpr size_t kMinPageBytes = 256;
inline constexpr size_t kMaxPageBytes = 16 * 1024 * 1024;

/// Bytes of the page header preceding the payload.
inline constexpr size_t kPageHeaderBytes = 24;

enum class PageType : uint16_t {
  kMeta = 0,        // page 0: scalars + section directory + labels
  kNodes = 1,       // fixed-size node records
  kChildOffsets = 2,  // per-node child-span offsets (u32 each)
  kChildEntries = 3,  // sorted (symbol, child) edges (8 bytes each)
  kSignatures = 4,  // set-hash signatures (signature_length u32s each)
  kStrings = 5,     // length-prefixed label strings, streamed
};

/// "nodes", "child-offsets", ...; "unknown" for a value outside the
/// enum (a page header is outside input).
const char* PageTypeName(PageType type);

/// Decoded page header.
struct PageHeader {
  PageType type = PageType::kMeta;
  uint16_t flags = 0;
  uint32_t page_id = 0;
  uint32_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// True if `page_size` is an acceptable TWCST03 page size.
inline bool ValidPageSize(size_t page_size) {
  return page_size >= kMinPageBytes && page_size <= kMaxPageBytes &&
         (page_size & (page_size - 1)) == 0;
}

/// Payload bytes available per page.
inline size_t PageCapacity(size_t page_size) {
  return page_size - kPageHeaderBytes;
}

/// Checksum of a page's post-header bytes (zero padding included).
inline uint64_t PageChecksum(const char* page, size_t page_size) {
  return HashBytes(
      std::string_view(page + kPageHeaderBytes, page_size - kPageHeaderBytes));
}

/// Serializes `header` into the first kPageHeaderBytes of `page`.
void EncodePageHeader(const PageHeader& header, char* page);

/// Parses a page header without verifying the checksum (used to probe
/// the meta page before the page size is known).
bool DecodePageHeader(const char* page, size_t available, PageHeader* out);

/// Full validation of one page: magic, expected id, payload bound, and
/// the checksum over [kPageHeaderBytes, page_size). Returns Corruption
/// with a specific reason on any mismatch.
Status ValidatePage(const char* page, size_t page_size, uint32_t expected_id);

/// Reads the store-wide page geometry from the head of a raw TWCST03
/// byte stream (the meta page's first bytes — no checksum needed, the
/// meta page is re-validated once it is pinned through the buffer
/// pool). `bytes` needs only the first ~64 bytes of the store.
Status ProbeStoreGeometry(std::string_view bytes, uint32_t* page_size,
                          uint32_t* page_count);

/// "TWCST03" + NUL: the format magic opening the meta page's payload.
inline constexpr char kStoreMagic[8] = {'T', 'W', 'C', 'S', 'T', '0', '3',
                                        '\0'};
inline constexpr uint32_t kStoreVersion = 1;

}  // namespace twig::storage

#endif  // TWIG_STORAGE_PAGE_H_
