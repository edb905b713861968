#include "storage/page_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/page.h"

namespace twig::storage {

Status CheckStoreGeometry(std::string_view head, size_t total_bytes,
                          const std::string& name, uint32_t* page_size,
                          uint32_t* page_count) {
  Status probe = ProbeStoreGeometry(head, page_size, page_count);
  if (!probe.ok()) {
    return Status::Corruption(name + ": " + std::string(probe.message()));
  }
  const uint64_t need =
      static_cast<uint64_t>(*page_size) * static_cast<uint64_t>(*page_count);
  if (total_bytes < need) {
    return Status::Corruption(
        name + ": store truncated (" + std::to_string(total_bytes) +
        " bytes, geometry needs " + std::to_string(need) + ")");
  }
  if (total_bytes > need) {
    return Status::Corruption(
        name + ": trailing bytes after the last page (" +
        std::to_string(total_bytes) + " bytes, geometry needs " +
        std::to_string(need) + ")");
  }
  return Status::OK();
}

// ---------------------------------------------------------------- blob

BlobPageSource::BlobPageSource(std::string blob, std::string name,
                               uint32_t page_size, uint32_t page_count)
    : PageSource(std::move(name), page_size, page_count),
      blob_(std::move(blob)) {}

Result<std::unique_ptr<BlobPageSource>> BlobPageSource::Open(
    std::string blob, std::string name) {
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  Status geometry =
      CheckStoreGeometry(blob, blob.size(), name, &page_size, &page_count);
  if (!geometry.ok()) return geometry;
  return std::unique_ptr<BlobPageSource>(new BlobPageSource(
      std::move(blob), std::move(name), page_size, page_count));
}

Status BlobPageSource::ReadPage(uint32_t page_id, char* out) const {
  if (page_id >= page_count_) {
    return Status::InvalidArgument(name_ + ": page " +
                                   std::to_string(page_id) + " out of range");
  }
  std::memcpy(out, blob_.data() + static_cast<size_t>(page_id) * page_size_,
              page_size_);
  return Status::OK();
}

// ---------------------------------------------------------------- file

namespace {

/// Reads up to `bytes` at `offset`, riding out EINTR and short counts.
/// Returns the bytes read, fewer only at end of file, or -1 with errno
/// set.
ssize_t PreadFully(int fd, char* out, size_t bytes, uint64_t offset) {
  size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::pread(fd, out + got, bytes - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return -1;
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

FilePageSource::FilePageSource(std::string path, int fd)
    : PageSource(std::move(path), 0, 0), fd_(fd) {}

FilePageSource::~FilePageSource() { ::close(fd_); }

Result<std::unique_ptr<FilePageSource>> FilePageSource::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(path + ": open failed: " +
                            std::strerror(errno));
  }
  // Owned from here: every early return below closes the descriptor.
  std::unique_ptr<FilePageSource> source(new FilePageSource(path, fd));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Status::Internal(path + ": fstat failed: " +
                            std::strerror(errno));
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument(path + ": " + std::strerror(EISDIR));
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument(path + ": not a regular file");
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  if (bytes == 0) return Status::Corruption(path + ": empty store file");
  char head[kMinPageBytes];
  const ssize_t got =
      PreadFully(fd, head, std::min(bytes, sizeof(head)), 0);
  if (got < 0) {
    return Status::Unavailable(path + ": read failed: " +
                               std::strerror(errno));
  }
  Status geometry = CheckStoreGeometry(
      std::string_view(head, static_cast<size_t>(got)), bytes, path,
      &source->page_size_, &source->page_count_);
  if (!geometry.ok()) return geometry;
  return source;
}

Status FilePageSource::ReadPage(uint32_t page_id, char* out) const {
  if (page_id >= page_count_) {
    return Status::InvalidArgument(name_ + ": page " +
                                   std::to_string(page_id) + " out of range");
  }
  const ssize_t got = PreadFully(fd_, out, page_size_,
                                 static_cast<uint64_t>(page_id) * page_size_);
  if (got < 0) {
    return Status::Unavailable(name_ + ": page " + std::to_string(page_id) +
                               ": read failed: " + std::strerror(errno));
  }
  if (static_cast<size_t>(got) < page_size_) {
    return Status::Corruption(name_ + ": page " + std::to_string(page_id) +
                              ": store truncated");
  }
  return Status::OK();
}

}  // namespace twig::storage
