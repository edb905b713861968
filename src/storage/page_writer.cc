#include "storage/page_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace twig::storage {

PageWriter::PageWriter(uint32_t page_size) : page_size_(page_size) {
  assert(ValidPageSize(page_size));
}

void PageWriter::Seal(uint32_t id, uint32_t payload_bytes) {
  char* page = PageAt(id);
  PageHeader header;
  header.type = types_[id];
  header.page_id = id;
  header.payload_bytes = payload_bytes;
  header.checksum = PageChecksum(page, page_size_);
  EncodePageHeader(header, page);
}

uint32_t PageWriter::BeginPage(PageType type) {
  if (open_) {
    Seal(page_count() - 1, static_cast<uint32_t>(payload_used_));
  }
  const uint32_t id = page_count();
  types_.push_back(type);
  blob_.resize(blob_.size() + page_size_, '\0');
  payload_used_ = 0;
  open_ = true;
  return id;
}

size_t PageWriter::remaining() const {
  return open_ ? PageCapacity(page_size_) - payload_used_ : 0;
}

void PageWriter::Append(const void* data, size_t bytes) {
  assert(open_ && bytes <= remaining());
  char* page = PageAt(page_count() - 1);
  std::memcpy(page + kPageHeaderBytes + payload_used_, data, bytes);
  payload_used_ += bytes;
}

uint32_t PageWriter::EnsureRoom(PageType type, size_t bytes) {
  assert(bytes <= PageCapacity(page_size_));
  if (!open_ || types_.back() != type || remaining() < bytes) {
    return BeginPage(type);
  }
  return page_count() - 1;
}

void PageWriter::AppendSpill(PageType type, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    if (!open_ || types_.back() != type || remaining() == 0) {
      BeginPage(type);
    }
    const size_t take = bytes < remaining() ? bytes : remaining();
    Append(p, take);
    p += take;
    bytes -= take;
  }
}

void PageWriter::OverwritePage(uint32_t id, const void* payload,
                               size_t bytes) {
  assert(id < page_count() && bytes <= PageCapacity(page_size_));
  // Patching the page in progress just resets its payload; Finish
  // re-seals it identically.
  if (open_ && id == page_count() - 1) payload_used_ = bytes;
  char* page = PageAt(id);
  std::memset(page + kPageHeaderBytes, 0, PageCapacity(page_size_));
  std::memcpy(page + kPageHeaderBytes, payload, bytes);
  Seal(id, static_cast<uint32_t>(bytes));
}

std::string PageWriter::Finish() {
  if (open_) {
    Seal(page_count() - 1, static_cast<uint32_t>(payload_used_));
    open_ = false;
  }
  return std::move(blob_);
}

Status WriteStoreFile(const std::string& path, std::string_view bytes) {
  // pid + a process-wide counter keeps concurrent writers, in this
  // process or another, off each other's temporary files; O_EXCL
  // refuses a leftover of the same name, and the next name is tried.
  static std::atomic<uint64_t> sequence{0};
  std::string temp;
  int fd = -1;
  for (int attempt = 0; fd < 0; ++attempt) {
    temp = path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(sequence.fetch_add(1));
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0 && (errno != EEXIST || attempt == 99)) {
      return Status::Internal(path + ": cannot create " + temp + ": " +
                              std::strerror(errno));
    }
  }
  auto fail = [&](const char* what) {
    Status out = Status::Internal(path + ": " + what + " " + temp +
                                  " failed: " + std::strerror(errno));
    if (fd >= 0) ::close(fd);
    ::unlink(temp.c_str());
    return out;
  };
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return fail("write to");
    done += static_cast<size_t>(n);
  }
  // Synced before the rename, so a crash leaves the old store or the
  // whole new one at `path`, never a hole.
  if (::fsync(fd) != 0) return fail("fsync of");
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) return fail("close of");
  if (::rename(temp.c_str(), path.c_str()) != 0) return fail("rename of");
  return Status::OK();
}

}  // namespace twig::storage
