// A bounded pool of validated page frames shared by every paged CST in
// the process. Callers Pin a (source, page) pair and receive an RAII
// handle; while any handle is live the frame's bytes are immovable.
// Unpinned frames stay cached and are recycled by a clock
// (second-chance) sweep when the pool is full, so resident page memory
// is bounded by the pool size regardless of store size.
//
// Concurrency protocol (the tsan suite hammers exactly these edges):
//   * The page table is lock-striped: key -> frame lives in one of
//     kShards maps, each behind its own mutex. Pins take only that
//     shard's lock on the hit path.
//   * pin_count is incremented ONLY under the owning shard's mutex and
//     decremented lock-free. The evictor inspects pin_count while
//     holding both the pool mutex and the frame's shard mutex, so a
//     0 it observes cannot concurrently become 1 (increments need the
//     shard lock it holds); a stale 1 merely skips an evictable frame.
//   * Lock order is pool mutex -> shard mutex, never the reverse. A
//     miss therefore releases the shard lock, reserves a frame under
//     the pool mutex, then re-locks the shard and double-checks — if
//     another thread inserted meanwhile, the reserved frame goes back
//     to the free list and the pin retries as a hit.
//   * Page IO and checksum validation run with NO locks held. The
//     in-flight frame sits in the table in the kLoading state and
//     concurrent pins of the same page wait on the shard's condvar.
//   * Failed loads are not cached: the loader erases the entry and
//     frees the frame before signalling, so waiters retry the load
//     themselves (and recover as soon as the failpoint or IO error
//     clears).
//
// Pool exhaustion (every frame pinned, two full clock sweeps finding
// nothing) is a load-shedding condition, not a deadlock: Pin returns
// Unavailable and the caller degrades the same way the serving layer
// degrades on a full queue.

#ifndef TWIG_STORAGE_BUFFER_MANAGER_H_
#define TWIG_STORAGE_BUFFER_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/page_source.h"
#include "util/status.h"

namespace twig::storage {

class BufferManager;

/// RAII pin on one validated page. While live, the page's bytes are
/// stable; destruction unpins (lock-free). Movable, not copyable.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(PinnedPage&& other) noexcept { *this = std::move(other); }
  PinnedPage& operator=(PinnedPage&& other) noexcept;
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  ~PinnedPage() { Release(); }

  explicit operator bool() const { return frame_ != nullptr; }

  /// The page's payload (past the header); valid while pinned.
  const char* payload() const;
  uint32_t payload_bytes() const;
  /// The payload's record type, from the validated page header.
  PageType type() const;

  void Release();

 private:
  friend class BufferManager;
  PinnedPage(BufferManager* manager, void* frame)
      : manager_(manager), frame_(frame) {}

  BufferManager* manager_ = nullptr;
  void* frame_ = nullptr;
};

class BufferManager {
 public:
  /// Pool totals since construction (obs counters aggregate the same
  /// events process-wide; these are per-pool for tests and the paged
  /// CST's own accounting).
  struct Stats {
    uint64_t pins = 0;        // successful Pin calls
    uint64_t reads = 0;       // loads that went to the PageSource
    uint64_t evictions = 0;   // frames recycled by the clock
    uint64_t checksum_failures = 0;  // pages failing validation
    uint64_t exhausted = 0;   // pins refused: no evictable frame
  };

  /// A pool of floor(pool_bytes / page_size) frames (at least two, so
  /// a meta page and a data page can be pinned simultaneously).
  BufferManager(size_t pool_bytes, uint32_t page_size);
  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers a source and returns its pool-unique id (unique for the
  /// process lifetime — ids are never reused, so a stale id after
  /// DropSource cannot alias a newer source). The source's page size
  /// must match the pool's.
  Result<uint64_t> RegisterSource(std::shared_ptr<const PageSource> source);

  /// Forgets the source and frees its unpinned cached frames. Pinned
  /// and in-flight frames survive (their bytes are copies) and age out
  /// through the clock; subsequent pins of this id fail NotFound.
  void DropSource(uint64_t source_id);

  /// Pins page `page_id` of source `source_id`, loading and validating
  /// it if not cached. Errors: NotFound (unknown source),
  /// InvalidArgument (page out of range), Corruption (checksum or
  /// structural failure, counted), Unavailable (pool exhausted or
  /// injected fault).
  Result<PinnedPage> Pin(uint64_t source_id, uint32_t page_id);

  uint32_t page_size() const { return page_size_; }
  size_t frame_count() const { return frames_.size(); }
  Stats stats() const;

 private:
  friend class PinnedPage;

  enum class FrameState : uint8_t { kFree, kLoading, kReady };

  struct Frame {
    std::string data;  // page_size bytes once loaded
    uint64_t source_id = 0;
    uint32_t page_id = 0;
    uint32_t payload_bytes = 0;
    PageType type = PageType::kMeta;
    FrameState state = FrameState::kFree;  // guarded by owning shard
    std::atomic<uint32_t> pin_count{0};
    std::atomic<bool> referenced{false};  // clock's second chance
  };

  struct PageKey {
    uint64_t source_id;
    uint32_t page_id;
    bool operator==(const PageKey& o) const {
      return source_id == o.source_id && page_id == o.page_id;
    }
  };
  struct PageKeyHash {
    size_t operator()(const PageKey& k) const;
  };

  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;  // signalled when a load settles
    std::unordered_map<PageKey, Frame*, PageKeyHash> map;
  };

  Shard& ShardFor(const PageKey& key);
  /// Reserves a frame for `for_key` under the pool mutex: free list
  /// first, then the clock sweep. nullptr after two full sweeps find
  /// nothing unpinned. The frame's key fields are assigned here (only
  /// ever under the pool mutex) so the clock can read them untorn.
  Frame* ReserveFrame(const PageKey& for_key);
  /// Loads + validates into `frame` with no locks held.
  Status LoadFrame(const std::shared_ptr<const PageSource>& source,
                   uint32_t page_id, Frame* frame);
  void Unpin(Frame* frame);

  const uint32_t page_size_;

  mutable std::mutex pool_mutex_;  // frames_ free list, clock hand, sources
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<Frame*> free_frames_;
  size_t clock_hand_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<const PageSource>> sources_;
  uint64_t next_source_id_ = 1;

  std::array<Shard, kShards> shards_;

  std::atomic<uint64_t> pins_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> exhausted_{0};
};

}  // namespace twig::storage

#endif  // TWIG_STORAGE_BUFFER_MANAGER_H_
