#include "storage/buffer_manager.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/hash.h"

namespace twig::storage {

// ---------------------------------------------------------- PinnedPage

PinnedPage& PinnedPage::operator=(PinnedPage&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    frame_ = other.frame_;
    other.manager_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

void PinnedPage::Release() {
  if (frame_ != nullptr) {
    manager_->Unpin(static_cast<BufferManager::Frame*>(frame_));
    manager_ = nullptr;
    frame_ = nullptr;
  }
}

const char* PinnedPage::payload() const {
  return static_cast<const BufferManager::Frame*>(frame_)->data.data() +
         kPageHeaderBytes;
}

uint32_t PinnedPage::payload_bytes() const {
  return static_cast<const BufferManager::Frame*>(frame_)->payload_bytes;
}

PageType PinnedPage::type() const {
  return static_cast<const BufferManager::Frame*>(frame_)->type;
}

// ------------------------------------------------------- BufferManager

size_t BufferManager::PageKeyHash::operator()(const PageKey& k) const {
  return static_cast<size_t>(
      HashCombine(k.source_id, Mix64(k.page_id)));
}

BufferManager::BufferManager(size_t pool_bytes, uint32_t page_size)
    : page_size_(page_size) {
  const size_t count = std::max<size_t>(2, pool_bytes / page_size);
  frames_.reserve(count);
  free_frames_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    free_frames_.push_back(frames_.back().get());
  }
}

BufferManager::~BufferManager() = default;

BufferManager::Shard& BufferManager::ShardFor(const PageKey& key) {
  return shards_[PageKeyHash{}(key) % kShards];
}

Result<uint64_t> BufferManager::RegisterSource(
    std::shared_ptr<const PageSource> source) {
  if (source == nullptr) {
    return Status::InvalidArgument("null page source");
  }
  if (source->page_size() != page_size_) {
    return Status::InvalidArgument(
        source->name() + ": page size " +
        std::to_string(source->page_size()) + " does not match pool's " +
        std::to_string(page_size_));
  }
  std::lock_guard<std::mutex> lock(pool_mutex_);
  const uint64_t id = next_source_id_++;
  sources_.emplace(id, std::move(source));
  return id;
}

void BufferManager::DropSource(uint64_t source_id) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    sources_.erase(source_id);
  }
  // Sweep each shard for this source's unpinned, settled frames. The
  // frames collected here are out of every map, so pushing them onto
  // the free list afterwards (pool lock, respecting pool -> shard
  // order) races with nothing.
  std::vector<Frame*> reclaimed;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      Frame* frame = it->second;
      if (it->first.source_id == source_id &&
          frame->state == FrameState::kReady &&
          frame->pin_count.load(std::memory_order_acquire) == 0) {
        frame->state = FrameState::kFree;
        reclaimed.push_back(frame);
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (!reclaimed.empty()) {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    free_frames_.insert(free_frames_.end(), reclaimed.begin(),
                        reclaimed.end());
  }
}

BufferManager::Frame* BufferManager::ReserveFrame(const PageKey& for_key) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  // A frame's key fields are written only here, under the pool mutex,
  // while the frame is in no shard map; the clock below reads them
  // under the same mutex, so they are never torn.
  auto claim = [&](Frame* frame) {
    frame->source_id = for_key.source_id;
    frame->page_id = for_key.page_id;
    return frame;
  };
  if (!free_frames_.empty()) {
    Frame* frame = free_frames_.back();
    free_frames_.pop_back();
    return claim(frame);
  }
  // Clock sweep. First pass clears second-chance bits, second pass
  // takes the first frame still unpinned; beyond that everything is
  // pinned or in flight and the pool is genuinely exhausted. The
  // acquire pin_count load pairs with Unpin's release decrement so the
  // last reader's accesses happen-before this tenancy's overwrite.
  const size_t budget = 2 * frames_.size();
  for (size_t step = 0; step < budget; ++step) {
    Frame* frame = frames_[clock_hand_].get();
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    const PageKey key{frame->source_id, frame->page_id};
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> shard_lock(shard.mutex);
    if (frame->state != FrameState::kReady ||
        frame->pin_count.load(std::memory_order_acquire) != 0) {
      continue;
    }
    if (frame->referenced.exchange(false, std::memory_order_relaxed)) {
      continue;  // second chance
    }
    shard.map.erase(key);
    frame->state = FrameState::kFree;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::CountEvent(obs::Counter::kStoragePageEvictions);
    return claim(frame);
  }
  return nullptr;
}

Status BufferManager::LoadFrame(
    const std::shared_ptr<const PageSource>& source, uint32_t page_id,
    Frame* frame) {
  Status injected = util::FailpointCheck("storage/read");
  if (!injected.ok()) return injected;
  frame->data.resize(page_size_);
  Status read = source->ReadPage(page_id, frame->data.data());
  if (!read.ok()) return read;
  reads_.fetch_add(1, std::memory_order_relaxed);
  obs::CountEvent(obs::Counter::kStoragePageReads);
  Status valid = Status::OK();
  if (!util::FailpointCheck("storage/checksum").ok()) {
    // The injected flavor of a bad page: same structured Corruption a
    // real bit flip would produce, so callers cannot tell them apart.
    valid = Status::Corruption(source->name() + ": page " +
                               std::to_string(page_id) +
                               ": checksum mismatch (injected)");
  } else {
    valid = ValidatePage(frame->data.data(), page_size_, page_id);
  }
  if (!valid.ok()) {
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::CountEvent(obs::Counter::kStorageChecksumFailures);
    return valid;
  }
  PageHeader header;
  DecodePageHeader(frame->data.data(), page_size_, &header);
  frame->payload_bytes = header.payload_bytes;
  frame->type = header.type;
  return Status::OK();
}

Result<PinnedPage> BufferManager::Pin(uint64_t source_id, uint32_t page_id) {
  const PageKey key{source_id, page_id};
  Shard& shard = ShardFor(key);
  for (;;) {
    // Hit path: one shard lock.
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      for (;;) {
        auto it = shard.map.find(key);
        if (it == shard.map.end()) break;
        Frame* frame = it->second;
        if (frame->state == FrameState::kLoading) {
          shard.cv.wait(lock);
          continue;  // settled: either kReady now or erased (retry)
        }
        frame->pin_count.fetch_add(1, std::memory_order_relaxed);
        frame->referenced.store(true, std::memory_order_relaxed);
        pins_.fetch_add(1, std::memory_order_relaxed);
        obs::CountEvent(obs::Counter::kStoragePagePins);
        return PinnedPage(this, frame);
      }
    }

    // Miss: look the source up and bounds-check before spending a
    // frame on it.
    std::shared_ptr<const PageSource> source;
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      auto it = sources_.find(source_id);
      if (it != sources_.end()) source = it->second;
    }
    if (source == nullptr) {
      return Status::NotFound("unknown page source " +
                              std::to_string(source_id));
    }
    if (page_id >= source->page_count()) {
      return Status::InvalidArgument(
          source->name() + ": page " + std::to_string(page_id) +
          " out of range (store has " +
          std::to_string(source->page_count()) + ")");
    }

    Frame* frame = ReserveFrame(key);
    if (frame == nullptr) {
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "buffer pool exhausted: all " + std::to_string(frames_.size()) +
          " frames pinned");
    }

    // Claim the table slot in the kLoading state (pre-pinned so the
    // clock skips it). If another thread claimed it while the shard
    // lock was dropped, return the frame and retry as a hit/waiter.
    // The frame is returned to the free list only after the shard lock
    // is released (lock order is pool -> shard, never the reverse).
    bool lost_race = false;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.map.find(key) != shard.map.end()) {
        lost_race = true;
      } else {
        frame->state = FrameState::kLoading;
        frame->pin_count.store(1, std::memory_order_relaxed);
        shard.map.emplace(key, frame);
      }
    }
    if (lost_race) {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      free_frames_.push_back(frame);
      continue;
    }

    // IO + validation with no locks held.
    Status loaded = LoadFrame(source, page_id, frame);

    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (loaded.ok()) {
        frame->state = FrameState::kReady;
        frame->referenced.store(true, std::memory_order_relaxed);
      } else {
        // Do not cache failures: erase so waiters (and later pins)
        // retry the load once the cause clears.
        shard.map.erase(key);
        frame->state = FrameState::kFree;
        frame->pin_count.store(0, std::memory_order_relaxed);
      }
      shard.cv.notify_all();
    }
    if (loaded.ok()) {
      pins_.fetch_add(1, std::memory_order_relaxed);
      obs::CountEvent(obs::Counter::kStoragePagePins);
      return PinnedPage(this, frame);
    }
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      free_frames_.push_back(frame);
    }
    return loaded;
  }
}

void BufferManager::Unpin(Frame* frame) {
  frame->pin_count.fetch_sub(1, std::memory_order_release);
}

BufferManager::Stats BufferManager::stats() const {
  Stats s;
  s.pins = pins_.load(std::memory_order_relaxed);
  s.reads = reads_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace twig::storage
