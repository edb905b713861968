#include "util/thread_pool.h"

#include <algorithm>

namespace twig::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    threads_.emplace_back([this, w] { WorkerMain(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::DrainItems(size_t worker) {
  const size_t count = item_count_;
  while (true) {
    const size_t item = next_item_.fetch_add(1, std::memory_order_relaxed);
    if (item >= count) break;
    (*body_)(item, worker);
  }
}

void ThreadPool::WorkerMain(size_t worker) {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    DrainItems(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--busy_workers_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t, size_t)>& body) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    item_count_ = count;
    next_item_.store(0, std::memory_order_relaxed);
    busy_workers_ = threads_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [&] { return busy_workers_ == 0; });
    body_ = nullptr;
  }
}

}  // namespace twig::util
