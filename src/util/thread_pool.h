// A fixed-size worker pool for fanning independent work items across
// threads.
//
// Built for batch estimation and the construction passes: the items
// are independent, so the pool only needs static index-range dispatch
// — ParallelFor hands out item indices through a shared atomic
// counter, which balances load without any per-item queueing or
// allocation. Workers are started once and reused across calls.
//
// Every owner scopes the pool around synchronous ParallelFor calls
// (EstimateBatch, Cst::Build's count pass, PathSuffixTree::Build), so
// no batch is in flight when the pool is destroyed, and the destructor
// only stops and joins the workers.

#ifndef TWIG_UTIL_THREAD_POOL_H_
#define TWIG_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace twig::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops and joins the workers. No ParallelFor may be in flight.
  ~ThreadPool();

  /// Number of worker threads (>= 1).
  size_t size() const { return threads_.size(); }

  /// Runs body(item, worker) for every item in [0, count), fanned
  /// across the workers; `worker` identifies the calling worker in
  /// [0, size()). Blocks until all items are done. The body must not
  /// itself call ParallelFor on this pool.
  void ParallelFor(size_t count,
                   const std::function<void(size_t item, size_t worker)>& body);

 private:
  void WorkerMain(size_t worker);

  /// Runs the current batch's items until the shared index runs out.
  void DrainItems(size_t worker);

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  /// Incremented per ParallelFor call; workers wake when it changes.
  uint64_t generation_ = 0;
  bool stopping_ = false;

  // State of the in-flight ParallelFor, valid while busy_workers_ > 0
  // or next_item_ < item_count_.
  const std::function<void(size_t, size_t)>* body_ = nullptr;
  size_t item_count_ = 0;
  std::atomic<size_t> next_item_{0};
  size_t busy_workers_ = 0;
};

}  // namespace twig::util

#endif  // TWIG_UTIL_THREAD_POOL_H_
