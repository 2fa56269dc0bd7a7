#ifndef GORDIAN_COMMON_THREAD_POOL_H_
#define GORDIAN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gordian {

// A fixed-size pool of worker threads draining a FIFO task queue. This is
// the execution substrate of the profiling service and of parallel CSV
// encoding; scheduling policy (priorities, cancellation, job bookkeeping)
// lives one layer up in JobScheduler, which feeds the pool exactly one
// closure per runnable job.
//
// Thread-safe: Submit may be called from any thread, including from inside
// a running task. The destructor finishes every task already submitted
// (running and queued) before joining the workers, so no submitted work is
// silently dropped and no threads leak.
class ThreadPool {
 public:
  // Spawns `num_threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  // Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Must not be called after the destructor has begun.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Tasks submitted but not yet started (diagnostic; racy by nature).
  int64_t queued_tasks() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// The machine's hardware thread count, with a floor of 1 (the standard
// permits hardware_concurrency() == 0 when unknown).
int DefaultThreadCount();

}  // namespace gordian

#endif  // GORDIAN_COMMON_THREAD_POOL_H_
