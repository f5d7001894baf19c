// Dependency-free thread pool for fanning out independent simulation runs.
//
// tnb_eval and the parallel benches fan coarse per-run tasks out with
// parallel_for; determinism is preserved by deriving each task's RNG seed
// from its index and writing results into pre-sized slots, so scheduling
// order never affects output. The pool itself is deliberately small:
// submit/wait, a bounded queue (back-pressure for producers that outrun
// the workers), and exception propagation to the waiter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace tnb::common {

/// Worker count from the TNB_JOBS environment variable (clamped to >= 1);
/// 1 when unset or unparsable.
int default_jobs();

/// Resolves a user-facing jobs request: values > 0 pass through, anything
/// else (0, negative) falls back to default_jobs() / TNB_JOBS.
int resolve_jobs(int jobs);

/// Fixed-size pool of workers draining a bounded FIFO task queue.
///
/// - `threads == 0` degenerates to inline execution: submit() runs the task
///   on the calling thread (exceptions are still delivered via wait()).
/// - submit() blocks while the queue holds `queue_capacity` pending tasks.
/// - wait() blocks until every submitted task has finished and rethrows the
///   first task exception, after which the pool is reusable.
/// - The destructor drains the queue (all submitted tasks run) and joins.
class ThreadPool {
 public:
  explicit ThreadPool(int threads, std::size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for the inline degenerate case).
  int size() const { return static_cast<int>(workers_.size()); }

  void submit(std::function<void()> task);
  void wait();

 private:
  void worker_loop();
  void run_task(std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::size_t queue_capacity_;
  std::size_t unfinished_ = 0;  ///< queued + currently running
  bool stop_ = false;
  std::exception_ptr first_error_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;   ///< workers: a task is available
  std::condition_variable cv_space_;  ///< producers: queue has room
  std::condition_variable cv_idle_;   ///< waiters: everything finished
};

/// Runs body(i) for i in [0, n). `jobs <= 1` (after resolve_jobs) executes
/// inline on the calling thread, in index order, and lets exceptions
/// propagate directly; otherwise min(jobs, n) workers execute the indices
/// in unspecified order and the first task exception is rethrown here.
template <typename Body>
void parallel_for(std::size_t n, int jobs, Body&& body) {
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(static_cast<int>(
      std::min(static_cast<std::size_t>(jobs), n)));
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([i, &body] { body(i); });
  }
  pool.wait();
}

}  // namespace tnb::common
