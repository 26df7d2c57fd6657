// A small fixed-size fork-join worker pool for data-parallel fan-out.
//
// Built for DynamicDocument's per-commit refresh of N registered query
// pipelines: the pipelines share only the immutable term during a refresh,
// so each one can be rebuilt on its own lane. The pool is deliberately
// minimal — one blocking ParallelFor at a time, no task queue, no futures:
// the fan-out pattern is "run body(0..n-1), wait for all", and anything
// fancier would put allocations and scheduling jitter on the update path.
// (Inter-document scheduling is a different problem with a different
// primitive: the serving layer's per-shard run queues that idle shards
// steal whole documents from, serving/shard_server.h. This pool's
// fork-join contract is for *intra*-document fan-out and is unchanged.)
//
// Threads are spawned once at construction and parked on a condition
// variable between jobs. The *calling* thread always participates, so a
// pool constructed with `threads == 1` spawns no workers at all and
// ParallelFor degenerates to a plain in-order loop — the deterministic
// single-thread fallback.
//
// ParallelFor is a template over the body type: the body is passed to the
// workers as a raw (function pointer, context pointer) pair, so calling it
// with a lambda never constructs a std::function and never allocates —
// the steady-state refresh path stays allocation-free under the gauge even
// when invoked from shard workers (asserted in serving_test's
// ParallelForIsAllocationFree).
#ifndef TREENUM_UTIL_THREAD_POOL_H_
#define TREENUM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace treenum {

class ThreadPool {
 public:
  /// Spawns `threads - 1` worker threads (the caller of ParallelFor is the
  /// remaining lane). `threads <= 1` spawns none.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (worker threads + the calling thread).
  size_t size() const { return workers_.size() + 1; }

  /// Runs body(0) .. body(n-1), each exactly once, and returns when all
  /// calls have completed. Indices are handed out dynamically, so uneven
  /// per-index work self-balances. With no workers or n <= 1 the calls run
  /// inline in index order with no synchronization at all.
  ///
  /// `body` must not throw, and must not call ParallelFor on this pool
  /// (single fork-join job at a time). `body` is borrowed by reference for
  /// the duration of the call — no copy, no type erasure allocation.
  template <typename Body>
  void ParallelFor(size_t n, const Body& body) {
    if (workers_.empty() || n <= 1) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    RunJob(
        n,
        [](void* ctx, size_t i) { (*static_cast<const Body*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

 private:
  /// Type-erased job entry: invoke(ctx, i) calls the borrowed body.
  using JobFn = void (*)(void* ctx, size_t i);

  void RunJob(size_t n, JobFn invoke, void* ctx);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Job state, guarded by mu_. `job_invoke_`/`job_ctx_` describe the
  // caller's body for the duration of one RunJob; `epoch_` ticks once per
  // job so parked workers can tell a new job from a spurious wakeup.
  JobFn job_invoke_ = nullptr;
  void* job_ctx_ = nullptr;
  size_t job_n_ = 0;
  uint64_t epoch_ = 0;
  size_t workers_busy_ = 0;
  bool stop_ = false;
  // Next unclaimed index of the current job. Relaxed ordering suffices:
  // indices are disjoint, and the mutex publishes the job itself.
  std::atomic<size_t> next_{0};
};

}  // namespace treenum

#endif  // TREENUM_UTIL_THREAD_POOL_H_
