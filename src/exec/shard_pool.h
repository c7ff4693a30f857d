// ShardPool — the per-shard thread pool of the shard router
// (core/shard_router.h): a fixed set of dedicated worker threads draining a
// task queue, optionally pinned to one core through the CpuAffinity seam.
//
// This is deliberately NOT ThreadPool (exec/thread_pool.h): that pool is a
// parallel-for primitive where the caller participates and jobs serialize;
// a shard needs an EXECUTOR — clients hand sub-queries to the shard's
// resident threads and wait, so shard work stays on the shard's core while
// many clients fan out to many shards concurrently. WaitGroup is the
// completion barrier a fan-out caller blocks on.
//
// Pin refusals are counted, never fatal (see exec/affinity.h): the worker
// runs unpinned and the table's health surface reports the count.

#ifndef VMSV_EXEC_SHARD_POOL_H_
#define VMSV_EXEC_SHARD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "exec/affinity.h"

namespace vmsv {

/// A countdown barrier for fan-out calls: Add the number of submitted
/// tasks, Done from each task, Wait on the caller.
class WaitGroup {
 public:
  void Add(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += n;
  }

  /// The count drops to zero only under mu_, so Wait cannot return — and
  /// its caller cannot destroy this stack object — while Done still uses
  /// the mutex or the condition variable.
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t pending_ = 0;  // guarded by mu_
};

struct ShardPoolOptions {
  /// Dedicated worker threads (>= 1). One per shard is the
  /// shard-per-core default.
  unsigned threads = 1;
  /// Pin every worker to `cpu` at startup (best-effort; refusals are
  /// counted in pin_failures() and the worker runs unpinned). Negative
  /// disables pinning.
  int cpu = -1;
  /// The pinning syscall layer; null means RealCpuAffinity(). Not owned.
  CpuAffinity* affinity = nullptr;
};

class ShardPool {
 public:
  explicit ShardPool(const ShardPoolOptions& options);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Enqueues fn for execution on a pool worker. Tasks run in FIFO order
  /// per worker; with one worker (the default) the pool serializes the
  /// shard's work — the single-writer-per-shard discipline. fn must not
  /// Submit back into the same pool and wait (one worker would deadlock).
  void Submit(std::function<void()> fn);

  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// Pin attempts refused by the affinity layer (0 when pinning is off).
  uint64_t pin_failures() const {
    return pin_failures_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop(int cpu, CpuAffinity* affinity);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<uint64_t> pin_failures_{0};
  std::vector<std::thread> workers_;
};

}  // namespace vmsv

#endif  // VMSV_EXEC_SHARD_POOL_H_
