// The engine's one executor: a process-wide worker pool (lazily created,
// sized by VMSV_THREADS, default hardware_concurrency) that runs
// parallel-for jobs. Run(n_tasks, parallelism, fn) executes fn(task) for
// every task index and blocks until all of them finished. Page scans
// (exec/parallel_scanner.h) and shard fan-out (core/db.h) both run here.
//
// Jobs may run concurrently and may nest: a task can itself call Run, which
// is how a fanned-out shard query scans in parallel. Each job's state lives
// on its caller's stack. The caller first works through its own job's
// tasks, then waits for the tasks other threads claimed; idle workers take
// tasks from the oldest open job. A waiting caller never runs another job's
// task: scans hold an epoch guard that a flush waits out, so a thread inside
// a scan must never pick up some other client's shard query. Workers are
// spawned on demand and live until process exit, so per-query scans never
// pay thread-creation cost.

#ifndef VMSV_EXEC_THREAD_POOL_H_
#define VMSV_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vmsv {

class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool.
  static ThreadPool& Global();

  /// Executes fn(task) for every task in [0, n_tasks), spreading tasks over
  /// up to `parallelism` threads including the caller. Blocks until all
  /// tasks completed. Safe to call from many threads at once and from
  /// inside a task.
  void Run(uint64_t n_tasks, unsigned parallelism,
           const std::function<void(uint64_t)>& fn);

 private:
  struct Job;

  void WorkerLoop();
  /// Oldest open job with room for another pool worker, or null.
  Job* NextJobLocked() const;
  /// Takes the next unclaimed task of `job`; closes the job when it was
  /// the last one.
  uint64_t ClaimLocked(Job* job);

  std::mutex mu_;  // guards the fields below and every open Job's counters
  std::condition_variable work_cv_;  // workers wait for an open job
  std::vector<std::thread> workers_;
  std::vector<Job*> open_;  // jobs with unclaimed tasks, oldest first
  bool stopping_ = false;
};

/// Threads scans use by default: VMSV_THREADS, else hardware_concurrency,
/// floored at 1. Read once and cached.
unsigned DefaultScanThreads();

}  // namespace vmsv

#endif  // VMSV_EXEC_THREAD_POOL_H_
