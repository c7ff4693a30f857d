#include "exec/thread_pool.h"

#include <algorithm>

#include "util/env.h"

namespace vmsv {

/// One Run call, on its caller's stack; the mutable fields are guarded by
/// the pool's mu_. The caller returns only once done == n_tasks, and a
/// worker's last touch of the job is the critical section that counts its
/// task done, so no worker can reach a job that is gone.
struct ThreadPool::Job {
  Job(const std::function<void(uint64_t)>& job_fn, uint64_t tasks,
      unsigned helpers_allowed)
      : fn(job_fn), n_tasks(tasks), max_helpers(helpers_allowed) {}
  Job(const Job&) = delete;  // workers hold its address
  Job& operator=(const Job&) = delete;

  const std::function<void(uint64_t)>& fn;
  const uint64_t n_tasks;
  const unsigned max_helpers;  // pool workers allowed on it at once
  uint64_t next = 0;           // claim cursor
  uint64_t done = 0;           // finished tasks
  unsigned helpers = 0;        // pool workers running one of its tasks
  std::condition_variable done_cv;
};

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads may outlive static destruction order.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Job* ThreadPool::NextJobLocked() const {
  for (Job* job : open_) {
    if (job->helpers < job->max_helpers) return job;
  }
  return nullptr;
}

uint64_t ThreadPool::ClaimLocked(Job* job) {
  const uint64_t task = job->next++;
  if (job->next == job->n_tasks) {
    open_.erase(std::find(open_.begin(), open_.end(), job));
  }
  return task;
}

void ThreadPool::Run(uint64_t n_tasks, unsigned parallelism,
                     const std::function<void(uint64_t)>& fn) {
  if (n_tasks == 0) return;
  if (parallelism <= 1 || n_tasks == 1) {
    for (uint64_t t = 0; t < n_tasks; ++t) fn(t);
    return;
  }
  Job job(fn, n_tasks, parallelism - 1);
  std::unique_lock<std::mutex> lock(mu_);
  while (workers_.size() < parallelism - 1) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  open_.push_back(&job);
  // Wake only the workers the job can use: a thundering herd of idle ones
  // would just contend for mu_ on an oversubscribed host.
  const uint64_t wanted = std::min<uint64_t>(job.max_helpers, n_tasks - 1);
  for (uint64_t w = 0; w < wanted; ++w) work_cv_.notify_one();
  // The caller races the workers for its own job's tasks ...
  while (job.next < job.n_tasks) {
    const uint64_t task = ClaimLocked(&job);
    lock.unlock();
    fn(task);
    lock.lock();
    ++job.done;
  }
  // ... then waits for the ones they claimed, running nothing else.
  job.done_cv.wait(lock, [&job] { return job.done == job.n_tasks; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Job* job = nullptr;
    work_cv_.wait(lock, [&] {
      return stopping_ || (job = NextJobLocked()) != nullptr;
    });
    if (job == nullptr) return;  // stopping
    const uint64_t task = ClaimLocked(job);
    ++job->helpers;
    lock.unlock();
    job->fn(task);
    lock.lock();
    --job->helpers;
    if (++job->done == job->n_tasks) job->done_cv.notify_one();
  }
}

unsigned DefaultScanThreads() {
  static const unsigned cached = [] {
    const uint64_t from_env = GetEnvUint64("VMSV_THREADS", 0);
    if (from_env > 0) return static_cast<unsigned>(from_env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1u;
  }();
  return cached;
}

}  // namespace vmsv
