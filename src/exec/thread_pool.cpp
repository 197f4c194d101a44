#include "exec/thread_pool.h"

#include "obs/obs.h"

namespace ftspan::exec {

namespace {

const obs::Counter c_pool_rounds("pool.rounds.dispatched");
const obs::Counter c_pool_tasks("pool.tasks.executed");

}  // namespace

std::uint32_t resolve_threads(std::uint32_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::uint32_t threads) { ensure_workers(threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::uint32_t ThreadPool::threads() const noexcept {
  std::lock_guard lk(mu_);
  return static_cast<std::uint32_t>(workers_.size()) + 1;
}

void ThreadPool::ensure_workers(std::uint32_t threads) {
  if (threads < 1) threads = 1;
  std::lock_guard lk(mu_);
  // A worker spawned mid-round must not join the in-flight job (its busy_
  // accounting predates the worker), so it starts having "seen" the current
  // generation and waits for the next one.
  while (workers_.size() + 1 < threads) {
    const auto id = static_cast<unsigned>(workers_.size()) + 1;
    const std::uint64_t seen = generation_;
    workers_.emplace_back([this, id, seen] { worker_loop(id, seen); });
  }
}

void ThreadPool::work(unsigned worker, const Task& fn, std::size_t n) {
  obs::ScopedSpan span("pool", "work");
  std::uint64_t executed = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    ++executed;
    try {
      fn(worker, i);
    } catch (...) {
      std::lock_guard lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
  span.end_args("tasks", executed);
  c_pool_tasks.add(executed);
}

void ThreadPool::worker_loop(unsigned worker, std::uint64_t seen) {
  obs::label_thread("worker", worker);
  for (;;) {
    const Task* job = nullptr;
    std::size_t n = 0;
    std::uint32_t limit = 0;
    {
      std::unique_lock lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      n = job_n_;
      limit = job_limit_;
    }
    // Workers beyond the round's participant cap skip the job but still
    // acknowledge the generation, so run() can wait on busy_ alone.
    if (worker < limit) work(worker, *job, n);
    {
      std::lock_guard lk(mu_);
      --busy_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run(std::size_t n, const Task& fn, std::uint32_t max_workers) {
  if (n == 0) return;
  std::size_t spawned;
  {
    std::lock_guard lk(mu_);
    spawned = workers_.size();
  }
  if (spawned == 0 || n == 1 || max_workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }

  const std::lock_guard round(run_mu_);
  {
    std::lock_guard lk(mu_);
    job_ = &fn;
    job_n_ = n;
    job_limit_ = max_workers;
    next_.store(0, std::memory_order_relaxed);
    busy_ = workers_.size();  // same lock as the generation bump: a worker
    ++generation_;            // joins a round iff busy_ counted it
  }
  start_cv_.notify_all();
  c_pool_rounds.add();

  work(0, fn, n);
  std::exception_ptr error;
  {
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [&] { return busy_ == 0; });
    job_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& shared_pool() {
  static ThreadPool pool(1);
  return pool;
}

}  // namespace ftspan::exec
