// Fork-join worker pool for the verifier's fault-set storms.
//
// verify_fault_sets (and through it verify_sampled, verify_scenario and
// ChurnSpanner::oracle_check) checks independent fault sets, one task each.
// Tasks are claimed one at a time from an atomic chunk cursor: fault sets
// vary widely in cost, so static chunking would stall the round on its
// slowest shard.  Workers persist across rounds parked on a condition
// variable.
//
// run(n, fn) is synchronous: the caller participates as worker 0 and returns
// only when every task finished.
//
// Pools are meant to be SHARED: spawning a pool per storm pays thread
// start-up on every call, so the verifier uses the process-wide
// shared_pool(), which grows on demand (ensure_workers) and is reused by
// every verification in the process.  run() may be called from any thread;
// concurrent rounds on one pool serialize against each other.  A task must
// not call run() on its own pool (the nested round would wait forever for
// the round slot its caller holds); no task in the library does.
//
// Memory model: everything a task writes is visible to the caller when run()
// returns, and everything the caller wrote before run() is visible to the
// tasks — the generation handshake is mutex-protected on both edges.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace ftspan::exec {

/// Resolves a thread request: 0 means one worker per hardware thread (at
/// least 1); any other value is taken literally.
[[nodiscard]] std::uint32_t resolve_threads(std::uint32_t requested) noexcept;

/// Persistent fork-join pool of workers (the thread calling run() counts as
/// one, so `threads - 1` std::threads are spawned).
class ThreadPool {
 public:
  /// fn(worker, index): worker is in [0, participants), index in [0, n).
  using Task = std::function<void(unsigned worker, std::size_t index)>;

  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the thread that calls run().
  [[nodiscard]] std::uint32_t threads() const noexcept;

  /// Grows the pool to at least `threads` workers (including the caller).
  /// Never shrinks.  Safe to call concurrently with an in-flight round:
  /// new workers join from the next round on.
  void ensure_workers(std::uint32_t threads);

  /// Runs fn for every index in [0, n) and returns when all are done; each
  /// index runs exactly once.  At most `max_workers` workers participate
  /// (the caller, as worker 0, plus the lowest-numbered pool workers), so a
  /// caller asking for fewer threads than the shared pool holds stays within
  /// its budget.  The first exception a task throws is rethrown here
  /// (remaining tasks still run).  Callable from any thread; concurrent
  /// calls serialize.
  void run(std::size_t n, const Task& fn,
           std::uint32_t max_workers = kAllWorkers);

  static constexpr std::uint32_t kAllWorkers =
      std::numeric_limits<std::uint32_t>::max();

 private:
  void worker_loop(unsigned worker, std::uint64_t seen);
  void work(unsigned worker, const Task& fn, std::size_t n);

  std::vector<std::thread> workers_;      // guarded by mu_ (growth)
  std::mutex run_mu_;                     // serializes whole rounds
  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const Task* job_ = nullptr;             // guarded by mu_
  std::size_t job_n_ = 0;                 // guarded by mu_
  std::uint32_t job_limit_ = 0;           // guarded by mu_: participant cap
  std::uint64_t generation_ = 0;          // guarded by mu_
  std::size_t busy_ = 0;                  // guarded by mu_
  bool stop_ = false;                     // guarded by mu_
  std::exception_ptr error_;              // guarded by mu_
  std::atomic<std::size_t> next_{0};      // the chunk cursor tasks claim from
};

/// The process-wide pool the verifier shares.  Created lazily with no
/// spawned workers; callers grow it to their resolved thread count with
/// ensure_workers, so the first parallel storm pays thread start-up once for
/// the whole process.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace ftspan::exec
