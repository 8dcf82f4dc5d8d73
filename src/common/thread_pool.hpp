// A small fixed-size thread pool with a blocking parallel_for. Used by the
// CPU-parallel SpMV kernels and by the GPU simulator to spread work-groups
// over host threads. We roll our own instead of OpenMP so thread count is an
// explicit runtime argument (the paper sweeps 1 vs 8 threads) and so the
// library has no compiler-flag dependency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace crsd {

/// A reusable partition of an index range into contiguous sub-ranges, one
/// per task. parallel_for re-slices and re-dispatches its range on every
/// call; hot paths that run the same loop thousands of times (SpMV/SpMM
/// iterations inside a solver) build a ParallelPlan once and replay it —
/// the executor side of the inspector–executor split. Plans can be cut
/// into equal pieces or balanced against a per-index cost estimate, and
/// they are immutable after construction, so one plan can be replayed
/// concurrently from different pools or iterations without re-partitioning.
class ParallelPlan {
 public:
  ParallelPlan() = default;

  /// [begin, end) cut into `parts` nearly-equal contiguous ranges (empty
  /// trailing ranges are kept so part index == thread id stays stable).
  static ParallelPlan static_partition(index_t begin, index_t end, int parts);

  /// Cost-balanced contiguous partition: `cost[i]` estimates the work of
  /// index `begin + i`. Greedy prefix-sum splitting at cost/parts
  /// boundaries — each part gets a contiguous run of indices whose summed
  /// cost is close to the mean, so one expensive run does not serialize
  /// the whole loop behind thread 0.
  static ParallelPlan weighted_partition(index_t begin, index_t end,
                                         int parts,
                                         const std::vector<double>& cost);

  int num_parts() const { return static_cast<int>(bounds_.empty() ? 0 : bounds_.size() - 1); }
  index_t part_begin(int i) const { return bounds_[static_cast<std::size_t>(i)]; }
  index_t part_end(int i) const { return bounds_[static_cast<std::size_t>(i) + 1]; }
  bool empty() const { return bounds_.size() < 2 || bounds_.front() == bounds_.back(); }

 private:
  std::vector<index_t> bounds_;  ///< size num_parts()+1, non-decreasing
};

/// Fixed-size worker pool. Construction spawns `num_threads - 1` workers;
/// the calling thread always participates in parallel_for, so
/// ThreadPool(1) runs everything inline with zero synchronization cost.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(begin..end) partitioned into contiguous static chunks, one per
  /// thread (SpMV row blocks want static partitioning for locality).
  /// fn signature: void(index_t chunk_begin, index_t chunk_end, int thread_id).
  /// Blocks until all chunks complete. Exceptions thrown by fn propagate
  /// to the caller (first one wins).
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t, index_t, int)>& fn);

  /// Dynamically-scheduled variant: [begin, end) is cut into contiguous
  /// chunks of at most `chunk_size` indices and the chunks are claimed by
  /// whichever thread is free, so ranges whose per-index cost varies (e.g.
  /// CRSD segments of patterns with different diagonal counts) load-balance
  /// instead of leaving threads idle behind one expensive static block.
  /// Same fn signature and blocking/exception semantics as parallel_for.
  void parallel_for_chunked(index_t begin, index_t end, index_t chunk_size,
                            const std::function<void(index_t, index_t, int)>& fn);

  /// Replays a precomputed partition: part i runs as fn(part_begin(i),
  /// part_end(i), i) with no per-call slicing. Part 0 runs on the calling
  /// thread; empty parts are skipped without dispatch. The part index is
  /// passed as the thread id, so a plan with num_parts() == num_threads()
  /// gives each thread a stable range across replays (NUMA first-touch
  /// affinity relies on this). Blocking/exception semantics match
  /// parallel_for.
  void parallel_for(const ParallelPlan& plan,
                    const std::function<void(index_t, index_t, int)>& fn);

  /// Runs a set of independent tasks, each claimed by whichever thread is
  /// free (dynamic scheduling — tasks of very different cost, e.g. autotune
  /// candidate builds, load-balance instead of serializing behind one
  /// static block). Blocks until all tasks complete; exceptions propagate
  /// like parallel_for (first one wins).
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// Submits one independent fire-and-forget task ahead of every queued
  /// parallel_for / parallel_for_chunked chunk: the next thread to claim
  /// work — a free worker, or a caller draining its own loop — runs urgent
  /// tasks before any chunk, so a latency-sensitive submitter (the serving
  /// engine's single requests beside a dispatch cycle's graph) is never
  /// starved behind a long chunk train. Urgent tasks submitted together
  /// run in FIFO order. On a
  /// 1-thread pool the task runs inline before returning (there are no
  /// workers). Exceptions thrown by the task are logged and swallowed —
  /// they never poison a concurrently running parallel_for. The task must
  /// not issue parallel work on this pool itself.
  void submit_urgent(std::function<void()> task);

  /// Blocks until every urgent task submitted so far has finished.
  void drain_urgent();

  /// Process-wide pool sized to hardware_concurrency (lazily constructed).
  static ThreadPool& global();

 private:
  struct Task {
    const std::function<void(index_t, index_t, int)>* fn = nullptr;
    index_t begin = 0;
    index_t end = 0;
    int thread_id = 0;
  };

  void worker_loop(int worker_id);

  /// Claims and runs one urgent task if any is queued; returns whether one
  /// ran. Called at the top of every claim loop so urgent tasks preempt
  /// pending chunks.
  bool run_one_urgent();

  /// Wake exactly as many workers as there are newly queued tasks: a single
  /// task wakes one worker instead of stampeding the whole pool (the graph
  /// scheduler enqueues many single-node batches).
  void wake_workers(std::size_t pushed);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Task> pending_;
  std::deque<std::function<void()>> urgent_;  ///< FIFO, claimed before pending_
  int outstanding_ = 0;
  int urgent_outstanding_ = 0;  ///< queued + running urgent tasks
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace crsd
