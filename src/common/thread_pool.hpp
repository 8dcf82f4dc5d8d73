// A small fixed-size thread pool with a blocking parallel_for. Used by the
// CPU-parallel SpMV kernels and by the GPU simulator to spread work-groups
// over host threads. We roll our own instead of OpenMP so thread count is an
// explicit runtime argument (the paper sweeps 1 vs 8 threads) and so the
// library has no compiler-flag dependency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace crsd {

/// A partition of an index range into contiguous sub-ranges, cut into equal
/// pieces or balanced against a per-index cost estimate. The multi-device
/// shard planner (runtime/shard.hpp) splits a matrix's segments with it.
class ParallelPlan {
 public:
  ParallelPlan() = default;

  /// [begin, end) cut into `parts` nearly-equal contiguous ranges (empty
  /// trailing ranges are kept, so there are always `parts` parts).
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

 private:
  std::vector<index_t> bounds_;  ///< size num_parts()+1, non-decreasing
};

/// Fixed-size worker pool. Construction spawns `num_threads - 1` workers;
/// the calling thread always works on its own loops, so ThreadPool(1) runs
/// everything inline with zero synchronization cost.
///
/// A loop is one descriptor on the caller's stack. The caller publishes it
/// under the pool's mutex, and every thread then claims chunks from it with
/// a fetch_add on its claim counter, so a chunk costs no lock. On Linux,
/// when the affinity mask of the thread that constructs the pool holds at
/// least `num_threads` CPUs, each worker is pinned to its own CPU of that
/// mask, never the constructing thread's, and spins with a CPU pause hint
/// for a bounded time after its last chunk before it parks; the caller
/// likewise spins briefly while joined workers finish. On a smaller mask,
/// or off Linux, workers stay on the constructing thread's mask and park at
/// once, because a spinning thread that shares a CPU delays the thread it
/// waits for.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(begin..end) in contiguous static chunks of ceil(n /
  /// num_threads) indices (SpMV row blocks want static partitioning for
  /// locality); a short chunk comes first. Chunk k gets thread_id k
  /// whichever thread claims it, the caller included.
  /// fn signature: void(index_t chunk_begin, index_t chunk_end, int thread_id).
  /// Blocks until all chunks complete. Exceptions thrown by fn propagate
  /// to the caller (first one wins). A multi-chunk loop started on this
  /// pool from inside one of its chunks throws crsd::Error.
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t, index_t, int)>& fn);

  /// Dynamically-scheduled variant: [begin, end) is cut into contiguous
  /// chunks of at most `chunk_size` indices (a short chunk first) and the
  /// chunks are claimed in ascending order by whichever thread is free, so
  /// ranges whose per-index cost varies (e.g. CRSD segments of patterns
  /// with different diagonal counts) load-balance instead of leaving
  /// threads idle behind one expensive static block. fn gets the claiming
  /// thread's id: 0 for the caller, i for worker i. Same blocking and
  /// exception semantics as parallel_for.
  void parallel_for_chunked(index_t begin, index_t end, index_t chunk_size,
                            const std::function<void(index_t, index_t, int)>& fn);

  /// Runs a set of independent tasks, each claimed by whichever thread is
  /// free (dynamic scheduling — tasks of very different cost, e.g. autotune
  /// candidate builds, load-balance instead of serializing behind one
  /// static block). Blocks until all tasks complete; exceptions propagate
  /// like parallel_for (first one wins).
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// Submits one independent fire-and-forget task ahead of every unclaimed
  /// parallel_for / parallel_for_chunked chunk: the next thread to claim
  /// work — a free worker, or a thread between two chunks of a loop — runs
  /// urgent tasks before any chunk, so a latency-sensitive submitter (the
  /// serving engine's single requests beside a dispatch cycle's graph) is
  /// never starved behind a long chunk train. Urgent tasks submitted
  /// together run in FIFO order. On a
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
  struct Loop;  ///< one published loop; lives on its caller's stack

  /// Publishes `loop`, claims chunks beside the workers, retires the loop
  /// once its claim counter passes the end and returns when every worker
  /// that joined it has left.
  void run_loop(Loop& loop);

  /// Claims and runs chunks of `loop` until its claim counter passes the
  /// end, running any queued urgent task before each claim. Returns how
  /// many chunks ran without throwing.
  std::uint64_t claim_chunks(Loop& loop, int thread_id);

  void worker_loop(int worker_id);

  /// Claims and runs one urgent task if any is queued; returns whether one
  /// ran.
  bool run_one_urgent();

  int num_threads_;
  bool spin_ = false;  ///< workers are pinned, so idle threads may spin

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Loop* loop_ = nullptr;  ///< the published loop until it is retired
  bool busy_ = false;  ///< a loop is published or a worker is still in it
  /// Bumped under mu_ on every publish; idle workers poll it unlocked.
  std::atomic<std::uint64_t> loop_seq_{0};
  std::deque<std::function<void()>> urgent_;  ///< FIFO, claimed before chunks
  /// urgent_.size(), written under mu_ and polled unlocked between chunks.
  std::atomic<int> urgent_queued_{0};
  int urgent_outstanding_ = 0;  ///< queued + running urgent tasks
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< last: workers use every member
};

}  // namespace crsd
