#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace crsd {

namespace {

// Pool-wide metrics. Relaxed atomic adds, one per claim run, not per chunk.
obs::Counter& tasks_executed_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.tasks_executed");
  return c;
}

obs::Histogram& queue_depth_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram("pool.queue_depth");
  return h;
}

// High-watermark of the chunks per published loop across the process
// lifetime; a gauge makes the worst case visible without histogram bucket
// math.
obs::Gauge& queue_depth_highwater_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("pool.queue_depth_highwater");
  return g;
}

void record_queue_depth(std::size_t depth) {
  queue_depth_histogram().record(depth);
  obs::Gauge& g = queue_depth_highwater_gauge();
  if (double(depth) > g.value()) g.set(double(depth));
}

obs::Counter& urgent_executed_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.urgent_executed");
  return c;
}

// Urgent tasks are fire-and-forget: nobody is positioned to catch their
// exceptions (the submitter has moved on, and a loop's error belongs to
// that loop's caller), so failures are logged and dropped.
void execute_urgent(const std::function<void()>& task) {
  try {
    task();
  } catch (const std::exception& e) {
    CRSD_LOG_WARN(std::string("urgent task threw: ") + e.what());
  } catch (...) {
    CRSD_LOG_WARN("urgent task threw a non-std exception");
  }
  urgent_executed_counter().add(1);
}

// How long an idle pinned worker spins before it parks, and how long a
// caller spins for joined workers before it waits on the condvar. On a
// 4-vCPU KVM host a parked, pinned worker woke a median 6-43 us after
// notify, later the longer it had been idle (0.1-5 ms), and up to 250 us at
// the 99th percentile. A worker that spins this long catches the next loop
// of a caller that issues loops back to back, and one that parks gives its
// CPU back soon after.
constexpr std::chrono::microseconds kWorkerSpin{100};
constexpr std::chrono::microseconds kCallerSpin{50};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `ready` with a pause hint between polls until it holds or `limit`
// has passed; returns whether it held.
template <typename Ready>
bool spin_until(const Ready& ready, std::chrono::microseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    if (ready()) return true;
    cpu_relax();
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

// One CPU per worker: the first `workers` CPUs of the calling thread's
// affinity mask other than the CPU it runs on, or none when the mask holds
// fewer than workers + 1 CPUs (or off Linux), which leaves workers on the
// calling thread's mask.
std::vector<int> worker_cpus([[maybe_unused]] int workers) {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (workers < 1 || sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      CPU_COUNT(&mask) <= workers) {
    return cpus;
  }
  const int own = sched_getcpu();
  for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus.size()) < workers;
       ++c) {
    if (c != own && CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
#endif
  return cpus;
}

bool pin_to_cpu([[maybe_unused]] std::thread& t, [[maybe_unused]] int cpu) {
#ifdef __linux__
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(t.native_handle(), sizeof(one), &one) == 0;
#else
  return false;
#endif
}

}  // namespace

ParallelPlan ParallelPlan::static_partition(index_t begin, index_t end,
                                            int parts) {
  CRSD_CHECK_MSG(parts >= 1, "ParallelPlan needs >= 1 part");
  ParallelPlan plan;
  plan.bounds_.reserve(static_cast<std::size_t>(parts) + 1);
  const index_t n = std::max<index_t>(0, end - begin);
  plan.bounds_.push_back(begin);
  const index_t base = n / parts;
  const index_t extra = n % parts;
  index_t cursor = begin;
  for (int p = 0; p < parts; ++p) {
    cursor += base + (p < extra ? 1 : 0);
    plan.bounds_.push_back(cursor);
  }
  return plan;
}

ParallelPlan ParallelPlan::weighted_partition(index_t begin, index_t end,
                                              int parts,
                                              const std::vector<double>& cost) {
  CRSD_CHECK_MSG(parts >= 1, "ParallelPlan needs >= 1 part");
  const index_t n = std::max<index_t>(0, end - begin);
  CRSD_CHECK_MSG(cost.size() == static_cast<std::size_t>(n),
                 "weighted_partition needs one cost per index");
  double total = 0.0;
  for (double c : cost) total += std::max(0.0, c);
  if (total <= 0.0) return static_partition(begin, end, parts);

  ParallelPlan plan;
  plan.bounds_.reserve(static_cast<std::size_t>(parts) + 1);
  plan.bounds_.push_back(begin);
  double accumulated = 0.0;
  index_t cursor = 0;
  for (int p = 1; p <= parts; ++p) {
    const double target = total * double(p) / double(parts);
    // Advance while the boundary index sits mostly below this part's cost
    // target (midpoint rule: an index straddling the boundary goes to
    // whichever side holds more of it).
    while (cursor < n &&
           accumulated +
                   0.5 * std::max(0.0, cost[static_cast<std::size_t>(cursor)]) <
               target) {
      accumulated += std::max(0.0, cost[static_cast<std::size_t>(cursor)]);
      ++cursor;
    }
    plan.bounds_.push_back(begin + (p == parts ? n : cursor));
  }
  return plan;
}

// One published loop. Chunk k covers [max(begin, first + k * chunk),
// first + (k + 1) * chunk), where first = end - chunks * chunk <= begin, so
// only chunk 0 can be short. Bounds are 64-bit: the claim counter passes
// `end` by up to one chunk per thread, which may not fit index_t.
struct ThreadPool::Loop {
  const std::function<void(index_t, index_t, int)>* fn = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t chunk = 1;
  std::int64_t first = 0;
  bool chunk_ids = false;  ///< fn's thread_id is the chunk index
  /// Lower bound of the next unclaimed chunk; every claim is one fetch_add.
  std::atomic<std::int64_t> next{0};
  /// Workers inside the loop: changed under mu_, polled by the caller.
  std::atomic<int> joined{0};
  bool retired = false;        ///< guarded by mu_
  std::exception_ptr error;    ///< first failure, guarded by mu_
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  CRSD_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 thread");
  const std::vector<int> cpus = worker_cpus(num_threads - 1);
  bool pinned = !cpus.empty();
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
    if (pinned) {
      pinned = pin_to_cpu(workers_.back(), cpus[static_cast<std::size_t>(i - 1)]);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  spin_ = pinned;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    index_t begin, index_t end,
    const std::function<void(index_t, index_t, int)>& fn) {
  if (begin >= end) return;
  const std::int64_t n = std::int64_t{end} - begin;
  Loop loop;
  loop.chunk = (n + num_threads_ - 1) / num_threads_;
  loop.chunk_ids = true;
  loop.fn = &fn;
  loop.begin = begin;
  loop.end = end;
  run_loop(loop);
}

void ThreadPool::parallel_for_chunked(
    index_t begin, index_t end, index_t chunk_size,
    const std::function<void(index_t, index_t, int)>& fn) {
  if (begin >= end) return;
  Loop loop;
  loop.chunk = std::max<index_t>(1, chunk_size);
  loop.fn = &fn;
  loop.begin = begin;
  loop.end = end;
  run_loop(loop);
}

void ThreadPool::run_loop(Loop& loop) {
  const std::int64_t chunks =
      (loop.end - loop.begin + loop.chunk - 1) / loop.chunk;
  if (num_threads_ == 1 || chunks == 1) {
    (*loop.fn)(static_cast<index_t>(loop.begin),
               static_cast<index_t>(loop.end), 0);
    tasks_executed_counter().add(1);
    return;
  }
  loop.first = loop.end - chunks * loop.chunk;
  loop.next.store(loop.first, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRSD_CHECK_MSG(!busy_,
                   "nested/concurrent parallel_for on one ThreadPool is not "
                   "supported");
    busy_ = true;
    loop_ = &loop;
    loop_seq_.fetch_add(1, std::memory_order_relaxed);
    record_queue_depth(static_cast<std::size_t>(chunks));
  }
  cv_work_.notify_all();

  claim_chunks(loop, 0);

  // Every chunk is claimed: retire the loop, so no worker joins it again,
  // and wait for the workers still in it.
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = nullptr;
    loop.retired = true;
    if (loop.joined.load(std::memory_order_relaxed) == 0) busy_ = false;
  }
  const auto all_left = [&loop] {
    return loop.joined.load(std::memory_order_acquire) == 0;
  };
  if (!(spin_ ? spin_until(all_left, kCallerSpin) : all_left())) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, all_left);
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

std::uint64_t ThreadPool::claim_chunks(Loop& loop, int thread_id) {
  std::uint64_t ran = 0;
  for (;;) {
    // Urgent tasks go first: this is what keeps a front-of-queue submit
    // from waiting out an entire chunk train.
    if (urgent_queued_.load(std::memory_order_relaxed) > 0 &&
        run_one_urgent()) {
      continue;
    }
    const std::int64_t lo =
        loop.next.fetch_add(loop.chunk, std::memory_order_relaxed);
    if (lo >= loop.end) break;
    const int id = loop.chunk_ids
                       ? static_cast<int>((lo - loop.first) / loop.chunk)
                       : thread_id;
    try {
      (*loop.fn)(static_cast<index_t>(std::max(lo, loop.begin)),
                 static_cast<index_t>(lo + loop.chunk), id);
      ++ran;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!loop.error) loop.error = std::current_exception();
    }
  }
  tasks_executed_counter().add(ran);
  return ran;
}

void ThreadPool::run_tasks(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  parallel_for_chunked(0, static_cast<index_t>(tasks.size()), 1,
                       [&tasks](index_t b, index_t e, int) {
                         for (index_t i = b; i < e; ++i) {
                           tasks[static_cast<std::size_t>(i)]();
                         }
                       });
}

void ThreadPool::submit_urgent(std::function<void()> task) {
  if (num_threads_ == 1) {
    // No workers exist: run inline, preserving ThreadPool(1)'s
    // zero-synchronization contract.
    execute_urgent(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++urgent_outstanding_;
    urgent_.push_back(std::move(task));
    urgent_queued_.store(static_cast<int>(urgent_.size()),
                         std::memory_order_relaxed);
  }
  cv_work_.notify_one();
}

void ThreadPool::drain_urgent() {
  if (num_threads_ == 1) return;  // everything already ran inline
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return urgent_outstanding_ == 0; });
}

bool ThreadPool::run_one_urgent() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (urgent_.empty()) return false;
    task = std::move(urgent_.front());
    urgent_.pop_front();
    urgent_queued_.store(static_cast<int>(urgent_.size()),
                         std::memory_order_relaxed);
  }
  execute_urgent(task);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --urgent_outstanding_;
    if (urgent_outstanding_ == 0) cv_done_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop(int worker_id) {
  obs::Counter& my_tasks = obs::Registry::global().counter(
      "pool.worker." + std::to_string(worker_id) + ".tasks");
  std::uint64_t seen = 0;  // loop_seq_ of the last loop looked at
  const auto work_visible = [this, &seen] {
    return urgent_queued_.load(std::memory_order_relaxed) > 0 ||
           loop_seq_.load(std::memory_order_relaxed) != seen;
  };
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!urgent_.empty()) {
      lock.unlock();
      run_one_urgent();
      lock.lock();
    } else if (loop_seq_.load(std::memory_order_relaxed) != seen) {
      seen = loop_seq_.load(std::memory_order_relaxed);
      if (loop_ == nullptr) continue;  // retired before this worker came
      Loop& loop = *loop_;
      loop.joined.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      my_tasks.add(claim_chunks(loop, worker_id));
      lock.lock();
      // Leave under mu_. Read `retired` first: once joined reaches 0 the
      // caller may return and the descriptor is gone.
      const bool retired = loop.retired;
      if (loop.joined.fetch_sub(1, std::memory_order_release) == 1 &&
          retired) {
        busy_ = false;
        cv_done_.notify_all();
      }
    } else if (stopping_) {
      return;
    } else {
      if (spin_) {
        lock.unlock();
        const bool found = spin_until(work_visible, kWorkerSpin);
        lock.lock();
        if (found) continue;
      }
      cv_work_.wait(lock, [&] {
        return stopping_ || !urgent_.empty() ||
               loop_seq_.load(std::memory_order_relaxed) != seen;
      });
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace crsd
