#include "common/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace crsd {

namespace {

// Pool-wide metrics. Relaxed atomic adds — negligible next to the mutex
// traffic the pool already pays per task.
obs::Counter& tasks_executed_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.tasks_executed");
  return c;
}

obs::Histogram& queue_depth_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram("pool.queue_depth");
  return h;
}

// High-watermark of pending_ across the process lifetime. The graph
// scheduler's many-small-node load is where depth spikes show; a gauge makes
// the worst case visible without histogram bucket math.
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
// exceptions (the submitter has moved on, and first_error_ belongs to
// whatever parallel_for is in flight), so failures are logged and dropped.
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

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  CRSD_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 thread");
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
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
  const index_t n = end - begin;
  const int chunks = static_cast<int>(
      std::min<index_t>(n, static_cast<index_t>(num_threads_)));

  if (chunks == 1) {
    fn(begin, end, 0);
    tasks_executed_counter().add(1);
    return;
  }

  // Static partition into `chunks` nearly-equal contiguous ranges.
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(chunks));
  const index_t base = n / chunks;
  const index_t extra = n % chunks;
  index_t cursor = begin;
  for (int c = 0; c < chunks; ++c) {
    const index_t len = base + (c < extra ? 1 : 0);
    tasks.push_back(Task{&fn, cursor, cursor + len, c});
    cursor += len;
  }
  CRSD_ASSERT(cursor == end);

  // Chunk 0 runs on the calling thread; the rest are queued for workers.
  Task mine = tasks.front();
  std::size_t pushed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRSD_CHECK_MSG(outstanding_ == 0 && pending_.empty(),
                   "nested/concurrent parallel_for on one ThreadPool is not "
                   "supported");
    first_error_ = nullptr;
    pending_.assign(tasks.begin() + 1, tasks.end());
    outstanding_ = static_cast<int>(pending_.size());
    pushed = pending_.size();
    record_queue_depth(pushed);
  }
  wake_workers(pushed);

  try {
    (*mine.fn)(mine.begin, mine.end, mine.thread_id);
    tasks_executed_counter().add(1);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0 && pending_.empty(); });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for_chunked(
    index_t begin, index_t end, index_t chunk_size,
    const std::function<void(index_t, index_t, int)>& fn) {
  if (begin >= end) return;
  chunk_size = std::max<index_t>(1, chunk_size);
  const index_t n = end - begin;
  if (num_threads_ == 1 || n <= chunk_size) {
    fn(begin, end, 0);
    tasks_executed_counter().add(1);
    return;
  }

  std::size_t pushed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRSD_CHECK_MSG(outstanding_ == 0 && pending_.empty(),
                   "nested/concurrent parallel_for on one ThreadPool is not "
                   "supported");
    first_error_ = nullptr;
    // thread_id -1 = "claimed dynamically": the executing thread substitutes
    // its own id. Queued back-to-front so pop_back() hands chunks out in
    // ascending index order.
    for (index_t cursor = end; cursor > begin;) {
      const index_t lo = std::max<index_t>(
          begin, cursor < chunk_size ? 0 : cursor - chunk_size);
      pending_.push_back(Task{&fn, lo, cursor, -1});
      cursor = lo;
    }
    outstanding_ = static_cast<int>(pending_.size());
    pushed = pending_.size();
    record_queue_depth(pushed);
  }
  wake_workers(pushed);

  // The calling thread drains the queue alongside the workers. Urgent
  // tasks go first — this is what keeps a front-of-queue submit from
  // waiting out an entire chunk train.
  for (;;) {
    if (run_one_urgent()) continue;
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) break;
      task = pending_.back();
      pending_.pop_back();
    }
    try {
      (*task.fn)(task.begin, task.end, 0);
      tasks_executed_counter().add(1);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      if (outstanding_ == 0 && pending_.empty()) cv_done_.notify_all();
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0 && pending_.empty(); });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
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
  }
  execute_urgent(task);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --urgent_outstanding_;
    if (urgent_outstanding_ == 0) cv_done_.notify_all();
  }
  return true;
}

void ThreadPool::wake_workers(std::size_t pushed) {
  if (pushed == 0) return;
  if (pushed == 1) {
    cv_work_.notify_one();
  } else {
    cv_work_.notify_all();
  }
}

void ThreadPool::worker_loop(int worker_id) {
  obs::Counter& my_tasks = obs::Registry::global().counter(
      "pool.worker." + std::to_string(worker_id) + ".tasks");
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] {
        return stopping_ || !urgent_.empty() || !pending_.empty();
      });
      if (!urgent_.empty()) {
        // Urgent tasks preempt every queued chunk; re-enter the claim loop
        // afterwards (run_one_urgent re-takes the lock itself).
        lock.unlock();
        run_one_urgent();
        continue;
      }
      if (stopping_ && pending_.empty()) return;
      if (pending_.empty()) continue;  // urgent claimed by another thread
      task = pending_.back();
      pending_.pop_back();
    }
    try {
      (*task.fn)(task.begin, task.end,
                 task.thread_id >= 0 ? task.thread_id : worker_id);
      tasks_executed_counter().add(1);
      my_tasks.add(1);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      if (outstanding_ == 0 && pending_.empty()) cv_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace crsd
