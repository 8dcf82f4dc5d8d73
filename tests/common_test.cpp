// Unit tests for src/common: error macros, RNG determinism, thread pool,
// hashing, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace crsd {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(CRSD_CHECK(1 + 1 == 2));
  try {
    CRSD_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "expected crsd::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool saw_difference = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) saw_difference = true;
  }
  EXPECT_TRUE(saw_difference);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const index_t v = rng.next_index(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    const double d = rng.next_double(0.25, 0.75);
    EXPECT_GE(d, 0.25);
    EXPECT_LT(d, 0.75);
  }
}

TEST(Rng, DoubleIsRoughlyUniform) {
  Rng rng(99);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](index_t b, index_t e, int) {
    for (index_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int count = 0;
  pool.parallel_for(0, 10, [&](index_t b, index_t e, int tid) {
    EXPECT_EQ(tid, 0);
    count += e - b;
  });
  EXPECT_EQ(count, 10);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](index_t, index_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](index_t b, index_t, int) {
                          if (b == 0) throw Error("boom");
                        }),
      Error);
  // Pool must stay usable afterwards.
  std::atomic<int> total{0};
  pool.parallel_for(0, 10,
                    [&](index_t b, index_t e, int) { total += e - b; });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<long long> sum{0};
    pool.parallel_for(0, 1000, [&](index_t b, index_t e, int) {
      long long local = 0;
      for (index_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
  }
}

TEST(ThreadPool, SubmitUrgentRunsAheadOfPendingChunks) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool urgent_queued = false;      // guarded by mu
  bool urgent_ran = false;         // guarded by mu
  std::atomic<int> parked{0};
  std::vector<std::string> order;  // guarded by mu

  constexpr index_t kChunks = 12;
  std::thread runner([&] {
    pool.parallel_for_chunked(0, kChunks, 1, [&](index_t b, index_t, int) {
      std::unique_lock<std::mutex> lock(mu);
      if (b < 2) {
        // The pool's two threads park on the first two chunks, so the
        // other ten form a pending train behind the urgent task. Chunk 0
        // is released once the task is queued, chunk 1 only by the task
        // itself: chunk 0's thread is then the one free thread, and it
        // must claim the task before any queued chunk. The timeout turns
        // a pool that lets it take a chunk first into a failure below,
        // not a hang.
        parked.fetch_add(1);
        cv.wait_for(lock, std::chrono::seconds(30),
                    [&] { return b == 0 ? urgent_queued : urgent_ran; });
      }
      order.push_back("chunk" + std::to_string(b));
    });
  });
  while (parked.load() < 2) std::this_thread::yield();

  pool.submit_urgent([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back("urgent");
      urgent_ran = true;
    }
    cv.notify_all();
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    urgent_queued = true;
  }
  cv.notify_all();
  runner.join();
  pool.drain_urgent();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChunks) + 1);
  EXPECT_EQ(order[0], "chunk0");
  EXPECT_EQ(order[1], "urgent");
}

TEST(ThreadPool, SubmitUrgentRunsInlineOnSingleThreadPool) {
  ThreadPool pool(1);
  int ran_on = -1;
  const auto me = std::this_thread::get_id();
  std::thread::id urgent_thread;
  pool.submit_urgent([&] {
    ran_on = 1;
    urgent_thread = std::this_thread::get_id();
  });
  // No workers exist: the task already ran, inline on the caller.
  EXPECT_EQ(ran_on, 1);
  EXPECT_EQ(urgent_thread, me);
  pool.drain_urgent();  // no-op, must not deadlock
}

TEST(ThreadPool, UrgentExceptionDoesNotPoisonParallelFor) {
  ThreadPool pool(2);
  pool.submit_urgent([] { throw std::runtime_error("urgent boom"); });
  pool.drain_urgent();
  // The swallowed urgent failure must not surface as a parallel_for error.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](index_t b, index_t e, int) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, UrgentTasksKeepFifoOrder) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.submit_urgent([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  pool.drain_urgent();
  ASSERT_EQ(order.size(), 8u);
  // A single worker claims from the front; with two workers the claim
  // order is still FIFO even if completion interleaves, so each element
  // can sit at most one slot from its submission position.
  for (int i = 0; i < 8; ++i) {
    EXPECT_LE(std::abs(order[static_cast<std::size_t>(i)] - i), 1);
  }
}

TEST(ThreadPool, RunTasksExecutesEveryTaskOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  pool.run_tasks(tasks);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "task " << i;
  }
  pool.run_tasks({});  // empty set is a no-op
}

TEST(ThreadPool, RunTasksPropagatesExceptions) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([i] {
      if (i == 17) throw Error("task 17 failed");
    });
  }
  EXPECT_THROW(pool.run_tasks(tasks), Error);
}

#ifdef __linux__
// The affinity masks of the pool's workers: a parallel_for of one chunk per
// thread whose chunks each wait until all of them run, so every thread,
// the caller included, runs exactly one.
std::vector<cpu_set_t> worker_masks(ThreadPool& pool) {
  const int n = pool.num_threads();
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;                // guarded by mu
  std::vector<cpu_set_t> masks;   // guarded by mu
  pool.parallel_for(0, n, [&](index_t, index_t, int) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
    std::unique_lock<std::mutex> lock(mu);
    if (std::this_thread::get_id() != caller) masks.push_back(mask);
    ++running;
    cv.notify_all();
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return running == n; }));
  });
  return masks;
}

int only_cpu(const cpu_set_t& mask) {
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) return c;
  }
  return -1;
}

TEST(ThreadPool, WorkersRunOnTheirOwnCpus) {
  cpu_set_t own;
  CPU_ZERO(&own);
  ASSERT_EQ(sched_getaffinity(0, sizeof(own), &own), 0);
  const int cpus = CPU_COUNT(&own);
  if (cpus < 2) GTEST_SKIP() << "needs a mask of two CPUs or more";
  const int n = std::min(cpus, 4);

  // The pool keeps its workers off the CPU its constructor ran on; build it
  // until this thread reads the same CPU before and after, so that CPU is
  // known.
  std::unique_ptr<ThreadPool> pool;
  int ctor_cpu = -1;
  for (int attempt = 0; attempt < 100 && !pool; ++attempt) {
    const int before = sched_getcpu();
    auto candidate = std::make_unique<ThreadPool>(n);
    if (sched_getcpu() == before) {
      pool = std::move(candidate);
      ctor_cpu = before;
    }
  }
  ASSERT_TRUE(pool);
  const std::vector<cpu_set_t> pinned = worker_masks(*pool);
  ASSERT_EQ(pinned.size(), static_cast<std::size_t>(n - 1));
  std::set<int> used;
  for (const cpu_set_t& mask : pinned) {
    ASSERT_EQ(CPU_COUNT(&mask), 1);
    const int cpu = only_cpu(mask);
    EXPECT_TRUE(CPU_ISSET(cpu, &own)) << cpu;
    EXPECT_NE(cpu, ctor_cpu);
    used.insert(cpu);
  }
  EXPECT_EQ(used.size(), pinned.size());

  // Built on a thread whose mask holds fewer CPUs than the pool has
  // threads, the workers stay on that mask.
  cpu_set_t narrow;
  CPU_ZERO(&narrow);
  for (int c = 0, left = n - 1; c < CPU_SETSIZE && left > 0; ++c) {
    if (CPU_ISSET(c, &own)) {
      CPU_SET(c, &narrow);
      --left;
    }
  }
  std::vector<cpu_set_t> unpinned;
  std::thread helper([&] {
    ASSERT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);
    ThreadPool small_mask_pool(n);
    unpinned = worker_masks(small_mask_pool);
  });
  helper.join();
  ASSERT_EQ(unpinned.size(), static_cast<std::size_t>(n - 1));
  for (const cpu_set_t& mask : unpinned) {
    EXPECT_TRUE(CPU_EQUAL(&mask, &narrow));
  }
}
#endif

// Claims run on a 64-bit counter: at the top of index_t the counter passes
// the end by a chunk per thread without wrapping.
TEST(ThreadPool, ClaimsNearIndexMaxCoverRangeOnce) {
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(kMax - 1000, kMax, 7,
                            [&](index_t b, index_t e, int) {
                              ASSERT_LT(b, e);
                              for (index_t i = b; i < e; ++i) {
                                hits[static_cast<std::size_t>(
                                    i - (kMax - 1000))]++;
                              }
                            });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  std::vector<std::atomic<int>> tail(5);
  pool.parallel_for(kMax - 5, kMax, [&](index_t b, index_t e, int) {
    ASSERT_LT(b, e);
    for (index_t i = b; i < e; ++i) {
      tail[static_cast<std::size_t>(i - (kMax - 5))]++;
    }
  });
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].load(), 1) << i;
  }
}

TEST(ThreadPool, NestedLoopOnOnePoolThrows) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_chunked(
                   0, 30, 1,
                   [&](index_t b, index_t, int) {
                     if (b == 5) {
                       pool.parallel_for(0, 100, [](index_t, index_t, int) {});
                     }
                   }),
               Error);
  std::atomic<int> total{0};
  pool.parallel_for(0, 100, [&](index_t b, index_t e, int) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(Hash, StableAndCollisionFreeOnSmallSet) {
  EXPECT_EQ(fnv1a64("hello"), fnv1a64("hello"));
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
  EXPECT_EQ(fnv1a64_hex("x").size(), 16u);
  EXPECT_NE(fnv1a64_hex("a"), fnv1a64_hex("b"));
}

TEST(Table, TextAndCsvRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(1.5, 1)});
  t.add_row({"with,comma", Table::fmt(2LL)});
  std::ostringstream text;
  t.print_text(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("1.5"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"with,comma\""), std::string::npos);
}

TEST(Table, RowsPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly-one,,\n");
}

TEST(Timer, MeasuresForwardTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GT(t.micros(), 0.0);
}

}  // namespace
}  // namespace crsd
