// Unit tests for src/common: error macros, RNG determinism, thread pool,
// hashing, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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
  bool urgent_queued = false;
  std::atomic<int> parked{0};
  std::vector<std::string> order;  // guarded by mu

  constexpr index_t kChunks = 12;
  std::thread runner([&] {
    pool.parallel_for_chunked(0, kChunks, 1, [&](index_t b, index_t, int) {
      std::unique_lock<std::mutex> lock(mu);
      if (b < 2) {
        // Both claiming threads park on the first two chunks until the
        // urgent task is queued, so the remaining ten chunks form a
        // pending train behind it.
        parked.fetch_add(1);
        cv.wait(lock, [&] { return urgent_queued; });
      }
      order.push_back("chunk" + std::to_string(b));
    });
  });
  while (parked.load() < 2) std::this_thread::yield();

  pool.submit_urgent([&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back("urgent");
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    urgent_queued = true;
  }
  cv.notify_all();
  runner.join();
  pool.drain_urgent();

  // The two parked chunks record first; the urgent task must be claimed
  // before the ten queued chunks (one racing chunk record at most).
  const auto it = std::find(order.begin(), order.end(), "urgent");
  ASSERT_NE(it, order.end());
  EXPECT_LE(it - order.begin(), 3);
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kChunks) + 1);
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
