// Serving-engine semantics: bitwise parity of coalesced SpMM batches vs
// per-request single-vector SpMV across every storage mode, admission
// control, registry dedup, the batch-verification mutation fixture,
// async-mode concurrency, and teardown with requests still queued or in
// flight (the suite name contains "Serve" so the TSan CI job runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"

namespace crsd {
namespace {

using serve::MatrixInfo;
using serve::RequestStatus;
using serve::ServeEngine;
using serve::ServeOptions;

struct StorageMode {
  const char* name;
  StorageOptions storage;
};

const std::vector<StorageMode>& storage_modes() {
  static const std::vector<StorageMode> m = {
      {"fp64", {}},
      {"fp64+i16", {ValuePrecision::kNative, true}},
      {"fp32+i16", {ValuePrecision::kFloat32, true}},
  };
  return m;
}

/// A band matrix with off-pattern scatter points, so the narrow scatter
/// index modes actually have a scatter stream to encode.
Coo<double> test_matrix() {
  Rng rng(7);
  Coo<double> a = dense_band(96, 4);
  inject_scatter(a, 40, rng);
  return a;
}

std::vector<double> make_x(index_t n, int seed) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        1.0 + 0.001 * double((i * 31 + seed * 17) % 97);
  }
  return x;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Serve, CoalescedMatchesPerRequestAllStorageModes) {
  ThreadPool pool(2);
  const Coo<double> a = test_matrix();
  for (const StorageMode& mode : storage_modes()) {
    SCOPED_TRACE(mode.name);
    ServeOptions so;
    so.max_batch = 8;
    ServeEngine engine(pool, so);
    const MatrixInfo info = engine.register_matrix(a, mode.storage);
    const bool native =
        mode.storage.value_precision == ValuePrecision::kNative;
    EXPECT_EQ(info.batchable, native);

    std::vector<serve::RequestHandle> handles;
    for (int r = 0; r < 8; ++r) {
      handles.push_back(engine.submit(info.id, "tenant0",
                                      make_x(a.num_cols(), r)));
    }
    const serve::DispatchStats stats = engine.drain();
    EXPECT_EQ(stats.requests, 8);
    if (native) {
      // One k=8 SpMM batch.
      EXPECT_EQ(stats.batches, 1);
      EXPECT_EQ(stats.coalesced_requests, 8);
    } else {
      // Compacted value streams have no SpMM engine: per-request fallback
      // inside the same graph.
      EXPECT_EQ(stats.batches, 0);
      EXPECT_EQ(stats.singles, 8);
    }
    EXPECT_GT(stats.makespan_seconds, 0.0);

    const CrsdMatrix<double>& m = engine.matrix(info.id);
    for (int r = 0; r < 8; ++r) {
      ASSERT_EQ(handles[static_cast<std::size_t>(r)].status(),
                RequestStatus::kDone);
      EXPECT_EQ(handles[static_cast<std::size_t>(r)].served_batch_k(),
                native ? 8 : 1);
      EXPECT_GT(
          handles[static_cast<std::size_t>(r)].virtual_finish_seconds(),
          0.0);
      const std::vector<double> x = make_x(a.num_cols(), r);
      std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
      m.spmv(x.data(), ref.data());
      EXPECT_TRUE(
          bitwise_equal(handles[static_cast<std::size_t>(r)].result(), ref));
    }
  }
}

TEST(Serve, BackpressureRejectsWithDiagnostic) {
  ThreadPool pool(2);
  ServeOptions so;
  so.max_batch = 8;
  so.max_queue_depth = 4;
  ServeEngine engine(pool, so);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  std::vector<serve::RequestHandle> admitted, shed;
  for (int r = 0; r < 6; ++r) {
    serve::RequestHandle h =
        engine.submit(info.id, "tenantB", make_x(a.num_cols(), r));
    (r < 4 ? admitted : shed).push_back(std::move(h));
  }
  EXPECT_EQ(engine.pending(), 4u);
  for (const auto& h : shed) {
    ASSERT_EQ(h.status(), RequestStatus::kRejected);  // resolved immediately
    const check::Diagnostic& d = h.diagnostic();
    EXPECT_EQ(d.code, check::Code::kServeOverload);
    EXPECT_NE(d.message.find("high watermark"), std::string::npos);
    EXPECT_EQ(h.virtual_finish_seconds(), 0.0);
  }

  const serve::DispatchStats stats = engine.drain();
  EXPECT_EQ(stats.requests, 4);
  for (const auto& h : admitted) {
    EXPECT_EQ(h.status(), RequestStatus::kDone);
  }
  // The queue drained: new submissions are admitted again.
  serve::RequestHandle h2 =
      engine.submit(info.id, "tenantB", make_x(a.num_cols(), 9));
  EXPECT_EQ(h2.status(), RequestStatus::kPending);
  engine.drain();
  EXPECT_EQ(h2.status(), RequestStatus::kDone);
}

TEST(Serve, RegistryDedupsByStructureHash) {
  ThreadPool pool(1);
  ServeEngine engine(pool);
  const Coo<double> a = test_matrix();

  const MatrixInfo first = engine.register_matrix(a);
  EXPECT_FALSE(first.dedup_hit);
  EXPECT_NE(first.structure_hash, 0u);
  EXPECT_EQ(engine.registry_size(), 1u);

  // Same matrix, same storage: reuses the entry.
  const MatrixInfo again = engine.register_matrix(a);
  EXPECT_TRUE(again.dedup_hit);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(again.structure_hash, first.structure_hash);
  EXPECT_EQ(engine.registry_size(), 1u);

  // Same structure, different storage mode: its own entry (the built
  // streams differ), but the structure hash matches.
  const MatrixInfo narrow = engine.register_matrix(
      a, StorageOptions{ValuePrecision::kNative, true});
  EXPECT_FALSE(narrow.dedup_hit);
  EXPECT_NE(narrow.id, first.id);
  EXPECT_EQ(narrow.structure_hash, first.structure_hash);

  // Same structure, different values: its own entry too.
  Coo<double> b(a.num_rows(), a.num_cols());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    b.add(a.row_indices()[k], a.col_indices()[k], 2.0 * a.values()[k]);
  }
  b.canonicalize();
  const MatrixInfo other = engine.register_matrix(b);
  EXPECT_FALSE(other.dedup_hit);
  EXPECT_NE(other.id, first.id);
  EXPECT_EQ(other.structure_hash, first.structure_hash);
  EXPECT_EQ(engine.registry_size(), 3u);
}

TEST(Serve, MisSlicedBatchDetected) {
  ThreadPool pool(2);
  ServeOptions so;
  so.max_batch = 4;
  so.verify_batches = true;
  ServeEngine engine(pool, so);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  engine.inject_batch_fault_for_test();
  std::vector<serve::RequestHandle> handles;
  for (int r = 0; r < 4; ++r) {
    handles.push_back(
        engine.submit(info.id, "tenantC", make_x(a.num_cols(), r)));
  }
  engine.drain();
  for (const auto& h : handles) {
    ASSERT_EQ(h.status(), RequestStatus::kFailed);
    const check::Diagnostic& d = h.diagnostic();
    EXPECT_EQ(d.code, check::Code::kServeBatchMismatch);
    EXPECT_NE(d.message.find("diverged bitwise"), std::string::npos);
  }

  // Verification passes again once the fault is consumed.
  serve::RequestHandle ok =
      engine.submit(info.id, "tenantC", make_x(a.num_cols(), 5));
  engine.drain();
  EXPECT_EQ(ok.status(), RequestStatus::kDone);
}

TEST(Serve, PartialBatchesAndDispatchStats) {
  ThreadPool pool(2);
  // One exec lane: compute nodes serialize, so the makespan bounds below
  // (>= total compute, < fully serialized sum) hold exactly.
  ServeOptions so;
  so.max_batch = 4;
  so.exec_lanes = 1;
  ServeEngine engine(pool, so);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  // 9 pending requests with max_batch 4: two k=4 batches and one single.
  std::vector<serve::RequestHandle> handles;
  for (int r = 0; r < 9; ++r) {
    handles.push_back(
        engine.submit(info.id, "tenantD", make_x(a.num_cols(), r)));
  }
  const serve::DispatchStats stats = engine.drain();
  EXPECT_EQ(stats.requests, 9);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.singles, 1);
  EXPECT_EQ(stats.coalesced_requests, 8);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GT(stats.stage_seconds, 0.0);
  EXPECT_GT(stats.deliver_seconds, 0.0);
  // The virtual timeline pipelines stages, so the makespan is at least the
  // compute time but less than the serialized sum.
  EXPECT_GE(stats.makespan_seconds, stats.compute_seconds);
  EXPECT_LT(stats.makespan_seconds, stats.stage_seconds +
                                        stats.compute_seconds +
                                        stats.deliver_seconds +
                                        1e-12);
  const CrsdMatrix<double>& m = engine.matrix(info.id);
  for (int r = 0; r < 9; ++r) {
    const std::vector<double> x = make_x(a.num_cols(), r);
    std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
    m.spmv(x.data(), ref.data());
    EXPECT_TRUE(
        bitwise_equal(handles[static_cast<std::size_t>(r)].result(), ref));
  }
}

TEST(Serve, JitSingleVectorFallbackParity) {
  ThreadPool pool(2);
  // max_batch 1 = coalescing off: every request takes the single-vector
  // path, JIT-compiled when a toolchain is available (bitwise-identical
  // either way on native storage).
  ServeOptions so;
  so.max_batch = 1;
  so.use_jit = true;
  ServeEngine engine(pool, so);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  std::vector<serve::RequestHandle> handles;
  for (int r = 0; r < 3; ++r) {
    handles.push_back(
        engine.submit(info.id, "tenantE", make_x(a.num_cols(), r)));
  }
  const serve::DispatchStats stats = engine.drain();
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.singles, 3);
  const CrsdMatrix<double>& m = engine.matrix(info.id);
  for (int r = 0; r < 3; ++r) {
    const std::vector<double> x = make_x(a.num_cols(), r);
    std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
    m.spmv(x.data(), ref.data());
    ASSERT_EQ(handles[static_cast<std::size_t>(r)].status(),
              RequestStatus::kDone);
    EXPECT_EQ(handles[static_cast<std::size_t>(r)].served_batch_k(), 1);
    EXPECT_TRUE(
        bitwise_equal(handles[static_cast<std::size_t>(r)].result(), ref));
  }
}

TEST(Serve, TenantLatencyMetricsExported) {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& h = reg.histogram("serve.tenant.serve_test_slo.latency_us");
  h.reset();

  ThreadPool pool(2);
  ServeEngine engine(pool);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);
  for (int r = 0; r < 6; ++r) {
    engine.submit(info.id, "serve_test_slo", make_x(a.num_cols(), r));
  }
  engine.drain();

  EXPECT_EQ(h.count(), 6u);
  // p50/p99 gauges update on every resolution and are quantiles of the
  // histogram above.
  const double p50 = reg.gauge("serve.tenant.serve_test_slo.p50_us").value();
  const double p99 = reg.gauge("serve.tenant.serve_test_slo.p99_us").value();
  EXPECT_GE(p99, p50);
  EXPECT_EQ(p50, h.quantile(0.50));
  EXPECT_EQ(p99, h.quantile(0.99));
}

TEST(Serve, AsyncConcurrentSubmittersCoalesce) {
  ThreadPool pool(4);
  ServeOptions so;
  so.max_batch = 8;
  so.max_queue_depth = 1024;
  so.async = true;
  ServeEngine engine(pool, so);
  // The dispatcher is work-conserving: requests coalesce only when they
  // queue while a cycle runs. On a 96-row matrix a cycle can finish before
  // the next submit arrives (a few runs in a thousand coalesced fewer than
  // 16), so the band is tall enough that one SpMV outlasts several submits.
  Rng rng(7);
  Coo<double> a = dense_band(1 << 16, 4);
  inject_scatter(a, 40, rng);
  const MatrixInfo info = engine.register_matrix(a);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<serve::RequestHandle>> handles(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        handles[static_cast<std::size_t>(t)].push_back(engine.submit(
            info.id, "tenant" + std::to_string(t),
            make_x(a.num_cols(), t * kPerThread + r)));
      }
    });
  }
  for (auto& th : submitters) th.join();

  const CrsdMatrix<double>& m = engine.matrix(info.id);
  index_t coalesced = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      serve::RequestHandle& h =
          handles[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      h.wait();
      ASSERT_EQ(h.status(), RequestStatus::kDone);
      if (h.served_batch_k() >= 2) ++coalesced;
      const std::vector<double> x =
          make_x(a.num_cols(), t * kPerThread + r);
      std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
      m.spmv(x.data(), ref.data());
      EXPECT_TRUE(bitwise_equal(h.result(), ref));
    }
  }
  // 32 near-simultaneous requests against one matrix: most must have been
  // served inside SpMM batches. (Exact batch shapes depend on arrival
  // interleaving; the parity above is the hard gate.)
  EXPECT_GE(coalesced, 16);
}

TEST(Serve, AsyncSingleRequestFallsBackWithinWindow) {
  ThreadPool pool(2);
  ServeOptions so;
  so.max_batch = 8;
  so.async = true;
  ServeEngine engine(pool, so);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  // One lone request: no batch can form, so it is served on the
  // single-vector path.
  serve::RequestHandle h =
      engine.submit(info.id, "tenantF", make_x(a.num_cols(), 3));
  h.wait();
  ASSERT_EQ(h.status(), RequestStatus::kDone);
  EXPECT_EQ(h.served_batch_k(), 1);
  EXPECT_GT(h.virtual_finish_seconds(), 0.0);

  const CrsdMatrix<double>& m = engine.matrix(info.id);
  const std::vector<double> x = make_x(a.num_cols(), 3);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
  m.spmv(x.data(), ref.data());
  EXPECT_TRUE(bitwise_equal(h.result(), ref));
}

/// Two lanes and several full batches of one matrix per flush cycle. The
/// batches of one matrix share its SpmmEngine, whose scratch serves one
/// apply at a time, so dispatch must keep them on one lane while a second
/// matrix runs on the other. Every result must match the single-vector
/// spmv bit for bit. The band's AD group is staged through that scratch,
/// and the band is tall enough (a k=8 apply takes milliseconds) that two
/// of its batches on two lanes would run side by side for most of their
/// length.
void expect_two_lanes_serve_full_batches(bool async) {
  ThreadPool pool(4);
  ServeOptions so;
  so.max_batch = 8;
  so.exec_lanes = 2;
  so.max_queue_depth = 1024;
  so.async = async;
  so.tune_from_cache = false;
  ServeEngine engine(pool, so);
  Rng rng(21);
  Coo<double> band = dense_band(1 << 17, 4);
  inject_scatter(band, 64, rng);
  const Coo<double> stencil = stencil_5pt_2d(48, 48);
  const serve::MatrixId ids[] = {engine.register_matrix(band).id,
                                 engine.register_matrix(stencil).id};
  const Coo<double>* coos[] = {&band, &stencil};
  constexpr int kPerMatrix[] = {32, 16};  // four and two full batches

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    // Vectors are made before the burst, so a whole round is queued
    // before its first cycle finishes.
    std::vector<std::vector<double>> xs[2];
    for (int mi = 0; mi < 2; ++mi) {
      for (int r = 0; r < kPerMatrix[mi]; ++r) {
        xs[mi].push_back(make_x(coos[mi]->num_cols(), round * 64 + r));
      }
    }
    std::vector<serve::RequestHandle> handles[2];
    for (int mi = 0; mi < 2; ++mi) {
      for (const std::vector<double>& x : xs[mi]) {
        handles[mi].push_back(engine.submit(ids[mi], "lanes", x));
      }
    }
    if (!async) {
      const serve::DispatchStats stats = engine.drain();
      EXPECT_EQ(stats.batches, 6);
    }
    for (int mi = 0; mi < 2; ++mi) {
      const CrsdMatrix<double>& m = engine.matrix(ids[mi]);
      std::vector<double> ref(static_cast<std::size_t>(m.num_rows()));
      int wrong = 0;
      for (int r = 0; r < kPerMatrix[mi]; ++r) {
        serve::RequestHandle& h = handles[mi][static_cast<std::size_t>(r)];
        h.wait();
        ASSERT_EQ(h.status(), RequestStatus::kDone);
        m.spmv(xs[mi][static_cast<std::size_t>(r)].data(), ref.data());
        if (!bitwise_equal(h.result(), ref)) ++wrong;
      }
      EXPECT_EQ(wrong, 0) << "matrix " << mi;
    }
  }
}

TEST(Serve, TwoLanesKeepEachMatrixOnOneLane) {
  expect_two_lanes_serve_full_batches(false);
}

TEST(Serve, AsyncTwoLanesKeepEachMatrixOnOneLane) {
  expect_two_lanes_serve_full_batches(true);
}

/// Polls until `h` leaves kPending or `timeout` passes (RequestHandle has
/// no timed wait, and a plain wait() would hang the suite on a regression).
bool resolves_within(const serve::RequestHandle& h,
                     std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (h.status() == RequestStatus::kPending) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(Serve, AsyncLoneRequestRunsWhileEveryPoolThreadIsBusy) {
  ThreadPool pool(2);
  ServeOptions so;
  so.async = true;
  ServeEngine engine(pool, so);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  // Both threads of the pool wait inside run_tasks until `release` opens.
  std::latch entered(2);
  std::latch release(1);
  std::thread holder([&] {
    pool.run_tasks({[&] {
                      entered.count_down();
                      release.wait();
                    },
                    [&] {
                      entered.count_down();
                      release.wait();
                    }});
  });
  entered.wait();
  const std::vector<double> x = make_x(a.num_cols(), 4);
  serve::RequestHandle h = engine.submit(info.id, "held", x);
  const bool resolved = resolves_within(h, std::chrono::seconds(10));
  release.count_down();
  holder.join();

  ASSERT_TRUE(resolved) << "a lone request waited for a pool thread";
  ASSERT_EQ(h.status(), RequestStatus::kDone);
  EXPECT_EQ(h.served_batch_k(), 1);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
  engine.matrix(info.id).spmv(x.data(), ref.data());
  EXPECT_TRUE(bitwise_equal(h.result(), ref));
}

TEST(Serve, AsyncBacklogBehindALoneRequestFormsOneBatch) {
  ThreadPool pool(4);
  ServeOptions so;
  so.max_batch = 8;
  so.async = true;
  so.tune_from_cache = false;
  ServeEngine engine(pool, so);
  Rng rng(21);
  // The lane tests' tall band: its single-vector SpMV keeps the dispatcher
  // busy for about a millisecond.
  Coo<double> band = dense_band(1 << 17, 4);
  inject_scatter(band, 64, rng);
  const Coo<double> small = test_matrix();
  const serve::MatrixId band_id = engine.register_matrix(band).id;
  const serve::MatrixId small_id = engine.register_matrix(small).id;
  const std::vector<double> band_x = make_x(band.num_cols(), 99);
  std::vector<std::vector<double>> xs;
  for (int r = 0; r < 8; ++r) xs.push_back(make_x(small.num_cols(), r));
  std::vector<double> band_ref(static_cast<std::size_t>(band.num_rows()));
  engine.matrix(band_id).spmv(band_x.data(), band_ref.data());
  std::vector<double> ref(static_cast<std::size_t>(small.num_rows()));

  // The eight must be queued together while the dispatcher still runs the
  // band: then pending() reads 8 once they are in. A thread whose submit
  // wakes the dispatcher can lose its CPU to it until the band is done, so
  // the band request comes from a thread of its own, and an attempt in
  // which the dispatcher took part of the eight checks only the results
  // and is repeated.
  obs::Counter& submitted = obs::Registry::global().counter("serve.requests");
  for (int attempt = 0; attempt < 20; ++attempt) {
    SCOPED_TRACE(attempt);
    const std::uint64_t before = submitted.value();
    serve::RequestHandle lone;
    std::thread waker(
        [&] { lone = engine.submit(band_id, "busy", band_x); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((submitted.value() == before || engine.pending() != 0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::vector<serve::RequestHandle> handles;
    for (const std::vector<double>& x : xs) {
      handles.push_back(engine.submit(small_id, "backlog", x));
    }
    const bool one_backlog = engine.pending() == xs.size();
    waker.join();

    lone.wait();
    ASSERT_EQ(lone.status(), RequestStatus::kDone);
    EXPECT_EQ(lone.served_batch_k(), 1);
    EXPECT_TRUE(bitwise_equal(lone.result(), band_ref));
    for (std::size_t r = 0; r < handles.size(); ++r) {
      handles[r].wait();
      ASSERT_EQ(handles[r].status(), RequestStatus::kDone) << "request " << r;
      if (one_backlog) {
        EXPECT_EQ(handles[r].served_batch_k(), 8) << "request " << r;
      }
      engine.matrix(small_id).spmv(xs[r].data(), ref.data());
      EXPECT_TRUE(bitwise_equal(handles[r].result(), ref)) << "request " << r;
    }
    if (one_backlog) return;
  }
  FAIL() << "the dispatcher took part of the backlog in every attempt";
}

TEST(Serve, TeardownWithoutDrainFailsPendingRequests) {
  ThreadPool pool(2);
  const Coo<double> band = test_matrix();
  const Coo<double> stencil = stencil_5pt_2d(12, 12);
  std::vector<serve::RequestHandle> handles;
  {
    ServeEngine engine(pool);
    const serve::MatrixId ids[] = {engine.register_matrix(band).id,
                                   engine.register_matrix(stencil).id};
    const Coo<double>* coos[] = {&band, &stencil};
    for (int r = 0; r < 11; ++r) {
      const int mi = r % 2;
      handles.push_back(engine.submit(ids[mi], "teardown",
                                      make_x(coos[mi]->num_cols(), r)));
    }
    ASSERT_EQ(engine.pending(), 11u);
  }  // destroyed with every request still queued: no drain() ran
  for (const serve::RequestHandle& h : handles) {
    ASSERT_EQ(h.status(), RequestStatus::kFailed);
    EXPECT_EQ(h.diagnostic().code, check::Code::kServeShutdown);
    EXPECT_EQ(h.served_batch_k(), 0);
  }
}

TEST(Serve, AsyncTeardownFinishesQueuedAndInFlightRequests) {
  ThreadPool pool(4);
  ServeOptions so;
  so.max_batch = 8;
  so.max_queue_depth = 1024;
  so.async = true;
  so.tune_from_cache = false;
  Rng rng(23);
  // Tall enough that one k=8 apply takes milliseconds, so the first batch
  // is still running when the second wave is queued and the engine dies.
  Coo<double> band = dense_band(1 << 17, 4);
  inject_scatter(band, 64, rng);
  std::vector<std::vector<double>> xs;
  for (int r = 0; r < 13; ++r) xs.push_back(make_x(band.num_cols(), r));

  std::vector<serve::RequestHandle> handles;
  std::optional<CrsdMatrix<double>> m;
  {
    ServeEngine engine(pool, so);
    const serve::MatrixId id = engine.register_matrix(band).id;
    m.emplace(engine.matrix(id));
    // Wait until the dispatcher has taken the whole first wave.
    for (std::size_t r = 0; r < 8; ++r) {
      handles.push_back(engine.submit(id, "t", xs[r]));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (engine.pending() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(engine.pending(), 0u);
    // The second wave queues behind the in-flight cycle.
    for (std::size_t r = 8; r < xs.size(); ++r) {
      handles.push_back(engine.submit(id, "t", xs[r]));
    }
  }
  std::vector<double> ref(static_cast<std::size_t>(band.num_rows()));
  for (std::size_t r = 0; r < handles.size(); ++r) {
    ASSERT_TRUE(resolves_within(handles[r], std::chrono::seconds(30)))
        << "request " << r << " still pending after teardown";
    if (handles[r].status() != RequestStatus::kDone) continue;
    m->spmv(xs[r].data(), ref.data());
    EXPECT_TRUE(bitwise_equal(handles[r].result(), ref)) << "request " << r;
  }
}

}  // namespace
}  // namespace crsd
