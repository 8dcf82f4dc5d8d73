// Tests for batched SpMM: ParallelPlan partitioning, SpmmEngine parity
// (bitwise against the single-vector engine per column) before and after a
// value update, concurrent JIT cache publication, and block CG on top of
// the batched apply.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "codegen/jit.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "core/update.hpp"
#include "kernels/cpu_spmm.hpp"
#include "matrix/generators.hpp"
#include "solver/block_cg.hpp"
#include "solver/solvers.hpp"

namespace crsd {
namespace {

/// Same fixture family as cpu_vec_test: adjacent clusters (AD groups),
/// isolated diagonals, extreme offsets forcing edge segments, hole bands
/// breaking diagonals into multiple patterns, optional scatter rows.
Coo<double> random_pattern_matrix(index_t n, int diag_budget,
                                  std::uint64_t seed, index_t scatter) {
  Rng rng(seed);
  std::set<diag_offset_t> offs;
  offs.insert(0);
  offs.insert(-static_cast<diag_offset_t>(rng.next_index(n / 2, n - 1)));
  offs.insert(static_cast<diag_offset_t>(rng.next_index(n / 2, n - 1)));
  while (static_cast<int>(offs.size()) < diag_budget) {
    if (rng.next_double() < 0.5) {
      const diag_offset_t base =
          static_cast<diag_offset_t>(rng.next_index(-24, 24));
      const index_t len = rng.next_index(2, 4);
      for (index_t k = 0; k < len; ++k) offs.insert(base + k);
    } else {
      offs.insert(static_cast<diag_offset_t>(rng.next_index(-n / 3, n / 3)));
    }
  }
  Coo<double> a(n, n);
  for (diag_offset_t off : offs) {
    const index_t r0 = std::max<index_t>(0, -off);
    const index_t r1 = std::min<index_t>(n, n - off);
    const bool holes = rng.next_double() < 0.4;
    const index_t hole_lo = rng.next_index(r0, std::max(r0, r1 - 1));
    const index_t hole_hi =
        std::min<index_t>(r1, hole_lo + rng.next_index(1, n / 4 + 1));
    for (index_t r = r0; r < r1; ++r) {
      if (holes && r >= hole_lo && r < hole_hi) continue;
      a.add(r, r + off, rng.next_double(-1.0, 1.0));
    }
  }
  if (scatter > 0) inject_scatter(a, scatter, rng);
  a.canonicalize();
  return a;
}

template <Real T>
std::vector<T> random_block(index_t len, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> x(static_cast<std::size_t>(len) * k);
  for (auto& v : x) v = static_cast<T>(rng.next_double(-1.0, 1.0));
  return x;
}

template <Real T>
void expect_bitwise(const std::vector<T>& got, const std::vector<T>& want,
                    const char* label) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << label;
}

// ---------------------------------------------------------------------------
// ParallelPlan

TEST(ParallelPlan, StaticPartitionCoversRangeContiguously) {
  const ParallelPlan plan = ParallelPlan::static_partition(3, 17, 4);
  ASSERT_EQ(plan.num_parts(), 4);
  EXPECT_EQ(plan.part_begin(0), 3);
  EXPECT_EQ(plan.part_end(3), 17);
  for (int p = 0; p + 1 < plan.num_parts(); ++p) {
    EXPECT_EQ(plan.part_end(p), plan.part_begin(p + 1));
    EXPECT_LE(plan.part_begin(p), plan.part_end(p));
  }
}

TEST(ParallelPlan, StaticPartitionKeepsEmptyTrailingParts) {
  // Part index == thread id must stay stable even when work runs out.
  const ParallelPlan plan = ParallelPlan::static_partition(0, 2, 5);
  ASSERT_EQ(plan.num_parts(), 5);
  index_t total = 0;
  for (int p = 0; p < plan.num_parts(); ++p) {
    total += plan.part_end(p) - plan.part_begin(p);
  }
  EXPECT_EQ(total, 2);
  EXPECT_EQ(plan.part_end(4), 2);
}

TEST(ParallelPlan, WeightedPartitionBalancesCost) {
  // One element carries half the total cost; its part should not also
  // absorb a long run of the cheap elements.
  std::vector<double> cost(16, 1.0);
  cost[0] = 16.0;
  const ParallelPlan plan = ParallelPlan::weighted_partition(0, 16, 4, cost);
  ASSERT_EQ(plan.num_parts(), 4);
  EXPECT_EQ(plan.part_begin(0), 0);
  EXPECT_EQ(plan.part_end(3), 16);
  // The expensive element's part stays small in index count.
  EXPECT_LE(plan.part_end(0) - plan.part_begin(0), 3);
}

TEST(ParallelPlan, WeightedPartitionZeroCostFallsBackToStatic) {
  const std::vector<double> cost(10, 0.0);
  const ParallelPlan weighted =
      ParallelPlan::weighted_partition(0, 10, 3, cost);
  const ParallelPlan fallback = ParallelPlan::static_partition(0, 10, 3);
  ASSERT_EQ(weighted.num_parts(), fallback.num_parts());
  for (int p = 0; p < weighted.num_parts(); ++p) {
    EXPECT_EQ(weighted.part_begin(p), fallback.part_begin(p));
    EXPECT_EQ(weighted.part_end(p), fallback.part_end(p));
  }
}

TEST(ParallelPlan, FewerItemsThanPartsStillCoversAll) {
  std::vector<double> cost(3, 1.0);
  const ParallelPlan plan = ParallelPlan::weighted_partition(0, 3, 8, cost);
  ASSERT_EQ(plan.num_parts(), 8);
  index_t total = 0;
  for (int p = 0; p < plan.num_parts(); ++p) {
    EXPECT_LE(plan.part_begin(p), plan.part_end(p));
    total += plan.part_end(p) - plan.part_begin(p);
  }
  EXPECT_EQ(total, 3);
}

// ---------------------------------------------------------------------------
// SpmmEngine parity

class SpmmParity
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {
};

TEST_P(SpmmParity, ColumnsMatchSingleVectorSweepsBitwise) {
  const auto [n, mrows, scatter] = GetParam();
  const auto a = random_pattern_matrix(n, 12, 31u * n + mrows, scatter);
  const auto m = build(a, CrsdConfig{.mrows = mrows});
  // k = 5 exercises the 4-vector and 1-vector register blocks.
  const index_t k = 5;
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<double>(m.num_cols(), k, 11);

  const SpmmEngine<double> engine(m);

  std::vector<double> y(ldy * k, -1.0), want(ldy * k, -2.0);
  engine.apply(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  // The SpMM interior kernel makes the same mul-then-fmadd sequence per row
  // as the single-vector engine, so parity is bitwise, not approximate.
  expect_bitwise(y, want, "apply vs per-column spmv");

  // Scalar engine agreement (documented bitwise twin of spmv()).
  std::vector<double> yscalar(ldy * k, -4.0);
  for (index_t j = 0; j < k; ++j) {
    m.spmv_scalar(x.data() + static_cast<size64_t>(j) * ldx,
                  yscalar.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, yscalar, "apply vs per-column spmv_scalar");
}

TEST_P(SpmmParity, FloatColumnsMatchSingleVectorSweepsBitwise) {
  const auto [n, mrows, scatter] = GetParam();
  const auto a64 = random_pattern_matrix(n, 10, 47u * n + mrows, scatter);
  const auto a = a64.cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = mrows});
  const index_t k = 3;  // 2-vector + 1-vector blocks
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<float>(m.num_cols(), k, 13);

  const SpmmEngine<float> engine(m);
  std::vector<float> y(ldy * k, -1.0f), want(ldy * k, -2.0f);
  engine.apply(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, want, "float apply vs per-column spmv");
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, SpmmParity,
    ::testing::Values(std::make_tuple(200, 16, 0),    // broken diagonals
                      std::make_tuple(200, 16, 48),   // scatter-heavy
                      std::make_tuple(300, 64, 0),
                      std::make_tuple(300, 64, 64),
                      std::make_tuple(97, 16, 5)));   // non-multiple rows

TEST(SpmmEngine, WideBatchCoversAllRegisterBlocks) {
  const auto a = random_pattern_matrix(150, 10, 9, 10);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const SpmmEngine<double> engine(m);
  const index_t k = 15;  // 8 + 4 + 2 + 1
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<double>(m.num_cols(), k, 23);
  std::vector<double> y(ldy * k, -1.0), want(ldy * k, -2.0);
  engine.apply(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, want, "k=15 apply vs per-column spmv");
}

TEST(SpmmEngine, ValueUpdateKeepsEngineValid) {
  auto a = random_pattern_matrix(200, 10, 21, 8);
  auto m = build(a, CrsdConfig{.mrows = 16});
  const SpmmEngine<double> engine(m);

  // Same structure, new values: the engine built before the update must
  // read the new value streams.
  Coo<double> a2(a.num_rows(), a.num_cols());
  a2.reserve(a.nnz());
  for (size64_t i = 0; i < a.nnz(); ++i) {
    a2.add(a.row_indices()[i], a.col_indices()[i], a.values()[i] * 2.5);
  }
  a2.mark_canonical();
  update_values(m, a2);

  const index_t k = 5;
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<double>(m.num_cols(), k, 19);
  std::vector<double> y(ldy * k, -1.0), want(ldy * k, -2.0);
  engine.apply(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, want, "apply after update_values vs per-column spmv");
}

// ---------------------------------------------------------------------------
// JIT cache under concurrency

TEST(JitCache, ConcurrentBuildsOfOneEntryAllSucceed) {
  if (!codegen::JitCompiler::compiler_available()) {
    GTEST_SKIP() << "no C++ compiler available for JIT";
  }
  const std::string source =
      "extern \"C\" int crsd_concurrency_probe(int v) { return v + 41; }\n";
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("crsd-jit-race-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(cache_dir);

  // Seed the canonical source path with garbage from a "killed" earlier
  // run: publication must rename over it, never read it.
  {
    codegen::JitCompiler::Options opts;
    opts.cache_dir = cache_dir;
    const codegen::JitCompiler probe(opts);
    std::filesystem::path src_path(probe.object_path_for(source));
    src_path.replace_extension(".cpp");
    std::filesystem::create_directories(src_path.parent_path());
    std::ofstream(src_path) << "this is not C++";
  }

  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      // One compiler per thread: the cache directory is the shared state
      // under test, not the JitCompiler object.
      codegen::JitCompiler::Options opts;
      opts.cache_dir = cache_dir;
      codegen::JitCompiler compiler(opts);
      const codegen::JitLibrary lib = compiler.compile_and_load(source);
      auto fn = lib.symbol_as<int (*)(int)>("crsd_concurrency_probe");
      if (fn(1) == 42) ok.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ok.load(), kThreads);
  // No temp droppings left behind once every attempt has published.
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
  std::filesystem::remove_all(cache_dir);
}

// ---------------------------------------------------------------------------
// Block CG on the batched apply

TEST(BlockCg, SolvesSpdSystemForMultipleRhs) {
  // SPD tridiagonal (2D Laplacian stencil collapsed to 1D): diag 4,
  // off-diagonals -1 — well-conditioned, so CG converges fast.
  const index_t n = 200;
  Coo<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  a.canonicalize();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const SpmmEngine<double> engine(m);

  const index_t k = 3;
  const auto x_true = random_block<double>(n, k, 61);
  std::vector<double> b(static_cast<std::size_t>(n) * k, 0.0);
  engine.apply(x_true.data(), n, b.data(), n, k);

  const solver::BlockApplyFn<double> apply =
      [&](const double* xin, size64_t ldx, double* yout, size64_t ldy,
          index_t kk) { engine.apply(xin, ldx, yout, ldy, kk); };
  std::vector<double> x(static_cast<std::size_t>(n) * k, 0.0);
  solver::SolveOptions opts;
  opts.tolerance = 1e-12;
  const solver::BlockSolveResult result =
      solver::block_conjugate_gradient<double>(n, k, apply, b.data(), x.data(),
                                               opts);
  EXPECT_TRUE(result.converged)
      << "residual " << result.max_residual_norm << " after "
      << result.iterations << " iterations";
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(x[i], x_true[i], 1e-8) << "element " << i;
  }
}

TEST(BlockCg, SingleColumnAgreesWithScalarCg) {
  const index_t n = 150;
  Coo<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a.add(i, i, 5.0);
    if (i + 2 < n) {
      a.add(i, i + 2, -1.0);
      a.add(i + 2, i, -1.0);
    }
  }
  a.canonicalize();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const SpmmEngine<double> engine(m);

  const auto b = random_block<double>(n, 1, 71);
  solver::SolveOptions opts;
  opts.tolerance = 1e-11;

  std::vector<double> x_block(static_cast<std::size_t>(n), 0.0);
  const solver::BlockApplyFn<double> apply =
      [&](const double* xin, size64_t ldx, double* yout, size64_t ldy,
          index_t kk) { engine.apply(xin, ldx, yout, ldy, kk); };
  const auto block_result = solver::block_conjugate_gradient<double>(
      n, 1, apply, b.data(), x_block.data(), opts);

  std::vector<double> x_cg(static_cast<std::size_t>(n), 0.0);
  const solver::ApplyFn<double> apply1 = [&](const double* xin, double* yout) {
    m.spmv(xin, yout);
  };
  const auto cg_result =
      solver::conjugate_gradient<double>(n, apply1, b.data(), x_cg.data(), opts);

  ASSERT_TRUE(block_result.converged);
  ASSERT_TRUE(cg_result.converged);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x_block[static_cast<std::size_t>(i)],
                x_cg[static_cast<std::size_t>(i)], 1e-8);
  }
}

}  // namespace
}  // namespace crsd
