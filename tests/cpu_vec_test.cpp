// Parity and scheduling tests for the vectorized CPU execution engine:
// scalar, vectorized (interior/edge split), parallel, and JIT-compiled SpMV
// must agree on randomized pattern matrices that force edge segments,
// scatter rows, and short final segments; plus unit tests for the
// interior-range computation and the chunked thread-pool scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"
#include "temp_cache_dir.hpp"

namespace crsd {
namespace {

codegen::JitCompiler fresh_compiler() {
  static const TempCacheDir dir("vec-test-cache");
  codegen::JitCompiler::Options opts;
  opts.cache_dir = dir.str();
  return codegen::JitCompiler(opts);
}

/// Random square matrix built from diagonals: a few adjacent clusters (AD
/// groups), a few isolated diagonals, and at least one extreme offset so
/// the first/last segments need clamping (edge segments). Holes are punched
/// into each diagonal so the builder produces several patterns, and scatter
/// rows are injected on demand.
Coo<double> random_pattern_matrix(index_t n, int diag_budget,
                                  std::uint64_t seed, index_t scatter) {
  Rng rng(seed);
  std::set<diag_offset_t> offs;
  offs.insert(0);  // keep the matrix far from singular-empty
  // Edge-forcers: one strongly negative, one strongly positive offset.
  offs.insert(-static_cast<diag_offset_t>(rng.next_index(n / 2, n - 1)));
  offs.insert(static_cast<diag_offset_t>(rng.next_index(n / 2, n - 1)));
  while (static_cast<int>(offs.size()) < diag_budget) {
    if (rng.next_double() < 0.5) {
      // Adjacent cluster of 2-4 diagonals -> AD group (staged x window).
      const diag_offset_t base =
          static_cast<diag_offset_t>(rng.next_index(-24, 24));
      const index_t len = rng.next_index(2, 4);
      for (index_t k = 0; k < len; ++k) offs.insert(base + k);
    } else {
      offs.insert(static_cast<diag_offset_t>(
          rng.next_index(-n / 3, n / 3)));
    }
  }
  Coo<double> a(n, n);
  for (diag_offset_t off : offs) {
    const index_t r0 = std::max<index_t>(0, -off);
    const index_t r1 = std::min<index_t>(n, n - off);
    // A hole band in the middle of some diagonals breaks them into
    // separate live runs -> multiple patterns and idle sections.
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
std::vector<T> random_vector(index_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> x(static_cast<std::size_t>(len));
  for (auto& v : x) v = static_cast<T>(rng.next_double(-1.0, 1.0));
  return x;
}

/// ULP-style tolerance: |g - w| <= tol * (1 + |w|). Scalar vs vectorized in
/// the same translation unit are additionally required to agree bit-for-bit
/// (identical per-row accumulation order).
template <Real T>
void expect_ulp_close(const std::vector<T>& got, const std::vector<T>& want,
                      double tol, const char* label) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_LE(std::abs(double(got[i]) - double(want[i])),
              tol * (1.0 + std::abs(double(want[i]))))
        << label << " row " << i;
  }
}

class VecEngineParity
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {
};

TEST_P(VecEngineParity, ScalarVecParallelJitAgree) {
  const auto [n, mrows, scatter] = GetParam();
  const auto a = random_pattern_matrix(n, 12, 17u * n + mrows, scatter);
  const auto m = build(a, CrsdConfig{.mrows = mrows});

  const auto x = random_vector<double>(a.num_cols(), 7);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
  a.spmv_reference(x.data(), ref.data());

  std::vector<double> scalar(ref.size(), -1), vec(ref.size(), -1),
      par(ref.size(), -1);
  m.spmv_scalar(x.data(), scalar.data());
  m.spmv(x.data(), vec.data());
  ThreadPool pool(3);
  m.spmv_parallel(pool, x.data(), par.data());

  // Engine vs reference: normal FP tolerance.
  expect_ulp_close(scalar, ref, 1e-10, "scalar vs reference");
  // Same accumulation order, same translation unit: exact agreement.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(vec[i], scalar[i]) << "vec row " << i;
    ASSERT_EQ(par[i], scalar[i]) << "parallel row " << i;
  }

  if (codegen::JitCompiler::compiler_available()) {
    auto compiler = fresh_compiler();
    const codegen::CrsdJitKernel<double> kernel(m, compiler);
    std::vector<double> jit(ref.size(), -1), jit_par(ref.size(), -1);
    kernel.spmv(m, x.data(), jit.data());
    kernel.spmv_parallel(pool, m, x.data(), jit_par.data());
    // JIT is compiled with its own flags; allow a few ULPs of contraction
    // skew even though in practice it matches bit-for-bit.
    expect_ulp_close(jit, scalar, 1e-13, "jit vs scalar");
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(jit_par[i], jit[i]) << "jit parallel row " << i;
    }
  }
}

// Shapes: short final segment (n % mrows != 0), tiny mrows, scatter-heavy,
// and a scatter-free case.
INSTANTIATE_TEST_SUITE_P(
    Shapes, VecEngineParity,
    ::testing::Values(std::make_tuple(257, 8, index_t{6}),
                      std::make_tuple(301, 3, index_t{10}),
                      std::make_tuple(512, 32, index_t{0}),
                      std::make_tuple(1000, 64, index_t{12}),
                      std::make_tuple(97, 64, index_t{4})));

TEST(VecEngineParity, SinglePrecision) {
  const auto a64 = random_pattern_matrix(400, 10, 99, 8);
  const auto a = a64.cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const auto x = random_vector<float>(a.num_cols(), 3);
  std::vector<float> scalar(static_cast<std::size_t>(a.num_rows())),
      vec(scalar.size());
  m.spmv_scalar(x.data(), scalar.data());
  m.spmv(x.data(), vec.data());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(vec[i], scalar[i]) << "row " << i;
  }
}

// The codelet's scatter loop takes 1024 scatter rows at a time. Three
// blocks with a short last one, rows of different widths, and pool splits
// that start mid-block must all match the interpreted scatter bitwise, in
// every storage mode.
TEST(VecEngineParity, JitScatterBlocksMatchInterpretedBitwise) {
  if (!codegen::JitCompiler::compiler_available()) GTEST_SKIP();
  Rng rng(23);
  Coo<double> a = dense_band(6000, 2);
  inject_scatter(a, 4000, rng);
  const auto x = random_vector<double>(a.num_cols(), 5);
  auto compiler = fresh_compiler();
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out(v.size());
    std::transform(v.begin(), v.end(), out.begin(),
                   [](double d) { return std::bit_cast<std::uint64_t>(d); });
    return out;
  };
  for (const ValuePrecision vp :
       {ValuePrecision::kNative, ValuePrecision::kFloat32}) {
    for (const bool narrow : {false, true}) {
      CrsdConfig cfg;
      cfg.mrows = 32;
      cfg.storage = {vp, narrow};
      const auto m = build(a, cfg);
      const std::string mode =
          std::string(value_precision_name(m.value_precision())) + "+" +
          scatter_index_mode_name(m.scatter_index_mode());
      ASSERT_GT(m.num_scatter_rows(), 2048) << mode;
      ASSERT_NE(m.num_scatter_rows() % 1024, 0) << mode;
      ASSERT_EQ(m.scatter_index_mode() == ScatterIndexMode::kIndex16, narrow)
          << mode;
      std::vector<double> want(static_cast<std::size_t>(a.num_rows()));
      m.spmv(x.data(), want.data());
      const codegen::CrsdJitKernel<double> kernel(m, compiler);
      std::vector<double> got(want.size(), -1.0);
      kernel.spmv(m, x.data(), got.data());
      EXPECT_EQ(bits(got), bits(want)) << mode;
      for (int threads : {2, 3, 4}) {
        ThreadPool pool(threads);
        std::fill(got.begin(), got.end(), -1.0);
        kernel.spmv_parallel(pool, m, x.data(), got.data());
        EXPECT_EQ(bits(got), bits(want))
            << mode << " on " << threads << " threads";
      }
    }
  }
}

TEST(InteriorSegments, TridiagonalSplitsFirstAndLastSegment) {
  const auto a = dense_band(64, 1);  // offsets {-1, 0, 1}
  const auto m = build(a, CrsdConfig{.mrows = 8});
  ASSERT_EQ(m.num_patterns(), 1);
  const auto in = m.interior_segments(0);
  // Row 0 reads column -1 and row 63 reads column 64: the first and last
  // segments are edge, everything between is clamp-free interior.
  EXPECT_EQ(in.begin, 1);
  EXPECT_EQ(in.end, 7);
}

TEST(InteriorSegments, SingleSegmentMatrixIsAllEdge) {
  // One segment covering the whole matrix is simultaneously the first and
  // last segment: its off-diagonals run out of range at both ends, so the
  // interior is empty and the whole product flows through the edge path.
  const auto a = dense_band(16, 1);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  ASSERT_EQ(m.num_patterns(), 1);
  const auto in = m.interior_segments(0);
  EXPECT_EQ(in.begin, in.end);
  const auto x = random_vector<double>(16, 5);
  std::vector<double> ref(16), got(16);
  a.spmv_reference(x.data(), ref.data());
  m.spmv(x.data(), got.data());
  expect_ulp_close(got, ref, 1e-12, "edge-only vs reference");
}

TEST(ParallelForChunked, CoversRangeOnceWithSmallChunks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(0, 1000, 7,
                            [&](index_t b, index_t e, int tid) {
                              EXPECT_GE(tid, 0);
                              EXPECT_LT(tid, 4);
                              for (index_t i = b; i < e; ++i) hits[i]++;
                            });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForChunked, SingleThreadAndEmptyRanges) {
  ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for_chunked(5, 5, 2,
                            [&](index_t, index_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for_chunked(0, 10, 3, [&](index_t b, index_t e, int tid) {
    EXPECT_EQ(tid, 0);
    calls += e - b;
  });
  EXPECT_EQ(calls, 10);
}

TEST(ParallelForChunked, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for_chunked(0, 100, 5,
                                [&](index_t b, index_t, int) {
                                  if (b >= 50) throw Error("chunk boom");
                                }),
      Error);
  // Pool stays usable afterwards.
  std::atomic<int> total{0};
  pool.parallel_for_chunked(0, 60, 4,
                            [&](index_t b, index_t e, int) {
                              total += static_cast<int>(e - b);
                            });
  EXPECT_EQ(total.load(), 60);
}

}  // namespace
}  // namespace crsd
