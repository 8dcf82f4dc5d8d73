// Cross-module integration tests: the full pipeline (generator -> stats ->
// formats -> simulated GPU -> counters -> timing), counter-consistency
// invariants, Matrix Market file round trips, and an end-to-end solve with
// a JIT codelet built from a file-loaded matrix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/inspect.hpp"
#include "kernels/gpu_spmv.hpp"
#include "matrix/generators.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/paper_suite.hpp"
#include "solver/solvers.hpp"
#include "temp_cache_dir.hpp"

namespace crsd {
namespace {

namespace fs = std::filesystem;

TEST(Integration, CounterInvariantsHoldAcrossFormats) {
  const auto a = paper_matrix(18).generate(0.03);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  for (Format f : {Format::kCsr, Format::kDia, Format::kEll, Format::kHyb,
                   Format::kCrsd}) {
    gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
    const auto r = kernels::spmv(dev, f, a, x.data(), y.data());
    const auto& c = r.counters;
    // Transaction and byte counters are coupled by the 128 B granule.
    EXPECT_EQ(c.global_load_bytes, c.global_load_transactions * 128u)
        << format_name(f);
    EXPECT_EQ(c.global_store_bytes, c.global_store_transactions * 128u)
        << format_name(f);
    // Every format performs exactly 2*nnz useful flops.
    EXPECT_EQ(c.flops, 2 * a.nnz()) << format_name(f);
    // y is written at least once: stores cover the result vector.
    EXPECT_GE(c.global_store_bytes,
              static_cast<size64_t>(a.num_rows()) * sizeof(double))
        << format_name(f);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(c.wavefronts, 0u);
  }
}

TEST(Integration, CrsdMovesFewerBytesThanIndexCarryingFormats) {
  // The paper's index-traffic argument, end to end: CRSD's generated
  // codelet loads no per-element column indices, so its traffic undercuts
  // every index-carrying format (CSR/ELL/HYB). DIA is excluded — on a
  // fully-dense-diagonal matrix like kim2 DIA is also index-free and
  // byte-optimal; CRSD's win over DIA comes on *scattered* diagonals
  // (covered by kernels_gpu_test).
  const auto a = paper_matrix(10).generate(0.02);  // kim2-like
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  size64_t crsd_bytes = 0, best_indexed = ~size64_t{0};
  for (Format f :
       {Format::kCsr, Format::kEll, Format::kHyb, Format::kCrsd}) {
    gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
    const auto r = kernels::spmv(dev, f, a, x.data(), y.data());
    const size64_t bytes = r.counters.total_global_bytes();
    if (f == Format::kCrsd) {
      crsd_bytes = bytes;
    } else {
      best_indexed = std::min(best_indexed, bytes);
    }
  }
  EXPECT_LT(crsd_bytes, best_indexed);
}

TEST(Integration, MatrixMarketFileRoundTripThroughCrsd) {
  const fs::path path = fs::temp_directory_path() /
                        ("crsd-it-" + std::to_string(::getpid()) + ".mtx");
  Rng rng(3);
  auto original = broken_diagonals(
      600, {{4, 0.6, 2}, {-11, 0.8, 3}, {1, 1.0, 1}}, rng);
  inject_scatter(original, 15, rng);
  write_matrix_market_file(path.string(), original);

  const Coo<double> loaded = read_matrix_market_file(path.string());
  fs::remove(path);
  ASSERT_EQ(loaded.nnz(), original.nnz());

  // CRSD built from the file reconstructs the file's matrix exactly.
  const auto m = build(loaded, CrsdConfig{.mrows = 32});
  const Coo<double> back = crsd_to_coo(m);
  EXPECT_EQ(back.row_indices(), original.row_indices());
  EXPECT_EQ(back.col_indices(), original.col_indices());
  for (size64_t k = 0; k < original.nnz(); ++k) {
    EXPECT_DOUBLE_EQ(back.values()[k], original.values()[k]);
  }
}

TEST(Integration, ReadMissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/nope.mtx"), Error);
}

TEST(Integration, SolverOverJitKernelFromGeneratedSuiteMatrix) {
  // ecology-style diffusion system (nonsymmetric after the generator's
  // random couplings), solved with BiCGSTAB over the compiled codelet —
  // generator, builder, codegen, JIT, and solver in one path.
  auto a = paper_matrix(5).generate(0.004);
  make_diagonally_dominant(a, 0.5);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  const TempCacheDir dir("it-cache");
  codegen::JitCompiler::Options jopts;
  jopts.cache_dir = dir.str();
  codegen::JitCompiler compiler(jopts);
  const codegen::CrsdJitKernel<double> kernel(m, compiler);

  const index_t n = a.num_rows();
  std::vector<double> x_star(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.spmv_reference(x_star.data(), b.data());
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  solver::SolveOptions opts;
  opts.max_iterations = 3000;
  opts.tolerance = 1e-11;
  const auto result = solver::bicgstab<double>(
      n, [&](const double* in, double* out) { kernel.spmv(m, in, out); },
      b.data(), x.data(), opts);
  EXPECT_TRUE(result.converged);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0, 1e-6);
  }
}

TEST(Integration, GpuResultsIdenticalAcrossRepeatRuns) {
  // The simulator must be deterministic: identical counters and identical y
  // run to run, with and without a thread pool.
  const auto a = paper_matrix(21).generate(0.02);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y1(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> y2(y1.size());
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto r1 = kernels::spmv(dev, Format::kCrsd, a, x.data(), y1.data());
  ThreadPool pool(3);
  kernels::SpmvOptions opts2;
  opts2.crsd_config = CrsdConfig{};
  const auto r2 = kernels::spmv(dev, Format::kCrsd, a, x.data(), y2.data(),
                                opts2, &pool);
  EXPECT_EQ(y1, y2);
  EXPECT_EQ(r1.counters.global_load_transactions,
            r2.counters.global_load_transactions);
  EXPECT_EQ(r1.counters.cache_hits, r2.counters.cache_hits);
  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
}

}  // namespace
}  // namespace crsd
