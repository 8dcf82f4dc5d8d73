// Tests for the simulated GPU SpMV kernels: numerical agreement with the
// COO reference for every format and both precisions (for CRSD, bitwise
// agreement with the CPU engine under every kernel setting), plus the
// qualitative counter properties the paper's evaluation rests on
// (coalescing, padding traffic, divergence, index-load savings, barrier
// costs).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "kernels/gpu_spmv.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"

namespace crsd::kernels {
namespace {

using gpusim::Device;
using gpusim::DeviceSpec;
using gpusim::LaunchResult;

template <Real T>
std::vector<T> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<T>(rng.next_double(-1.0, 1.0));
  return x;
}

template <Real T>
void expect_matches_reference(const Coo<T>& a, const std::vector<T>& got,
                              const std::vector<T>& x, double tol) {
  std::vector<T> want(static_cast<std::size_t>(a.num_rows()));
  a.spmv_reference(x.data(), want.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_LE(std::abs(double(got[i]) - double(want[i])),
              tol * (1.0 + std::abs(double(want[i]))))
        << "row " << i;
  }
}

template <Real T>
void check_format(Format f, const Coo<T>& a, double tol) {
  Device dev(DeviceSpec::tesla_c2050());
  const auto x = random_vector<T>(a.num_cols(), 7);
  std::vector<T> y(static_cast<std::size_t>(a.num_rows()), T(-1));
  SpmvOptions opts;
  opts.crsd_config = CrsdConfig{.mrows = 64};
  spmv(dev, f, a, x.data(), y.data(), opts);
  expect_matches_reference(a, y, x, tol);
  // All buffers must be released.
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

/// The CRSD kernel must reproduce CrsdMatrix::spmv bit for bit and release
/// every buffer it allocated.
template <Real T>
void expect_crsd_matches_engine(const CrsdMatrix<T>& m,
                                const CrsdGpuOptions& opts) {
  const auto x = random_vector<T>(m.num_cols(), 7);
  std::vector<T> want(static_cast<std::size_t>(m.num_rows()));
  m.spmv(x.data(), want.data());
  Device dev(DeviceSpec::tesla_c2050());
  std::vector<T> got(want.size(), T(-1));
  gpu_spmv_crsd(dev, m, x.data(), got.data(), opts);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0)
      << "jit_codelet " << opts.jit_codelet << ", use_local_memory "
      << opts.use_local_memory;
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

class GpuKernelSuite : public ::testing::TestWithParam<int> {};

TEST_P(GpuKernelSuite, AllFormatsMatchReference) {
  const auto& spec = paper_matrix(GetParam());
  const auto a = spec.generate(0.02);
  for (Format f : {Format::kCsr, Format::kDia, Format::kEll, Format::kHyb,
                   Format::kCoo, Format::kCrsd}) {
    check_format(f, a, 1e-12);
  }
  const auto af = a.template cast<float>();
  for (Format f : {Format::kCsr, Format::kEll, Format::kCrsd}) {
    check_format(f, af, 3e-4);
  }
  // Both cost models and both staging choices compute y in the CPU
  // engine's order.
  const auto m = build(a, CrsdConfig{.mrows = 64});
  for (const bool jit_codelet : {true, false}) {
    for (const bool use_local_memory : {true, false}) {
      CrsdGpuOptions opts;
      opts.jit_codelet = jit_codelet;
      opts.use_local_memory = use_local_memory;
      expect_crsd_matches_engine(m, opts);
    }
  }
  expect_crsd_matches_engine(build(af, CrsdConfig{.mrows = 64}),
                             CrsdGpuOptions{});
}

INSTANTIATE_TEST_SUITE_P(Suite, GpuKernelSuite,
                         ::testing::Values(1, 3, 5, 7, 9, 15, 18, 21),
                         [](const auto& suite_info) {
                           return paper_matrix(suite_info.param).name;
                         });

TEST(CsrScalarKernel, MatchesReferenceAndDiverges) {
  // Ragged rows: one dense row inside otherwise short rows forces the whole
  // wavefront to iterate max-length steps -> alu_slots > flops.
  Rng rng(3);
  Coo<double> a(256, 256);
  for (index_t r = 0; r < 256; ++r) a.add(r, r, 2.0);
  for (index_t c = 0; c < 200; ++c) a.add(17, c, 0.5);
  a.canonicalize();
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = CsrMatrix<double>::from_coo(a);
  const auto x = random_vector<double>(256, 1);
  std::vector<double> y(256);
  const LaunchResult r = gpu_spmv_csr_scalar(dev, m, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
  EXPECT_GT(r.counters.alu_slots, r.counters.flops);
}

TEST(CsrVectorKernel, CoalescesBetterThanScalarOnLongRows) {
  const auto a = dense_band(512, 16);  // 33 nnz/row
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = CsrMatrix<double>::from_coo(a);
  const auto x = random_vector<double>(512, 2);
  std::vector<double> y1(512), y2(512);
  const LaunchResult scalar = gpu_spmv_csr_scalar(dev, m, x.data(), y1.data());
  const LaunchResult vec = gpu_spmv_csr_vector(dev, m, x.data(), y2.data());
  expect_matches_reference(a, y1, x, 1e-12);
  expect_matches_reference(a, y2, x, 1e-12);
  EXPECT_LT(vec.counters.global_load_transactions,
            scalar.counters.global_load_transactions / 2);
}

TEST(CsrVectorKernel, ChargesRowPointerReads) {
  // Every row but one is empty, so nearly all a CSR kernel must load is the
  // row-pointer array: both kernels have to move at least its bytes.
  Coo<double> a(4096, 4096);
  a.add(0, 0, 2.0);
  a.canonicalize();
  const auto m = CsrMatrix<double>::from_coo(a);
  const size64_t row_ptr_bytes = m.row_ptr().size() * sizeof(index_t);
  Device dev(DeviceSpec::tesla_c2050());
  const std::vector<double> x(4096, 1.0);
  std::vector<double> y1(4096), y2(4096);
  const LaunchResult scalar = gpu_spmv_csr_scalar(dev, m, x.data(), y1.data());
  const LaunchResult vec = gpu_spmv_csr_vector(dev, m, x.data(), y2.data());
  expect_matches_reference(a, y2, x, 0.0);
  EXPECT_GE(scalar.counters.global_load_bytes, row_ptr_bytes);
  EXPECT_GE(vec.counters.global_load_bytes, row_ptr_bytes);
}

TEST(DiaKernel, PaddedTrafficDwarfsUsefulWorkOnScatteredDiagonals) {
  Rng rng(5);
  // 5 + 24*6 = 149 diagonals at 11 nnz/row: 13x padding, the s3dk shape.
  const auto a = fem_shell_like(4096, 24, 2, 6, 1.0, rng);
  Device dev(DeviceSpec::tesla_c2050());
  const auto dia = DiaMatrix<double>::from_coo(a);
  const auto ell = EllMatrix<double>::from_coo(a);
  const auto x = random_vector<double>(4096, 3);
  std::vector<double> y(4096);
  const LaunchResult rd = gpu_spmv_dia(dev, dia, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
  const LaunchResult re = gpu_spmv_ell(dev, ell, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
  // DIA reads every padded diagonal slot: far more bytes than ELL.
  EXPECT_GT(rd.counters.global_load_bytes,
            3 * re.counters.global_load_bytes);
  EXPECT_GT(re.gflops(a.nnz()), rd.gflops(a.nnz()));
}

TEST(CrsdKernel, SavesIndexTrafficVsEll) {
  // Same matrix, same useful flops; CRSD loads no per-element column
  // indices, so its load bytes must be lower than ELL's.
  const auto a = dense_band(8192, 12);
  Device dev(DeviceSpec::tesla_c2050());
  const auto ell = EllMatrix<double>::from_coo(a);
  const auto crsd = build(a, CrsdConfig{.mrows = 64});
  const auto x = random_vector<double>(8192, 4);
  std::vector<double> y(8192);
  const LaunchResult re = gpu_spmv_ell(dev, ell, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
  const LaunchResult rc = gpu_spmv_crsd(dev, crsd, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
  EXPECT_LT(rc.counters.global_load_bytes, re.counters.global_load_bytes);
  EXPECT_GT(rc.gflops(a.nnz()), re.gflops(a.nnz()));
}

TEST(CrsdKernel, LocalMemoryStagingPaysBarriers) {
  const auto a = dense_band(4096, 8);  // one wide AD group
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = build(a, CrsdConfig{.mrows = 64});
  const auto x = random_vector<double>(4096, 5);
  std::vector<double> y(4096);
  CrsdGpuOptions with_local;
  with_local.use_local_memory = true;
  CrsdGpuOptions no_local;
  no_local.use_local_memory = false;
  const LaunchResult rl = gpu_spmv_crsd(dev, m, x.data(), y.data(), with_local);
  expect_matches_reference(a, y, x, 1e-12);
  const LaunchResult rn = gpu_spmv_crsd(dev, m, x.data(), y.data(), no_local);
  expect_matches_reference(a, y, x, 1e-12);
  EXPECT_GT(rl.counters.barriers, 0u);
  EXPECT_EQ(rn.counters.barriers, 0u);
  EXPECT_GT(rl.counters.local_bytes, 0u);
}

TEST(CrsdKernel, JitCodeletModelBeatsInterpreted) {
  Rng rng(6);
  const auto a = fem_shell_like(8192, 8, 2, 6, 1.0, rng);
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = build(a, CrsdConfig{.mrows = 64});
  const auto x = random_vector<double>(8192, 6);
  std::vector<double> y(8192);
  CrsdGpuOptions jit;
  jit.jit_codelet = true;
  CrsdGpuOptions interp;
  interp.jit_codelet = false;
  const LaunchResult rj = gpu_spmv_crsd(dev, m, x.data(), y.data(), jit);
  const LaunchResult ri = gpu_spmv_crsd(dev, m, x.data(), y.data(), interp);
  EXPECT_LT(rj.counters.alu_slots, ri.counters.alu_slots);
  EXPECT_LE(rj.counters.global_load_bytes, ri.counters.global_load_bytes);
  EXPECT_GE(rj.gflops(a.nnz()), ri.gflops(a.nnz()));
}

TEST(CrsdKernel, ScatterRowsAreOverwrittenCorrectly) {
  Rng rng(7);
  auto a = dense_band(2048, 2);
  inject_scatter(a, 80, rng);
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = build(a, CrsdConfig{.mrows = 32});
  ASSERT_GT(m.num_scatter_rows(), 0);
  const auto x = random_vector<double>(2048, 8);
  std::vector<double> y(2048);
  gpu_spmv_crsd(dev, m, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
}

TEST(CrsdKernel, RejectsMrowsNotMultipleOfWavefront) {
  const auto a = dense_band(256, 2);
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = build(a, CrsdConfig{.mrows = 48});
  const auto x = random_vector<double>(256, 9);
  std::vector<double> y(256);
  EXPECT_THROW(gpu_spmv_crsd(dev, m, x.data(), y.data()), Error);
}

TEST(DiaKernel, DeviceOomReproducesAfK101Behaviour) {
  // A device with tiny memory: DIA must throw, ELL must fit — the paper's
  // af_*_k101 double-precision result in miniature.
  Rng rng(10);
  const auto a = fem_shell_like(4096, 16, 2, 10, 1.0, rng);  // 165 diagonals
  DeviceSpec spec = DeviceSpec::tesla_c2050();
  spec.global_mem_bytes = 4 << 20;  // 4 MB
  Device dev(spec);
  const auto x = random_vector<double>(4096, 11);
  std::vector<double> y(4096);
  EXPECT_THROW(spmv(dev, Format::kDia, a, x.data(), y.data()), Error);
  EXPECT_NO_THROW(spmv(dev, Format::kEll, a, x.data(), y.data()));
}

TEST(HybKernel, TailAddsSecondLaunchOverhead) {
  // Heavy-tailed rows force a genuine COO tail.
  Coo<double> a(4096, 4096);
  for (index_t r = 0; r < 4096; ++r) a.add(r, r, 2.0);
  for (index_t r = 0; r < 100; ++r) {
    for (index_t c = 0; c < 50; ++c) a.add(r * 40, c + 100, 0.5);
  }
  a.canonicalize();
  Device dev(DeviceSpec::tesla_c2050());
  const auto m = HybMatrix<double>::from_coo(a);
  ASSERT_GT(m.coo_nnz(), 0u);
  const auto x = random_vector<double>(a.num_cols(), 13);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  const LaunchResult r = gpu_spmv_hyb(dev, m, x.data(), y.data());
  expect_matches_reference(a, y, x, 1e-12);
  EXPECT_GE(r.seconds, 2 * DeviceSpec::tesla_c2050().launch_overhead_seconds);
}

TEST(AllKernels, SingleVsDoubleTimingOrder) {
  // Single precision moves half the value bytes: for a bandwidth-bound
  // kernel the simulated time must drop.
  const auto a = dense_band(16384, 8);
  const auto af = a.cast<float>();
  Device dev(DeviceSpec::tesla_c2050());
  const auto xd = random_vector<double>(a.num_cols(), 14);
  const auto xf = random_vector<float>(a.num_cols(), 14);
  std::vector<double> yd(static_cast<std::size_t>(a.num_rows()));
  std::vector<float> yf(static_cast<std::size_t>(a.num_rows()));
  const auto md = build(a, CrsdConfig{.mrows = 64});
  const auto mf = build(af, CrsdConfig{.mrows = 64});
  const LaunchResult rd = gpu_spmv_crsd(dev, md, xd.data(), yd.data());
  const LaunchResult rf = gpu_spmv_crsd(dev, mf, xf.data(), yf.data());
  EXPECT_LT(rf.seconds, rd.seconds);
  EXPECT_GT(rf.gflops(af.nnz()), rd.gflops(a.nnz()));
}

}  // namespace
}  // namespace crsd::kernels
