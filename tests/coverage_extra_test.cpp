// Additional coverage: CRSD GPU kernel across device presets and segment
// sizes, simulator corner cases, sweep-cost model properties, and spy/
// reorder helpers under unusual inputs.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "kernels/gpu_spmv.hpp"
#include "matrix/generators.hpp"
#include "matrix/reorder.hpp"
#include "matrix/spy.hpp"
#include "perf/cpu_model.hpp"

namespace crsd {
namespace {

using gpusim::DeviceSpec;

// ---------------------------------------------------------------------------
// Device x mrows correctness sweep.

struct DeviceMrowsCase {
  const char* device;
  index_t mrows;
};

// Prints "c2050/mrows32": without it gtest prints the struct's raw bytes,
// pointer and padding included, into every test's listed name.
void PrintTo(const DeviceMrowsCase& c, std::ostream* os) {
  *os << c.device << "/mrows" << c.mrows;
}

class DeviceMrowsSweep : public ::testing::TestWithParam<DeviceMrowsCase> {};

DeviceSpec spec_by_name(const std::string& name) {
  if (name == "c2050") return DeviceSpec::tesla_c2050();
  if (name == "gtx280") return DeviceSpec::geforce_gtx280();
  return DeviceSpec::amd_cypress();
}

TEST_P(DeviceMrowsSweep, CrsdKernelCorrectOnEveryDevice) {
  const auto& param = GetParam();
  const DeviceSpec spec = spec_by_name(param.device);
  if (param.mrows % spec.wavefront_size != 0) {
    GTEST_SKIP() << "mrows not a wavefront multiple on this device";
  }
  Rng rng(1);
  const auto a = astro_convection(9, 9, 6, true, rng);
  const auto m = build(a, CrsdConfig{.mrows = param.mrows});
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> got(want.size(), -1);
  a.spmv_reference(x.data(), want.data());
  gpusim::Device dev(spec);
  const auto r = kernels::gpu_spmv_crsd(dev, m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-12) << i;
  }
  EXPECT_GT(r.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeviceMrowsSweep,
    ::testing::Values(DeviceMrowsCase{"c2050", 32}, DeviceMrowsCase{"c2050", 64},
                      DeviceMrowsCase{"c2050", 256},
                      DeviceMrowsCase{"gtx280", 64},
                      DeviceMrowsCase{"gtx280", 128},
                      DeviceMrowsCase{"cypress", 64},
                      DeviceMrowsCase{"cypress", 128},
                      DeviceMrowsCase{"cypress", 256}),
    [](const auto& suite_info) {
      return std::string(suite_info.param.device) + "_mrows" +
             std::to_string(suite_info.param.mrows);
    });

// ---------------------------------------------------------------------------
// Simulator corner cases.

TEST(SimCorners, GatherWithZeroLanesIsNoop) {
  gpusim::Device dev(DeviceSpec::tesla_c2050());
  const gpusim::Buffer buf = dev.alloc(1024);
  gpusim::LaunchConfig cfg;
  cfg.num_groups = 1;
  cfg.group_size = 32;
  const auto r = gpusim::launch(dev, cfg, [&](gpusim::WorkGroupCtx& ctx) {
    ctx.global_gather(buf, nullptr, 0, 8, true);
    ctx.global_read_block(buf, 0, 0, 8);
  });
  EXPECT_EQ(r.counters.global_load_transactions, 0u);
}

TEST(SimCorners, ZeroLaunchOverheadWhenFused) {
  const DeviceSpec spec = DeviceSpec::tesla_c2050();
  gpusim::Counters c;
  c.wavefronts = 1;
  gpusim::LaunchConfig cfg;
  cfg.num_groups = 1;
  cfg.group_size = 32;
  cfg.launches = 0;  // tail fused into a previous launch
  const double t0 = gpusim::estimate_seconds(spec, c, cfg);
  cfg.launches = 1;
  const double t1 = gpusim::estimate_seconds(spec, c, cfg);
  EXPECT_NEAR(t1 - t0, spec.launch_overhead_seconds, 1e-12);
}

TEST(SimCorners, WideWavefrontCoalescesMore) {
  // The same 64-lane contiguous double read: 32-wide wavefronts need two
  // instructions of 2 transactions each; a 64-wide wavefront issues one
  // instruction of 4 transactions. Totals agree; per-instruction grouping
  // differs. Verify via a strided pattern where width matters: lanes read
  // every other element, so a 64-wide wave covers twice the span.
  DeviceSpec narrow = DeviceSpec::tesla_c2050();
  DeviceSpec wide = DeviceSpec::amd_cypress();
  auto run = [](const DeviceSpec& spec) {
    gpusim::Device dev(spec);
    const gpusim::Buffer buf = dev.alloc(1 << 20);
    gpusim::LaunchConfig cfg;
    cfg.num_groups = 1;
    cfg.group_size = 64;
    return gpusim::launch(dev, cfg, [&](gpusim::WorkGroupCtx& ctx) {
             std::vector<size64_t> idx(64);
             for (int i = 0; i < 64; ++i) {
               idx[static_cast<std::size_t>(i)] =
                   static_cast<size64_t>(i) * 2;
             }
             ctx.global_gather(buf, idx.data(), 64, 8, false);
           })
        .counters.global_load_transactions;
  };
  // 64 lanes x stride-2 doubles span 1024 B = 8 segments either way.
  EXPECT_EQ(run(narrow), 8u);
  EXPECT_EQ(run(wide), 8u);
}

TEST(SimCorners, DeviceMemoryPressureAccumulatesAcrossKernels) {
  DeviceSpec spec = DeviceSpec::tesla_c2050();
  spec.global_mem_bytes = 1 << 20;
  gpusim::Device dev(spec);
  const auto a = dense_band(4096, 2);  // values alone ~160 KB as double
  const auto m = CsrMatrix<double>::from_coo(a);
  std::vector<double> x(4096, 1.0), y(4096);
  // First call allocates and frees; repeated calls must not leak budget.
  for (int i = 0; i < 3; ++i) {
    kernels::gpu_spmv_csr_vector(dev, m, x.data(), y.data());
    EXPECT_EQ(dev.allocated_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Sweep-cost model properties.

TEST(SweepCost, CrsdCostGrowsWithFill) {
  Rng rng(2);
  const auto a = broken_diagonals(4096, {{7, 0.5, 4}, {-2, 0.9, 2}}, rng);
  CrsdConfig tight;
  tight.mrows = 32;
  tight.fill_max_gap_segments = 0;
  CrsdConfig loose;
  loose.mrows = 32;
  loose.fill_max_gap_segments = 64;  // bridge everything
  const auto st_tight = build(a, tight).stats();
  const auto st_loose = build(a, loose).stats();
  const auto c_tight = perf::crsd_sweep_cost(st_tight, a.num_rows(), 8);
  const auto c_loose = perf::crsd_sweep_cost(st_loose, a.num_rows(), 8);
  EXPECT_GE(st_loose.dia_slots, st_tight.dia_slots);
  EXPECT_GE(c_loose.bytes, c_tight.bytes);
}

TEST(SweepCost, DiaExplodesWithDiagonalCount) {
  StructureStats narrow;
  narrow.num_rows = narrow.num_cols = 100000;
  narrow.nnz = 700000;
  narrow.diagonals.resize(7);
  StructureStats scattered = narrow;
  scattered.diagonals.resize(700);
  EXPECT_GT(perf::dia_sweep_cost(scattered, 8).bytes,
            50 * perf::dia_sweep_cost(narrow, 8).bytes);
}

// ---------------------------------------------------------------------------
// Helpers under unusual inputs.

TEST(SpyExtra, TinyAndWideMatrices) {
  Coo<double> tiny(1, 1);
  tiny.add(0, 0, 1.0);
  tiny.canonicalize();
  EXPECT_NE(spy_string(tiny, 4).find('#'), std::string::npos);

  Coo<double> wide(2, 500);
  wide.add(0, 0, 1.0);
  wide.add(1, 499, 1.0);
  wide.canonicalize();
  const std::string s = spy_string(wide, 20);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2 + 2);  // frame + 2 rows
  EXPECT_THROW(spy_string(wide, 1), Error);
}

TEST(ReorderExtra, IdentityOnAlreadyBandedMatrix) {
  const auto band = dense_band(128, 2);
  const Permutation p = reverse_cuthill_mckee(band);
  const auto b = permute_symmetric(band, p);
  // RCM cannot do worse than the existing band.
  EXPECT_LE(matrix_bandwidth(b), matrix_bandwidth(band));
}

TEST(ReorderExtra, PermuteVectorAgreesWithDefinition) {
  Permutation p{{3, 1, 0, 2}};
  const std::vector<double> x = {10, 11, 12, 13};
  const auto px = permute_vector(x, p);
  EXPECT_EQ(px, (std::vector<double>{13, 11, 10, 12}));
}

TEST(ReorderExtra, RejectsRectangularAndMismatched) {
  Coo<double> rect(3, 4);
  rect.add(0, 0, 1.0);
  rect.canonicalize();
  EXPECT_THROW(reverse_cuthill_mckee(rect), Error);
  Coo<double> sq(3, 3);
  sq.add(0, 0, 1.0);
  sq.canonicalize();
  EXPECT_THROW(permute_symmetric(sq, Permutation{{0, 1}}), Error);
}

}  // namespace
}  // namespace crsd
