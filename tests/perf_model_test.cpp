// Tests for the CPU roofline model feeding Figs. 11/12 and Table VI.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "perf/cpu_model.hpp"

namespace crsd::perf {
namespace {

TEST(CpuSystemSpec, XeonPreset) {
  const CpuSystemSpec spec = CpuSystemSpec::xeon_x5550_2s();
  EXPECT_EQ(spec.total_cores(), 8);  // Table IV: 2 sockets x quad-core
  EXPECT_DOUBLE_EQ(spec.clock_ghz, 2.67);
  // Bandwidth scales with threads then saturates.
  EXPECT_LT(spec.bandwidth_gbps(1), spec.bandwidth_gbps(4));
  EXPECT_DOUBLE_EQ(spec.bandwidth_gbps(8), spec.bandwidth_gbps(16));
}

TEST(SweepCosts, OrderingOnScatteredDiagonalMatrix) {
  Rng rng(1);
  const auto a = fem_shell_like(8192, 16, 2, 8, 1.0, rng);
  const auto stats = compute_stats(a);
  const auto crsd = build(a, CrsdConfig{.mrows = 64});
  const SweepCost csr = csr_sweep_cost(stats, 8);
  const SweepCost dia = dia_sweep_cost(stats, 8);
  const SweepCost ell = ell_sweep_cost(stats, 8);
  const SweepCost cr = crsd_sweep_cost(crsd.stats(), a.num_rows(), 8);
  // DIA pads ~133 diagonals against ~13 nnz/row.
  EXPECT_GT(dia.bytes, 5 * csr.bytes);
  EXPECT_GT(dia.bytes, 5 * ell.bytes);
  // CRSD carries values without per-element indices: cheapest stream.
  EXPECT_LT(cr.bytes, csr.bytes);
  EXPECT_LT(cr.bytes, ell.bytes);
}

TEST(SweepCosts, SinglePrecisionHalvesValueStream) {
  const auto a = dense_band(4096, 6);
  const auto stats = compute_stats(a);
  const SweepCost d = csr_sweep_cost(stats, 8);
  const SweepCost s = csr_sweep_cost(stats, 4);
  EXPECT_LT(s.bytes, d.bytes);
  EXPECT_EQ(s.flops, d.flops);
}

TEST(SweepCosts, CrsdUsesActualStreamWidthsFromStats) {
  // A compact build reports its true stream bytes through CrsdStats, and
  // the model must cost those — not the historical "T values + 4-byte
  // indices" assumption.
  Rng rng(1);
  auto a = fem_shell_like(8192, 16, 2, 8, 1.0, rng);
  inject_scatter(a, 200, rng);

  const auto fp64 = build(a, CrsdConfig{.mrows = 64});
  CrsdConfig compact_cfg{.mrows = 64};
  compact_cfg.storage.value_precision = ValuePrecision::kFloat32;
  compact_cfg.storage.narrow_scatter_indices = true;
  const auto fp32 = build(a, compact_cfg);

  const SweepCost full = crsd_sweep_cost(fp64.stats(), a.num_rows(), 8);
  const SweepCost diet = crsd_sweep_cost(fp32.stats(), a.num_rows(), 8);
  // Same slot structure, so identical flops; the value stream halves and
  // the scatter indices drop from 4 to 2 bytes, so bytes must shrink by
  // more than the value-stream halving alone would leave.
  EXPECT_EQ(full.flops, diet.flops);
  EXPECT_LT(diet.bytes, full.bytes);
  const size64_t dia_value_saving = fp64.stats().dia_slots * (8 - 4);
  EXPECT_GT(full.bytes - diet.bytes, dia_value_saving);
}

TEST(SweepCosts, HandBuiltStatsFallBackToUniformWidths) {
  // Stats assembled by hand (no container) carry zero byte fields; the
  // model must then reproduce the historical formula exactly.
  CrsdStats s;
  s.dia_slots = 1000;
  s.num_scatter_rows = 10;
  s.scatter_width = 8;
  const index_t rows = 500;
  const SweepCost c = crsd_sweep_cost(s, rows, 8);
  const size64_t scatter_slots = 10 * 8;
  EXPECT_EQ(c.bytes, 1000 * 8 + scatter_slots * (8 + sizeof(index_t)) +
                         2 * static_cast<size64_t>(rows) * 8);
  EXPECT_EQ(c.flops, 2 * (1000 + scatter_slots));
}

TEST(Roofline, BandwidthBoundScalesWithThreadsThenSaturates) {
  const CpuSystemSpec spec = CpuSystemSpec::xeon_x5550_2s();
  SweepCost cost;
  cost.bytes = 100'000'000;
  cost.flops = 1'000'000;  // clearly bandwidth-bound
  const double t1 = cpu_spmv_seconds(spec, cost, 1, true);
  const double t4 = cpu_spmv_seconds(spec, cost, 4, true);
  const double t8 = cpu_spmv_seconds(spec, cost, 8, true);
  // MKL-calibrated scaling: ~2.2x at saturation (Table VI), so 4 threads
  // already sit near the ceiling.
  EXPECT_GT(t1, 2 * t4);
  EXPECT_GE(t4, t8);
  // Past saturation more threads stop helping.
  EXPECT_NEAR(cpu_spmv_seconds(spec, cost, 16, true), t8, t8 * 0.05);
}

TEST(Roofline, PlausibleMklScaleGflops) {
  // Sanity anchor: MKL CSR SpMV on Nehalem runs ~0.5-2 GFLOPS serial and
  // ~3-8 GFLOPS with 8 threads in double precision.
  const auto& spec = paper_matrix(9);  // kim1
  const auto a = spec.generate(0.1);
  const auto stats = compute_stats(a);
  const CpuSystemSpec cpu = CpuSystemSpec::xeon_x5550_2s();
  const SweepCost cost = csr_sweep_cost(stats, 8);
  const double serial =
      2.0 * double(stats.nnz) / cpu_spmv_seconds(cpu, cost, 1, true) / 1e9;
  const double threaded =
      2.0 * double(stats.nnz) / cpu_spmv_seconds(cpu, cost, 8, true) / 1e9;
  EXPECT_GT(serial, 0.3);
  EXPECT_LT(serial, 2.5);
  EXPECT_GT(threaded, 2.0);
  EXPECT_LT(threaded, 10.0);
}

}  // namespace
}  // namespace crsd::perf
