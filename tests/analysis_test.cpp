// Static kernel-access analyzer suite: clean baselines prove every storage
// mode and geometry toggle safe with zero findings; the coalescing replay
// reproduces the simulator's measured counters and seconds exactly; and each
// planted defect class (unclamped edge read, divergent barrier, duplicate
// scatter target) is refuted by precisely the matching diagnostic.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/analyze.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "gpusim/device.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/generators.hpp"
#include "perf/cpu_model.hpp"

namespace crsd::analysis {
namespace {

using check::Code;
using check::has_code;

/// Every storage mode of the bandwidth bench, fp64 baseline first.
const std::vector<StorageOptions>& all_modes() {
  static const std::vector<StorageOptions> modes = {
      {},
      {ValuePrecision::kNative, true},
      {ValuePrecision::kFloat32, true},
  };
  return modes;
}

/// Structured + scatter mix: an AD run {-1, 0, 1} (staged through local
/// memory), far NAD diagonals ±96 with edge overhang (the clamp matters),
/// broken runs (multiple patterns), and injected scatter rows.
Coo<double> mixed_matrix() {
  Rng rng(7);
  auto a = broken_diagonals(
      700, {{-96, 0.55, 4}, {-1, 1.0, 1}, {0, 1.0, 1}, {1, 0.9, 2},
            {96, 0.6, 5}},
      rng);
  inject_scatter(a, 60, rng);
  return a;
}

CrsdMatrix<double> build_mode(const StorageOptions& s, index_t mrows = 64) {
  CrsdConfig cfg;
  cfg.mrows = mrows;
  cfg.storage = s;
  return build(mixed_matrix(), cfg);
}

gpusim::LaunchResult measure(const CrsdMatrix<double>& m,
                             const AnalyzeOptions& aopts) {
  // Fresh device: the model assumes the allocator state of an unused device
  // (base addresses feed the cache set mapping).
  gpusim::Device dev(aopts.spec);
  Rng rng(2026);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> y(static_cast<std::size_t>(m.num_rows()));
  kernels::CrsdGpuOptions gopts;
  gopts.use_local_memory = aopts.use_local_memory;
  gopts.jit_codelet = aopts.jit_codelet;
  return kernels::gpu_spmv_crsd(dev, m, x.data(), y.data(), gopts);
}

TEST(Analysis, CleanAcrossStorageModesAndGeometry) {
  for (const auto& mode : all_modes()) {
    const auto m = build_mode(mode);
    for (const bool local : {true, false}) {
      for (const bool jit : {true, false}) {
        AnalyzeOptions opts;
        opts.use_local_memory = local;
        opts.jit_codelet = jit;
        const AnalysisReport rep = analyze_crsd_launch(m, opts);
        EXPECT_TRUE(rep.clean())
            << "mode vp=" << int(mode.value_precision) << " local=" << local
            << " jit=" << jit << ":\n"
            << check::format_diagnostics(rep.diagnostics);
      }
    }
  }
}

TEST(Analysis, ReplayMatchesMeasuredCountersExactly) {
  for (const auto& mode : all_modes()) {
    const auto m = build_mode(mode);
    for (const bool local : {true, false}) {
      AnalyzeOptions opts;
      opts.use_local_memory = local;
      const CoalescingReport rep =
          predict_crsd_counters(build_launch_model(m, opts));
      const gpusim::LaunchResult launch = measure(m, opts);
      const auto& c = launch.counters;
      EXPECT_EQ(rep.counters.global_load_transactions,
                c.global_load_transactions);
      EXPECT_EQ(rep.counters.global_store_transactions,
                c.global_store_transactions);
      EXPECT_EQ(rep.counters.global_load_bytes, c.global_load_bytes);
      EXPECT_EQ(rep.counters.global_store_bytes, c.global_store_bytes);
      EXPECT_EQ(rep.counters.cache_hits, c.cache_hits);
      EXPECT_EQ(rep.counters.cache_misses, c.cache_misses);
      EXPECT_EQ(rep.counters.local_bytes, c.local_bytes);
      EXPECT_EQ(rep.counters.barriers, c.barriers);
      EXPECT_EQ(rep.counters.wavefronts, c.wavefronts);
      // The replay attributes predication differently inside a diagonal but
      // preserves the issue-slot total, which is what the timing model uses.
      EXPECT_EQ(rep.counters.flops + rep.counters.alu_slots,
                c.flops + c.alu_slots);
      EXPECT_DOUBLE_EQ(rep.predicted_seconds, launch.seconds);
    }
  }
}

TEST(Analysis, PredictorFeedsPerfModel) {
  const auto m = build_mode(all_modes()[2]);  // fp32+i16 headline mode
  const AnalyzeOptions opts;
  const CoalescingReport rep =
      predict_crsd_counters(build_launch_model(m, opts));
  EXPECT_DOUBLE_EQ(
      perf::predict_crsd_spmv_seconds(opts.spec, rep.counters,
                                      /*double_precision=*/true),
      rep.predicted_seconds);
  EXPECT_DOUBLE_EQ(rep.predicted_seconds, measure(m, opts).seconds);
}

TEST(Analysis, PerPatternTrafficSumsToTotals) {
  const auto m = build_mode(all_modes()[0]);
  const CoalescingReport rep =
      predict_crsd_counters(build_launch_model(m, {}));
  ASSERT_FALSE(rep.per_pattern.empty());
  size64_t loads = 0, stores = 0, wavefronts = 0;
  for (const auto& pt : rep.per_pattern) {
    loads += pt.load_transactions;
    stores += pt.store_transactions;
    wavefronts += pt.wavefronts;
    EXPECT_GE(pt.transactions_per_wavefront(), 0.0);
  }
  EXPECT_EQ(loads, rep.counters.global_load_transactions);
  EXPECT_EQ(stores, rep.counters.global_store_transactions);
  EXPECT_EQ(wavefronts, rep.counters.wavefronts);
}

// --- Mutation fixtures: each planted defect is flagged statically. -------

TEST(AnalysisMutation, UnclampedEdgeReadIsRefuted) {
  const auto m = build_mode(all_modes()[0]);
  LaunchModel lm = build_launch_model(m, {});
  ASSERT_TRUE(analyze_model(lm).empty());
  // Model a kernel that skips the x clamp: the ±96 diagonals overhang the
  // column range at the edges, so some pattern's raw read interval must
  // escape [0, num_cols).
  for (auto& pm : lm.patterns) pm.clamp_x = false;
  const auto diags = analyze_model(lm);
  EXPECT_TRUE(has_code(diags, Code::kGlobalOutOfBounds))
      << check::format_diagnostics(diags);
}

TEST(AnalysisMutation, DivergentBarrierIsRefuted) {
  const auto m = build_mode(all_modes()[0]);
  LaunchModel lm = build_launch_model(m, {});
  ASSERT_TRUE(analyze_model(lm).empty());
  // Find a staged AD group and model a kernel where only half the
  // work-items reach its staging barrier.
  bool planted = false;
  for (auto& pm : lm.patterns) {
    for (auto& gm : pm.groups) {
      if (gm.adjacent && gm.num_diagonals >= 2) {
        gm.barrier_participating = lm.mrows / 2;
        planted = true;
        break;
      }
    }
    if (planted) break;
  }
  ASSERT_TRUE(planted) << "fixture needs a staged AD group";
  const auto diags = analyze_model(lm);
  EXPECT_TRUE(has_code(diags, Code::kBarrierDivergence))
      << check::format_diagnostics(diags);
}

TEST(AnalysisMutation, DuplicateScatterTargetIsRefuted) {
  const auto m = build_mode(all_modes()[0]);
  LaunchModel lm = build_launch_model(m, {});
  ASSERT_TRUE(analyze_model(lm).empty());
  ASSERT_GE(lm.scatter.rowno.size(), 2u);
  // Two scatter rows writing the same y row race with each other.
  lm.scatter.rowno[1] = lm.scatter.rowno[0];
  const auto diags = analyze_model(lm);
  EXPECT_TRUE(has_code(diags, Code::kWriteConflict))
      << check::format_diagnostics(diags);
}

}  // namespace
}  // namespace crsd::analysis
