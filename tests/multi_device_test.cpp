// Multi-device sharded SpMV suite: bitwise identity of the sharded sweep
// against the single-device launch across 1/2/4 devices and every storage
// mode, shard-plan structure, x-window coverage, the broken-partition
// mutation fixtures (x windows included), scatter-safe pipelined D2H,
// memcheck-clean ranged launches, the one row-split lowering shared with
// the hybrid engine, and device memory given back by a failed launch.
// Suite names contain "MultiDevice" so the TSan CI job picks them up via
// its -R filter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "check/memcheck.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "hybrid/hybrid_spmv.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/generators.hpp"
#include "runtime/multi_device.hpp"

namespace crsd::rt {
namespace {

using gpusim::Device;
using gpusim::DeviceSpec;

/// Structured + scatter mix engaging every builder feature, so shards carry
/// diagonal runs, ragged edges, and scatter rows.
Coo<double> mixed_matrix(int seed = 7) {
  Rng rng(seed);
  auto a = broken_diagonals(
      900, {{-96, 0.55, 4}, {-1, 1.0, 1}, {0, 1.0, 1}, {1, 0.9, 2},
            {96, 0.6, 5}},
      rng);
  inject_scatter(a, 70, rng);
  return a;
}

std::vector<StorageOptions> all_modes() {
  return {
      {},  // fp64, raw int32 scatter columns
      {ValuePrecision::kNative, true},
      {ValuePrecision::kFloat32, true},
  };
}

std::string mode_name(const StorageOptions& s) {
  return std::string(value_precision_name(s.value_precision)) +
         (s.narrow_scatter_indices ? "+i16" : "");
}

TEST(MultiDevice, ShardPlanPartitionsTheMatrix) {
  const auto a = mixed_matrix();
  const auto m = build(a, CrsdConfig{.mrows = 64});
  for (int nd : {1, 2, 3, 4}) {
    const auto shards = plan_shards(m, nd);
    EXPECT_EQ(static_cast<int>(shards.size()), nd);
    EXPECT_TRUE(validate_shard_partition(m, shards).empty()) << nd;
    for (const Shard& s : shards) {
      // The x-window covers the shard's own row span (main-diagonal reads).
      if (s.range.seg_begin == s.range.seg_end) continue;
      EXPECT_LE(s.range.x_begin, s.range.row_begin);
      EXPECT_GE(s.range.x_end, std::min(s.range.row_end, m.num_cols()));
    }
  }
}

TEST(MultiDevice, BitwiseIdenticalToSingleDeviceAcrossModes) {
  // The sharded sweep runs sub-ranges of the same built container, so the
  // merged y must equal the single-device launch bit for bit — for every
  // device count and every storage mode (quantized modes are deterministic
  // too, just quantized the same way on every path).
  const auto a = mixed_matrix();
  Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  ThreadPool pool(4);

  for (const StorageOptions& mode : all_modes()) {
    CrsdConfig cfg;
    cfg.mrows = 64;
    cfg.storage = mode;
    const auto m = build(a, cfg);

    Device ref_dev(DeviceSpec::tesla_c2050());
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));
    kernels::gpu_spmv_crsd(ref_dev, m, x.data(), y_ref.data());

    for (int nd : {1, 2, 4}) {
      std::vector<Device> devs(static_cast<std::size_t>(nd),
                               Device(DeviceSpec::tesla_c2050()));
      std::vector<Device*> dev_ptrs;
      for (auto& d : devs) dev_ptrs.push_back(&d);

      const MultiDeviceSpmv<double> engine(m, nd);
      std::vector<double> y(static_cast<std::size_t>(a.num_rows()), -1.0);
      const MultiDeviceResult res = engine.run(dev_ptrs, x.data(), y.data(), pool);
      EXPECT_GT(res.makespan_seconds, 0.0);
      for (std::size_t i = 0; i < y.size(); ++i) {
        ASSERT_EQ(y[i], y_ref[i])
            << mode_name(mode) << " devices=" << nd << " row " << i;
      }
    }
  }
}

TEST(MultiDevice, ResidentVectorsSkipTransfers) {
  const auto a = mixed_matrix();
  const auto m = build(a, CrsdConfig{.mrows = 64});
  Rng rng(3);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));
  Device ref_dev(DeviceSpec::tesla_c2050());
  kernels::gpu_spmv_crsd(ref_dev, m, x.data(), y_ref.data());

  MultiDeviceOptions opts;
  opts.transfer_vectors = false;
  const MultiDeviceSpmv<double> engine(m, 2, opts);
  std::vector<Device> devs(2, Device(DeviceSpec::tesla_c2050()));
  std::vector<Device*> dev_ptrs{&devs[0], &devs[1]};
  ThreadPool pool(4);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  const MultiDeviceResult res = engine.run(dev_ptrs, x.data(), y.data(), pool);
  EXPECT_EQ(res.h2d_seconds, 0.0);
  EXPECT_EQ(res.d2h_seconds, 0.0);
  EXPECT_GT(res.compute_seconds, 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y[i], y_ref[i]) << "row " << i;
  }
}

TEST(MultiDevice, ResidentShardRunsAsOneLaunch) {
  // With nothing to copy there is nothing to overlap: a one-device resident
  // run of a shard well past two saturation points must cost exactly the
  // one standalone launch, not several derated part launches.
  const auto a = dense_band(16384, 32);
  const auto m = build(a, CrsdConfig{.mrows = 64});
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));
  Device ref_dev(DeviceSpec::tesla_c2050());
  const double launch_seconds =
      kernels::gpu_spmv_crsd(ref_dev, m, x.data(), y_ref.data()).seconds;

  MultiDeviceOptions opts;
  opts.transfer_vectors = false;
  const MultiDeviceSpmv<double> engine(m, 1, opts);
  Device dev(DeviceSpec::tesla_c2050());
  ThreadPool pool(2);
  std::vector<double> y(y_ref.size(), -1.0);
  const MultiDeviceResult res = engine.run({&dev}, x.data(), y.data(), pool);
  EXPECT_EQ(res.makespan_seconds, launch_seconds);
  EXPECT_EQ(res.compute_seconds, launch_seconds);
  EXPECT_EQ(y, y_ref);
}

TEST(MultiDevice, TwoDevicesBeatOneOnTheVirtualTimeline) {
  // Balanced halves of a large dense band should nearly halve the modeled
  // makespan; anything under 1.2x means the scheduler serialized the shards.
  const auto a = dense_band(16384, 32);
  const auto m = build(a, CrsdConfig{.mrows = 64});
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  ThreadPool pool(4);

  double t1 = 0.0, t2 = 0.0;
  for (int nd : {1, 2}) {
    std::vector<Device> devs(static_cast<std::size_t>(nd),
                             Device(DeviceSpec::tesla_c2050()));
    std::vector<Device*> dev_ptrs;
    for (auto& d : devs) dev_ptrs.push_back(&d);
    const MultiDeviceSpmv<double> engine(m, nd);
    const double t = engine.run(dev_ptrs, x.data(), y.data(), pool)
                         .makespan_seconds;
    (nd == 1 ? t1 : t2) = t;
  }
  EXPECT_GT(t1 / t2, 1.2) << "1-dev " << t1 << "s vs 2-dev " << t2 << "s";
}

TEST(MultiDevice, OverlapHidesMostTransferTime) {
  const auto a = dense_band(16384, 32);
  const auto m = build(a, CrsdConfig{.mrows = 64});
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  ThreadPool pool(4);
  Device dev(DeviceSpec::tesla_c2050());
  const MultiDeviceSpmv<double> engine(m, 1);
  const MultiDeviceResult res = engine.run({&dev}, x.data(), y.data(), pool);
  EXPECT_GT(res.h2d_seconds, 0.0);
  EXPECT_GT(res.overlap_efficiency, 0.5)
      << "h2d " << res.h2d_seconds << "s compute " << res.compute_seconds
      << "s makespan " << res.makespan_seconds << "s";
  EXPECT_LE(res.overlap_efficiency, 1.0 + 1e-12);
}

TEST(MultiDevice, BrokenPartitionIsRejected) {
  const auto a = mixed_matrix();
  const auto m = build(a, CrsdConfig{.mrows = 64});

  // Overlapping segment runs.
  {
    auto shards = plan_shards(m, 2);
    shards[1].range.seg_begin -= 1;  // overlaps shard 0's run
    try {
      const MultiDeviceSpmv<double> engine(m, shards);
      FAIL() << "overlapping shards accepted";
    } catch (const check::DiagnosticError& e) {
      ASSERT_FALSE(e.diagnostics().empty());
      EXPECT_EQ(e.diagnostics()[0].code, check::Code::kPlanPartition);
    }
  }
  // A gap at the tail (matrix not covered).
  {
    auto shards = plan_shards(m, 2);
    shards.pop_back();
    EXPECT_THROW(MultiDeviceSpmv<double>(m, shards), check::DiagnosticError);
  }
  // Row slice inconsistent with the segment run.
  {
    auto shards = plan_shards(m, 2);
    shards[0].range.row_end -= 1;
    EXPECT_THROW(MultiDeviceSpmv<double>(m, shards), check::DiagnosticError);
  }
  // x windows that disagree with the segment run: a shifted start makes the
  // launch index before the staged window, and a longer end stages x past
  // the columns the shard reads.
  for (const bool shift_begin : {true, false}) {
    auto shards = plan_shards(m, 2);
    if (shift_begin) {
      shards[1].range.x_begin += 8;
    } else {
      shards.back().range.x_end += 1;
    }
    try {
      const MultiDeviceSpmv<double> engine(m, shards);
      FAIL() << "x window accepted, shift_begin=" << shift_begin;
    } catch (const check::DiagnosticError& e) {
      ASSERT_FALSE(e.diagnostics().empty());
      EXPECT_EQ(e.diagnostics()[0].code, check::Code::kPlanPartition);
    }
  }
}

TEST(MultiDevice, OneDeviceMatchesHybridWithEveryRowOnTheGpu) {
  // Both engines lower through rt::run_row_split: one device part holding
  // every row must give the same y and the same timeline either way.
  const auto a = mixed_matrix();
  Rng rng(17);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  hybrid::HybridConfig cfg;
  cfg.crsd.mrows = 64;

  Device hdev(DeviceSpec::tesla_c2050());
  const hybrid::HybridSpmv<double> hy(a, a.num_rows(), cfg);
  std::vector<double> y_hy(static_cast<std::size_t>(a.num_rows()), -1.0);
  const hybrid::HybridTiming th = hy.run(hdev, x.data(), y_hy.data());

  Device mdev(DeviceSpec::tesla_c2050());
  ThreadPool pool(4);
  const auto m = build(a, cfg.crsd);
  const MultiDeviceSpmv<double> md(m, 1);
  std::vector<double> y_md(y_hy.size(), -2.0);
  const MultiDeviceResult tm = md.run({&mdev}, x.data(), y_md.data(), pool);

  EXPECT_EQ(y_md, y_hy);
  EXPECT_EQ(tm.makespan_seconds, th.makespan_seconds);
  EXPECT_EQ(tm.h2d_seconds + tm.d2h_seconds, th.transfer_seconds);
  EXPECT_EQ(tm.compute_seconds, th.gpu_seconds);
  EXPECT_EQ(th.cpu_seconds, 0.0);
}

TEST(MultiDevice, NullDeviceIsRejected) {
  const auto a = mixed_matrix();
  const auto m = build(a, CrsdConfig{.mrows = 64});
  const MultiDeviceSpmv<double> engine(m, 2);
  Device dev(DeviceSpec::tesla_c2050());
  ThreadPool pool(2);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()), -1.0);
  EXPECT_THROW(engine.run({&dev, nullptr}, x.data(), y.data(), pool), Error);
  EXPECT_THROW(engine.run({nullptr, &dev}, x.data(), y.data(), pool), Error);
  // Rejected before anything ran: no part computed its rows.
  for (double v : y) ASSERT_EQ(v, -1.0);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(MultiDevice, FailedLaunchGivesItsDeviceMemoryBack) {
  // Device memory holds the diagonal values (plus a resident buffer and a
  // few bytes) but not x: every launch throws after its first allocation,
  // alone or inside a multi-device graph, and must free what it took.
  const auto a = dense_band(4096, 8);
  const auto m = build(a, CrsdConfig{.mrows = 64});
  const size64_t value_bytes = m.dia_slot_count() * sizeof(double);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()), 0.0);

  DeviceSpec tight = DeviceSpec::tesla_c2050();
  tight.global_mem_bytes = value_bytes + 16;
  Device dev(tight);
  dev.alloc(8);  // stays resident across the failed launch
  const size64_t before = dev.allocated_bytes();
  EXPECT_THROW(kernels::gpu_spmv_crsd(dev, m, x.data(), y.data()), Error);
  EXPECT_EQ(dev.allocated_bytes(), before);

  DeviceSpec half = tight;
  half.global_mem_bytes = tight.global_mem_bytes / 2;
  std::vector<Device> devs(2, Device(half));
  ThreadPool pool(4);
  const MultiDeviceSpmv<double> engine(m, 2);
  EXPECT_THROW(engine.run({&devs[0], &devs[1]}, x.data(), y.data(), pool),
               Error);
  for (const Device& d : devs) EXPECT_EQ(d.allocated_bytes(), 0u);
}

TEST(MultiDevice, RangedLaunchesAreMemcheckClean) {
  // Every shard of every mode runs under the simulator's checking mode:
  // in-bounds accesses and no races within each ranged launch.
  const auto a = mixed_matrix();
  Rng rng(5);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);

  for (const StorageOptions& mode : all_modes()) {
    CrsdConfig cfg;
    cfg.mrows = 64;
    cfg.storage = mode;
    const auto m = build(a, cfg);
    const auto shards = plan_shards(m, 3);
    for (const Shard& s : shards) {
      Device dev(DeviceSpec::tesla_c2050());
      check::MemChecker chk(dev.spec());
      kernels::CrsdGpuOptions opts;
      opts.checker = &chk;
      std::vector<double> xw(static_cast<std::size_t>(s.x_elems()));
      for (index_t i = 0; i < s.x_elems(); ++i) {
        xw[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(s.range.x_begin + i)];
      }
      std::vector<double> yw(static_cast<std::size_t>(s.y_elems()));
      kernels::gpu_spmv_crsd_range(dev, m, s.range, xw.data(), yw.data(),
                                   opts);
      EXPECT_TRUE(chk.clean()) << mode_name(mode) << " shard ["
                               << s.range.seg_begin << ", " << s.range.seg_end
                               << "):\n" << chk.report();
    }
  }
}

}  // namespace
}  // namespace crsd::rt
