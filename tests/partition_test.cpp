// Row-region container tests: the partitioned build's one region at the
// autotuner's measured-best mrows (and its empty-matrix case), the
// container's CPU and launch parity with the COO reference on a hand-made
// multi-region plan, partition mutation fixtures (overlapping regions,
// non-covering regions, a lying per-region mrows descriptor), the tuning
// cache's warm-run contract under the partitioned build and its rejection
// of illegal entries, a seeded mutation fuzz over the tune cache loader,
// and the partitioned launch-model extraction. Suite names contain
// "Partition" so the TSan CI job picks them up via -R.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/launch_model.hpp"
#include "common/rng.hpp"
#include "kernels/partitioned_spmv.hpp"
#include "matrix/generators.hpp"
#include "temp_cache_dir.hpp"

namespace crsd {
namespace {

namespace fs = std::filesystem;

/// Diagonal-dominant top stripe (tridiagonal) over an irregular
/// scattered-row bottom stripe — the partially diagonal shape one global
/// format handles badly: CRSD pays scatter-ELL max-width padding for the
/// bottom rows, CSR forfeits the top stripe's diagonal locality.
Coo<double> partially_diagonal(index_t top_rows, index_t bottom_rows,
                               index_t nnz_per_bottom_row,
                               std::uint64_t seed = 7) {
  const index_t n = top_rows + bottom_rows;
  Coo<double> a(n, n);
  Rng rng(seed);
  for (index_t r = 0; r < top_rows; ++r) {
    for (diag_offset_t d : {-1, 0, 1}) {
      const index_t c = r + d;
      if (c >= 0 && c < n) a.add(r, c, 1.0 + 0.001 * double(r));
    }
  }
  for (index_t r = top_rows; r < n; ++r) {
    // Ragged widths (4 .. max): scatter-ELL pays max-width padding for the
    // whole stripe, CSR pays only the stored nonzeros.
    const index_t row_nnz =
        4 + (r * 37) % std::max<index_t>(1, nnz_per_bottom_row - 4);
    for (index_t k = 0; k < row_nnz; ++k) {
      const index_t c = static_cast<index_t>(rng.next_u64() %
                                             static_cast<std::uint64_t>(n));
      a.add(r, c, 0.5 + 0.001 * double(k));
    }
  }
  a.canonicalize();
  return a;
}

/// Three regions at multiples of 256 rows, each with its own mrows: the
/// multi-region shape PartitionedMatrix::build, the validators and the
/// analyzer's per-region model accept. `num_rows` must be at least 768.
PartitionPlan three_regions(index_t num_rows) {
  const index_t cut1 = num_rows / 3 / 256 * 256;
  const index_t cut2 = 2 * num_rows / 3 / 256 * 256;
  PartitionPlan plan;
  plan.regions = {{0, cut1, CrsdConfig{.mrows = 64}},
                  {cut1, cut2, CrsdConfig{.mrows = 128}},
                  {cut2, num_rows, CrsdConfig{.mrows = 256}}};
  return plan;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Checks that the launch of `m` is bitwise equal to the partitioned CPU
/// reference.
void expect_relaunch_bitwise(const PartitionedMatrix<double>& m,
                             const gpusim::DeviceSpec& spec,
                             const std::string& label) {
  Rng rng(29);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(m.num_rows()), -1.0);
  m.spmv(x.data(), want.data());
  gpusim::Device dev(spec);
  std::vector<double> got(want.size(), -1.0);
  kernels::spmv(dev, m, x.data(), got.data());
  EXPECT_EQ(got, want) << label;
}

TEST(PartitionBuildSuite, OneRegionAtTheAutotunersBestMrows) {
  const auto a = partially_diagonal(2048, 512, 16);
  const TempCacheDir dir("partition-test-one-region");
  BuildOptions opts;
  opts.cache_dir = dir.str();
  opts.config.fill_max_gap_segments = 0;
  opts.config.live_min_fill = 0.25;
  ThreadPool pool(4);
  kernels::PlannedPartition planned;
  const auto m = build_partitioned(a, opts, &pool, &planned);
  ASSERT_EQ(m.parts().size(), 1u) << m.summary();
  const RowRegion& region = m.parts().front().region;
  EXPECT_EQ(region.row_begin, 0);
  EXPECT_EQ(region.row_end, a.num_rows());
  EXPECT_EQ(planned.plan.summary(), m.summary());
  EXPECT_FALSE(planned.cache_hit);
  EXPECT_EQ(planned.measured_trials,
            static_cast<index_t>(kernels::AutotuneSpace{}.mrows.size()));

  // The same race, run directly: every mrows candidate at the caller's
  // fill knobs with local memory on, unpruned and uncached.
  kernels::AutotuneSpace space;
  space.fill_max_gap_segments = {0};
  space.live_min_fill = {0.25};
  space.use_local_memory = {true};
  gpusim::Device dev(opts.device);
  const auto best = kernels::autotune_crsd(dev, a, space, &pool);
  EXPECT_EQ(region.config.mrows, best.best_config.mrows);
  EXPECT_EQ(m.parts().front().crsd->mrows(), best.best_config.mrows);
  EXPECT_EQ(region.config.fill_max_gap_segments, 0);
  EXPECT_EQ(region.config.live_min_fill, 0.25);
  EXPECT_TRUE(check::validate_against(m, a).empty());
  expect_relaunch_bitwise(m, opts.device, "one region");
}

TEST(PartitionBuildSuite, EmptyMatrixBuildsAnEmptyContainerWithoutTrials) {
  Coo<double> a(0, 0);
  a.canonicalize();
  const TempCacheDir dir("partition-test-empty");
  BuildOptions opts;
  opts.cache_dir = dir.str();
  kernels::PlannedPartition planned;
  const auto m = build_partitioned(a, opts, nullptr, &planned);
  EXPECT_TRUE(m.parts().empty());
  EXPECT_EQ(m.num_rows(), 0);
  EXPECT_EQ(planned.measured_trials, 0);
  EXPECT_FALSE(planned.cache_hit);
  // The race alone refuses a matrix it cannot build.
  gpusim::Device dev(opts.device);
  EXPECT_THROW(kernels::autotune_crsd(dev, a), Error);
}

TEST(PartitionedMatrixSuite, CpuSpmvMatchesCooReference) {
  const auto a = partially_diagonal(2048, 512, 16);
  const auto m =
      PartitionedMatrix<double>::build(a, three_regions(a.num_rows()));
  ASSERT_EQ(m.parts().size(), 3u);
  EXPECT_GT(m.footprint_bytes(), 0u);

  Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> got(static_cast<std::size_t>(a.num_rows()), -1.0);
  std::vector<double> want(got.size());
  m.spmv(x.data(), got.data());
  a.spmv_reference(x.data(), want.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-12 * (1.0 + std::abs(want[i])))
        << "row " << i;
  }
  EXPECT_TRUE(check::validate_against(m, a).empty());
}

TEST(PartitionedMatrixSuite, BuildRejectsOverlappingRegions) {
  const auto a = partially_diagonal(1024, 256, 8);
  PartitionPlan plan = three_regions(a.num_rows());
  plan.regions[1].row_begin -= 128;  // overlap region 0
  try {
    PartitionedMatrix<double>::build(a, plan);
    FAIL() << "overlapping regions must be rejected";
  } catch (const check::DiagnosticError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics().front().code, check::Code::kPlanPartition);
  }
}

TEST(PartitionedMatrixSuite, BuildRejectsNonCoveringRegions) {
  const auto a = partially_diagonal(1024, 256, 8);
  PartitionPlan plan = three_regions(a.num_rows());
  plan.regions.back().row_end -= 64;  // leave a row gap at the end
  EXPECT_THROW(PartitionedMatrix<double>::build(a, plan),
               check::DiagnosticError);
}

TEST(PartitionedMatrixSuite, ValidatorFlagsWrongPerRegionMrows) {
  const auto a = partially_diagonal(2048, 512, 16);
  auto m = PartitionedMatrix<double>::build(a, three_regions(a.num_rows()));
  ASSERT_TRUE(check::validate_against(m, a).empty());

  // Plant the defect: the descriptor claims an mrows the container does not
  // have. The partitioned validator must refute exactly this.
  auto& parts = m.mutable_parts();
  auto crsd_part =
      std::find_if(parts.begin(), parts.end(),
                   [](const auto& p) { return p.crsd != nullptr; });
  ASSERT_NE(crsd_part, parts.end());
  crsd_part->region.config.mrows *= 2;

  const auto diags = check::validate_against(m, a);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags.front().code, check::Code::kPlanPartition);
  EXPECT_NE(diags.front().message.find("mrows"), std::string::npos)
      << diags.front().message;
}

TEST(PartitionExecutorSuite, MatchesCpuReferenceAndOverlapsRegions) {
  // Regions no longer overlap: they run back to back on the caller's
  // device, so the launch time is the sum of their standalone launches.
  const auto a = partially_diagonal(2048, 512, 16);
  const auto m =
      PartitionedMatrix<double>::build(a, three_regions(a.num_rows()));
  ThreadPool pool(4);

  Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()), -1.0);
  m.spmv(x.data(), want.data());

  gpusim::Device dev{gpusim::DeviceSpec{}};
  std::vector<double> got(want.size(), -1.0);
  const auto res = kernels::spmv(dev, m, x.data(), got.data(), {}, &pool);

  // Native storage: the launch is bitwise-identical to the partitioned
  // CPU reference — each region accumulates exactly as its standalone
  // container would.
  EXPECT_EQ(got, want);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  ASSERT_EQ(res.region_seconds.size(), m.parts().size());
  double sum = 0.0;
  for (std::size_t i = 0; i < m.parts().size(); ++i) {
    // Each region is priced as its own container's standalone launch on
    // the same device.
    std::vector<double> y_solo(
        static_cast<std::size_t>(m.parts()[i].crsd->num_rows()));
    EXPECT_EQ(res.region_seconds[i],
              kernels::gpu_spmv_crsd(dev, *m.parts()[i].crsd, x.data(),
                                     y_solo.data())
                  .seconds)
        << "region " << i;
    EXPECT_GT(res.region_seconds[i], 0.0);
    sum += res.region_seconds[i];
  }
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_EQ(res.seconds, res.serial_seconds);
  EXPECT_EQ(res.serial_seconds, sum);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(PartitionExecutorSuite, DeterministicAcrossRuns) {
  const auto a = partially_diagonal(1024, 512, 12);
  const TempCacheDir dir("partition-test-determinism");
  BuildOptions opts;
  opts.cache_dir = dir.str();
  const auto m = build_partitioned(a, opts);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y1(static_cast<std::size_t>(a.num_rows()), -1.0);
  std::vector<double> y2(y1.size(), -2.0);
  gpusim::Device d1{gpusim::DeviceSpec{}};
  gpusim::Device d2{gpusim::DeviceSpec{}};
  ThreadPool pool(3);
  const auto r1 = kernels::spmv(d1, m, x.data(), y1.data());
  const auto r2 = kernels::spmv(d2, m, x.data(), y2.data(), {}, &pool);
  EXPECT_EQ(y1, y2);
  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
  EXPECT_DOUBLE_EQ(r1.serial_seconds, r2.serial_seconds);
}

TEST(PartitionCacheSuite, WarmRunReusesPlanWithZeroMeasuredTrials) {
  const auto a = partially_diagonal(2048, 512, 16);
  const TempCacheDir dir("partition-test-cache");
  BuildOptions opts;
  opts.cache_dir = dir.str();

  kernels::PlannedPartition cold;
  (void)build_partitioned(a, opts, nullptr, &cold);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.measured_trials, 0) << "cold run must race mrows";

  kernels::PlannedPartition warm;
  (void)build_partitioned(a, opts, nullptr, &warm);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.measured_trials, 0);
  EXPECT_EQ(warm.plan.summary(), cold.plan.summary());
  EXPECT_EQ(warm.cache_key, cold.cache_key);
}

TEST(PartitionCacheSuite, IllegalCachedMrowsIsAMissAndRelaunchesBitwise) {
  const auto a = partially_diagonal(2048, 512, 16);
  const TempCacheDir dir("partition-test-cache-mrows");
  BuildOptions opts;
  opts.cache_dir = dir.str();
  const gpusim::DeviceSpec spec;  // wavefront 32
  kernels::PlannedPartition cold;
  (void)build_partitioned(a, opts, nullptr, &cold);
  ASSERT_FALSE(cold.cache_hit);
  const fs::path entry = dir.path / (cold.cache_key + ".txt");
  const std::string stored = read_file(entry);

  // Rewrite the stored winner's mrows to each value below. Each parses,
  // but no race on this key could have stored it: no launch on this device
  // can run 48, 96 is not a candidate, and 33554432 would pad the matrix
  // into one segment of that many rows.
  for (index_t bad : {48, 96, 33554432}) {
    std::istringstream in(stored);
    std::ostringstream out;
    bool rewritten = false;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("mrows ", 0) == 0) {
        line = "mrows " + std::to_string(bad);
        rewritten = true;
      }
      out << line << '\n';
    }
    ASSERT_TRUE(rewritten) << stored;
    write_file(entry, out.str());

    const std::string label = "mrows " + std::to_string(bad);
    kernels::PlannedPartition again;
    const auto m = build_partitioned(a, opts, nullptr, &again);
    EXPECT_FALSE(again.cache_hit) << label;
    EXPECT_GT(again.measured_trials, 0) << label;
    EXPECT_EQ(again.plan.summary(), cold.plan.summary()) << label;
    EXPECT_TRUE(validate_partition(a.num_rows(), again.plan.regions,
                                   spec.wavefront_size)
                    .empty())
        << label << ": " << again.plan.summary();
    expect_relaunch_bitwise(m, spec, label);
  }
}

// --- Seeded mutation fuzz over the tune cache loader. --------------------

enum class EntryMutation { kByteFlip, kTruncate, kDropLine, kDuplicateLine };

void mutate_entry(std::string& text, EntryMutation kind, Rng& rng) {
  static const std::string kBytes = "0123456789 \n\t-.e";
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  switch (kind) {
    case EntryMutation::kByteFlip:
      if (text.empty()) break;
      text[pick(text.size())] = rng.next_below(2) == 0
                                    ? kBytes[pick(kBytes.size())]
                                    : static_cast<char>(rng.next_below(256));
      break;
    case EntryMutation::kTruncate:
      text.resize(pick(text.size() + 1));
      break;
    case EntryMutation::kDropLine:
    case EntryMutation::kDuplicateLine: {
      std::vector<std::string> lines;
      std::istringstream in(text);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      if (lines.empty()) break;
      const std::size_t at = pick(lines.size());
      if (kind == EntryMutation::kDropLine) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
      }
      text.clear();
      for (const std::string& line : lines) text += line + '\n';
      break;
    }
  }
}

TEST(PartitionCacheFuzz, MutatedEntriesMissOrPassTheLoaderChecks) {
  // A freshly stored crsd-tune-v1 entry, mutated by seeded byte flips,
  // truncations, and dropped or duplicated lines. Every lookup must be a
  // miss or a hit that passes the loader's own checks; nothing throws.
  const auto a = partially_diagonal(1024, 256, 8);
  const gpusim::DeviceSpec spec;  // wavefront 32
  const TempCacheDir dir("partition-test-fuzz");

  kernels::AutotuneSpace space;
  space.mrows = {32, 64};
  space.fill_max_gap_segments = {0, 1};
  space.live_min_fill = {0.5};
  space.use_local_memory = {true};
  kernels::AutotuneOptions topts;
  topts.cache_dir = dir.str();
  gpusim::Device dev(spec);
  const auto tuned = kernels::autotune_crsd(dev, a, space, topts);
  const fs::path tune_entry = dir.path / (tuned.cache_key + ".txt");
  const std::string tune_text = read_file(tune_entry);

  int tune_hits = 0, tune_misses = 0;
  for (int i = 0; i < 120; ++i) {
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(i));
    const auto kind = static_cast<EntryMutation>(rng.next_below(4));
    const std::string label = "case " + std::to_string(i);

    std::string text = tune_text;
    mutate_entry(text, kind, rng);
    write_file(tune_entry, text);
    try {
      const auto got = kernels::load_cached_tuning(spec, a, space, topts);
      (got.has_value() ? tune_hits : tune_misses) += 1;
      if (got.has_value()) {
        EXPECT_NE(std::find(space.mrows.begin(), space.mrows.end(),
                            got->config.mrows),
                  space.mrows.end())
            << label;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": tune lookup threw: " << e.what();
    }
  }
  // Both outcomes must occur, or the mutations stopped reaching the loader.
  EXPECT_GT(tune_hits, 0);
  EXPECT_GT(tune_misses, 0);
}

TEST(PartitionLaunchModelSuite, ExtractsOneCrsdModelPerCrsdRegion) {
  const auto a = partially_diagonal(2048, 512, 16);
  const auto m =
      PartitionedMatrix<double>::build(a, three_regions(a.num_rows()));
  analysis::AnalyzeOptions opts;
  opts.spec = gpusim::DeviceSpec{};
  const auto pm = analysis::build_launch_model(m, opts);

  ASSERT_EQ(pm.regions.size(), m.parts().size());
  EXPECT_EQ(pm.num_rows, a.num_rows());
  for (std::size_t i = 0; i < pm.regions.size(); ++i) {
    const auto& rm = pm.regions[i];
    EXPECT_EQ(rm.region.row_begin, m.parts()[i].region.row_begin);
    EXPECT_EQ(rm.crsd.num_rows, rm.region.row_end - rm.region.row_begin);
    EXPECT_EQ(rm.crsd.mrows, rm.region.config.mrows);
  }
}

TEST(PartitionLaunchModelSuite, RejectsInvalidPartition) {
  const auto a = partially_diagonal(1024, 256, 8);
  auto m = PartitionedMatrix<double>::build(a, three_regions(a.num_rows()));
  m.mutable_parts().front().region.row_end -= 32;  // break the cover
  analysis::AnalyzeOptions opts;
  opts.spec = gpusim::DeviceSpec{};
  EXPECT_THROW(analysis::build_launch_model(m, opts),
               check::DiagnosticError);
}

}  // namespace
}  // namespace crsd
