// Row-region partitioner tests: planner validity/determinism on partially
// diagonal matrices, the single-region collapse on uniform structure, the
// partitioned container's CPU/executor parity with the COO reference,
// partition mutation fixtures (overlapping regions, non-covering regions, a
// lying per-region mrows descriptor), the persistent partition cache's
// warm-run contract and its rejection of illegal entries, a seeded mutation
// fuzz over the partition and tune cache loaders, and the partitioned
// launch-model extraction. Suite names contain "Partition" so the TSan CI
// job picks them up via -R.
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

/// A scratch cache directory per test, so cache tests never see entries
/// published by other tests (or earlier runs of this one).
std::string fresh_cache_dir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("crsd-partition-test-") + tag + "-" +
       std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
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

/// Builds `plan` and checks that the executor's launch is bitwise equal to
/// the partitioned CPU reference.
void expect_relaunch_bitwise(const Coo<double>& a, const PartitionPlan& plan,
                             const gpusim::DeviceSpec& spec,
                             const std::string& label) {
  const auto m = PartitionedMatrix<double>::build(a, plan);
  Rng rng(29);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()), -1.0);
  m.spmv(x.data(), want.data());
  gpusim::Device dev(spec);
  std::vector<double> got(want.size(), -1.0);
  kernels::spmv(dev, m, x.data(), got.data());
  EXPECT_EQ(got, want) << label;
}

TEST(PartitionPlan, IsDeterministic) {
  const auto a = partially_diagonal(2048, 1024, 16);
  const gpusim::DeviceSpec spec;
  const PartitionPlan p1 = plan_partition(a, spec);
  const PartitionPlan p2 = plan_partition(a, spec);
  EXPECT_EQ(p1.summary(), p2.summary());
  EXPECT_DOUBLE_EQ(p1.predicted_serial_seconds, p2.predicted_serial_seconds);
}

TEST(PartitionPlan, UniformDiagonalMatrixCollapsesToOneRegion) {
  // With the overlap re-split disabled the whole matrix is one region.
  Rng rng(3);
  const auto a = full_diagonals(4096, {-16, -1, 0, 1, 16}, rng);
  PartitionPolicy pol;
  pol.overlap_regions = 1;
  const PartitionPlan plan = plan_partition(a, gpusim::DeviceSpec{}, pol);
  ASSERT_EQ(plan.regions.size(), 1u) << plan.summary();
  EXPECT_EQ(plan.regions.front().row_begin, 0);
  EXPECT_EQ(plan.regions.front().row_end, a.num_rows());
}

TEST(PartitionPlan, UniformMatrixSplitsBalancedRegionsForOverlap) {
  // Default policy: the planner splits even a uniform matrix into
  // overlap_regions balanced stripes so the executor's queues overlap.
  Rng rng(3);
  const auto a = full_diagonals(4096, {-16, -1, 0, 1, 16}, rng);
  const PartitionPolicy pol;
  const PartitionPlan plan = plan_partition(a, gpusim::DeviceSpec{});
  ASSERT_EQ(plan.regions.size(),
            static_cast<std::size_t>(pol.overlap_regions))
      << plan.summary();
  EXPECT_TRUE(validate_partition(a.num_rows(), plan.regions).empty());
  EXPECT_LT(plan.predicted_overlap_seconds,
            plan.predicted_serial_seconds);
}

TEST(PartitionPlan, RespectsOverlapRegionsAndWavefront) {
  const auto a = partially_diagonal(4096, 2048, 24);
  PartitionPolicy pol;
  pol.overlap_regions = 2;
  const gpusim::DeviceSpec spec;
  const PartitionPlan plan = plan_partition(a, spec, pol);
  EXPECT_LE(plan.regions.size(), 2u) << plan.summary();
  for (const RowRegion& r : plan.regions) {
    EXPECT_EQ(r.config.mrows % spec.wavefront_size, 0) << plan.summary();
  }
}

TEST(PartitionedMatrixSuite, CpuSpmvMatchesCooReference) {
  const auto a = partially_diagonal(2048, 512, 16);
  const auto m =
      PartitionedMatrix<double>::build(a, plan_partition(a, {}));
  ASSERT_GE(m.parts().size(), 1u);
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
  PartitionPlan plan = plan_partition(a, {});
  ASSERT_GE(plan.regions.size(), 2u) << plan.summary();
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
  PartitionPlan plan = plan_partition(a, {});
  plan.regions.back().row_end -= 64;  // leave a row gap at the end
  EXPECT_THROW(PartitionedMatrix<double>::build(a, plan),
               check::DiagnosticError);
}

TEST(PartitionedMatrixSuite, ValidatorFlagsWrongPerRegionMrows) {
  const auto a = partially_diagonal(2048, 512, 16);
  auto m = PartitionedMatrix<double>::build(a, plan_partition(a, {}));
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
  const auto a = partially_diagonal(2048, 512, 16);
  BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("executor");
  ThreadPool pool(4);
  const auto m = build_partitioned(a, opts, &pool);
  ASSERT_GE(m.parts().size(), 2u) << m.summary();

  Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()), -1.0);
  m.spmv(x.data(), want.data());

  gpusim::Device dev{gpusim::DeviceSpec{}};
  std::vector<double> got(want.size(), -1.0);
  const auto res = kernels::spmv(dev, m, x.data(), got.data(), {}, &pool);

  // Native storage: the executor is bitwise-identical to the partitioned
  // CPU reference — each region accumulates exactly as its standalone
  // container would.
  EXPECT_EQ(got, want);
  EXPECT_GT(res.seconds, 0.0);
  ASSERT_EQ(res.region_seconds.size(), m.parts().size());
  double sum = 0.0;
  for (std::size_t i = 0; i < m.parts().size(); ++i) {
    // Each region is priced as its own container's standalone launch.
    gpusim::Device solo{gpusim::DeviceSpec{}};
    std::vector<double> y_solo(
        static_cast<std::size_t>(m.parts()[i].crsd->num_rows()));
    EXPECT_EQ(res.region_seconds[i],
              kernels::gpu_spmv_crsd(solo, *m.parts()[i].crsd, x.data(),
                                     y_solo.data())
                  .seconds)
        << "region " << i;
    EXPECT_GT(res.region_seconds[i], 0.0);
    sum += res.region_seconds[i];
  }
  EXPECT_DOUBLE_EQ(res.serial_seconds, sum);
  // Regions overlap on the graph: the makespan cannot exceed the serial
  // schedule, and with >= 2 busy queues it must beat it.
  EXPECT_LT(res.seconds, res.serial_seconds);
  EXPECT_GE(res.overlap_speedup(), 1.0);
}

TEST(PartitionExecutorSuite, DeterministicAcrossRuns) {
  const auto a = partially_diagonal(1024, 512, 12);
  BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("determinism");
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
  BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("cache");
  const gpusim::DeviceSpec spec;

  const auto cold = kernels::plan_partition_cached(spec, a, opts);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.measured_trials, 0) << "cold run must refine mrows";

  const auto warm = kernels::plan_partition_cached(spec, a, opts);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.measured_trials, 0);
  EXPECT_EQ(warm.plan.summary(), cold.plan.summary());
  EXPECT_EQ(warm.cache_key, cold.cache_key);
}

TEST(PartitionCacheSuite, IllegalCachedMrowsIsAMissAndRelaunchesBitwise) {
  const auto a = partially_diagonal(2048, 512, 16);
  BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("cache-mrows");
  const gpusim::DeviceSpec spec;  // wavefront 32
  const auto cold = kernels::plan_partition_cached(spec, a, opts);
  ASSERT_FALSE(cold.cache_hit);
  const fs::path entry = fs::path(opts.cache_dir) / (cold.cache_key + ".txt");
  const std::string stored = read_file(entry);

  // Rewrite one region of the stored entry to each mrows below. Each parses
  // and still covers the rows, but no cold plan could have stored it: no
  // launch on this device can run 48, 96 is not a candidate, and 33554432
  // would pad the region into one segment of that many rows.
  for (index_t bad : {48, 96, 33554432}) {
    std::istringstream in(stored);
    std::ostringstream out;
    bool rewritten = false;
    for (std::string line; std::getline(in, line);) {
      std::istringstream ls(line);
      std::string tag, format;
      index_t begin = 0, end = 0, mrows = 0;
      if (!rewritten && ls >> tag >> begin >> end >> format >> mrows &&
          tag == "region" && format == "crsd") {
        line = "region " + std::to_string(begin) + ' ' + std::to_string(end) +
               " crsd " + std::to_string(bad);
        rewritten = true;
      }
      out << line << '\n';
    }
    ASSERT_TRUE(rewritten) << cold.plan.summary();
    write_file(entry, out.str());

    const std::string label = "mrows " + std::to_string(bad);
    const auto again = kernels::plan_partition_cached(spec, a, opts);
    EXPECT_FALSE(again.cache_hit) << label;
    EXPECT_GT(again.measured_trials, 0) << label;
    EXPECT_TRUE(validate_partition(a.num_rows(), again.plan.regions,
                                   spec.wavefront_size)
                    .empty())
        << label << ": " << again.plan.summary();
    expect_relaunch_bitwise(a, again.plan, spec, label);
  }
}

TEST(PartitionCacheSuite, PolicyChangeKeysADifferentEntry) {
  const auto a = partially_diagonal(1024, 512, 12);
  BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("cache-key");
  const gpusim::DeviceSpec spec;
  const auto base = kernels::plan_partition_cached(spec, a, opts);

  BuildOptions other = opts;
  other.partition.overlap_regions = 1;
  const auto changed = kernels::plan_partition_cached(spec, a, other);
  EXPECT_NE(changed.cache_key, base.cache_key);
  EXPECT_FALSE(changed.cache_hit);
  EXPECT_EQ(changed.plan.regions.size(), 1u) << changed.plan.summary();
}

// --- Seeded mutation fuzz over both persistent-cache loaders. ------------

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
  // Freshly stored crsd-part-v1 and crsd-tune-v1 entries, mutated by seeded
  // byte flips, truncations, and dropped or duplicated lines. Every lookup
  // must be a miss or a hit that passes the loader's own checks; a
  // partition miss re-plans and relaunches bitwise; nothing throws.
  const auto a = partially_diagonal(1024, 256, 8);
  const gpusim::DeviceSpec spec;  // wavefront 32
  BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("fuzz");
  const auto cold = kernels::plan_partition_cached(spec, a, opts);
  const fs::path part_entry =
      fs::path(opts.cache_dir) / (cold.cache_key + ".txt");
  const std::string part_text = read_file(part_entry);
  const std::vector<index_t> legal =
      partition_mrows_candidates(spec.wavefront_size);

  kernels::AutotuneSpace space;
  space.mrows = {32, 64};
  space.fill_max_gap_segments = {0, 1};
  space.live_min_fill = {0.5};
  space.use_local_memory = {true};
  kernels::AutotuneOptions topts;
  topts.cache_dir = opts.cache_dir;
  gpusim::Device dev(spec);
  const auto tuned = kernels::autotune_crsd(dev, a, space, topts);
  const fs::path tune_entry =
      fs::path(opts.cache_dir) / (tuned.cache_key + ".txt");
  const std::string tune_text = read_file(tune_entry);

  int part_hits = 0, part_misses = 0, tune_hits = 0, tune_misses = 0;
  for (int i = 0; i < 120; ++i) {
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(i));
    const auto kind = static_cast<EntryMutation>(rng.next_below(4));
    const std::string label = "case " + std::to_string(i);

    std::string text = part_text;
    mutate_entry(text, kind, rng);
    write_file(part_entry, text);
    try {
      const auto got = kernels::plan_partition_cached(spec, a, opts);
      (got.cache_hit ? part_hits : part_misses) += 1;
      EXPECT_TRUE(validate_partition(a.num_rows(), got.plan.regions,
                                     spec.wavefront_size)
                      .empty())
          << label << ": " << got.plan.summary();
      for (const RowRegion& r : got.plan.regions) {
        EXPECT_NE(std::find(legal.begin(), legal.end(), r.config.mrows),
                  legal.end())
            << label << ": " << got.plan.summary();
      }
      if (!got.cache_hit) {
        EXPECT_GT(got.measured_trials, 0) << label;
        expect_relaunch_bitwise(a, got.plan, spec, label);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": partition lookup threw: " << e.what();
    }

    text = tune_text;
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
  // Both outcomes must occur, or the mutations stopped reaching the loaders.
  EXPECT_GT(part_hits, 0);
  EXPECT_GT(part_misses, 0);
  EXPECT_GT(tune_hits, 0);
  EXPECT_GT(tune_misses, 0);
}

TEST(PartitionLaunchModelSuite, ExtractsOneCrsdModelPerCrsdRegion) {
  const auto a = partially_diagonal(2048, 512, 16);
  const auto m =
      PartitionedMatrix<double>::build(a, plan_partition(a, {}));
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
  auto m = PartitionedMatrix<double>::build(a, plan_partition(a, {}));
  m.mutable_parts().front().region.row_end -= 32;  // break the cover
  analysis::AnalyzeOptions opts;
  opts.spec = gpusim::DeviceSpec{};
  EXPECT_THROW(analysis::build_launch_model(m, opts),
               check::DiagnosticError);
}

}  // namespace
}  // namespace crsd
