// Autotuner search-policy suite: persistent-cache hit/miss behaviour and
// recovery from corrupted entries, cost-model pruning accounting (no silent
// caps — measured + pruned must equal the grid), concurrent evaluation
// determinism, the structure-hash cache key, and the summary report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "kernels/crsd_autotune.hpp"
#include "matrix/generators.hpp"
#include "temp_cache_dir.hpp"

namespace crsd {
namespace {

namespace fs = std::filesystem;

kernels::AutotuneSpace small_space() {
  kernels::AutotuneSpace space;
  space.mrows = {32, 64};
  space.fill_max_gap_segments = {0, 1};
  space.live_min_fill = {0.5};
  space.use_local_memory = {true, false};
  return space;  // 2 x 2 x 1 configs, 8 trials
}

Coo<double> test_matrix(int seed = 3) {
  Rng rng(seed);
  auto a = broken_diagonals(
      400, {{-64, 0.6, 5}, {-1, 1.0, 1}, {0, 1.0, 1}, {1, 1.0, 1},
            {64, 0.5, 6}},
      rng);
  inject_scatter(a, 40, rng);
  return a;
}

TEST(AutotuneCache, MissThenHitWithZeroMeasuredTrials) {
  TempCacheDir dir("tune-test-hit");
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto a = test_matrix();
  kernels::AutotuneOptions opts;
  opts.cache_dir = dir.path.string();

  const auto cold = kernels::autotune_crsd(dev, a, small_space(), opts);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.measured_trials, 0);
  EXPECT_FALSE(cold.cache_key.empty());

  // Warm run: same matrix, same space -> the acceptance path. Zero trials
  // measured, best configuration reproduced exactly.
  const auto warm = kernels::autotune_crsd(dev, a, small_space(), opts);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.measured_trials, 0);
  EXPECT_TRUE(warm.trials.empty());
  EXPECT_EQ(warm.best_config.mrows, cold.best_config.mrows);
  EXPECT_EQ(warm.best_config.fill_max_gap_segments,
            cold.best_config.fill_max_gap_segments);
  EXPECT_DOUBLE_EQ(warm.best_config.live_min_fill,
                   cold.best_config.live_min_fill);
  EXPECT_EQ(warm.best_local_memory, cold.best_local_memory);
  EXPECT_DOUBLE_EQ(warm.best_seconds, cold.best_seconds);
  EXPECT_NE(warm.summary().find("cache hit"), std::string::npos);
}

TEST(AutotuneCache, CorruptedEntryIsAMissAndGetsRepaired) {
  TempCacheDir dir("tune-test-corrupt");
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto a = test_matrix();
  kernels::AutotuneOptions opts;
  opts.cache_dir = dir.path.string();

  const auto cold = kernels::autotune_crsd(dev, a, small_space(), opts);
  const fs::path entry = dir.path / (cold.cache_key + ".txt");
  ASSERT_TRUE(fs::exists(entry));

  // Corrupt the entry in several ways; each must read as a miss, never as
  // garbage configuration, and the re-tune must repair the file.
  for (const char* garbage :
       {"", "not-a-cache-file\n",
        "crsd-tune-v1\nmrows 0\ngap 0\nmin_fill 0.5\nlocal 1\nseconds 1e-5\n",
        "crsd-tune-v1\nmrows 64\ngap 1\nmin_fill 2.5\nlocal 1\nseconds 1e-5\n",
        "crsd-tune-v1\nmrows sixty-four\n",
        // Parses, but mrows 48 is outside the keyed space and not a
        // multiple of the 32-wide wavefront: the launch would throw.
        "crsd-tune-v1\nmrows 48\ngap 1\nmin_fill 0.5\nlocal 1\nseconds 1e-5\n",
        // A wavefront multiple the keyed space never searched.
        "crsd-tune-v1\nmrows 96\ngap 1\nmin_fill 0.5\nlocal 1\nseconds 1e-5\n",
        // Also a wavefront multiple outside the space: a build would pad
        // the matrix into one segment of this many rows.
        "crsd-tune-v1\nmrows 33554432\ngap 1\nmin_fill 0.5\nlocal 1\n"
        "seconds 1e-5\n",
    }) {
    {
      std::ofstream out(entry);
      out << garbage;
    }
    const auto retuned = kernels::autotune_crsd(dev, a, small_space(), opts);
    EXPECT_FALSE(retuned.cache_hit) << "garbage: " << garbage;
    EXPECT_GT(retuned.measured_trials, 0);
    EXPECT_EQ(retuned.best_config.mrows, cold.best_config.mrows);
  }
  // The last re-tune republished a good entry.
  const auto warm = kernels::autotune_crsd(dev, a, small_space(), opts);
  EXPECT_TRUE(warm.cache_hit);
}

TEST(AutotuneCache, KeyTracksStructureNotValues) {
  // Same sparsity pattern, different values -> same hash (tuning decisions
  // depend only on structure). Different pattern -> different hash.
  Coo<double> a(100, 100), b(100, 100), c(100, 100);
  for (index_t r = 0; r < 100; ++r) {
    a.add(r, r, 1.0);
    b.add(r, r, 2.0 + r);
    if (r + 1 < 100) c.add(r, r + 1, 1.0);
  }
  a.canonicalize();
  b.canonicalize();
  c.canonicalize();
  EXPECT_EQ(structure_hash(a), structure_hash(b));
  EXPECT_NE(structure_hash(a), structure_hash(c));
}

TEST(AutotuneCache, StorageModeKeysTheCache) {
  // An fp32 (or narrow-index) tuning run streams different bytes and
  // can crown a different winner, so it must not reuse — or overwrite — the
  // entry the fp64 run stored for the same structure.
  TempCacheDir dir("tune-test-storage");
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto a = test_matrix();
  kernels::AutotuneOptions fp64_opts;
  fp64_opts.cache_dir = dir.path.string();

  const auto fp64_cold = kernels::autotune_crsd(dev, a, small_space(),
                                                fp64_opts);
  EXPECT_FALSE(fp64_cold.cache_hit);

  kernels::AutotuneOptions fp32_opts = fp64_opts;
  fp32_opts.storage.value_precision = ValuePrecision::kFloat32;
  fp32_opts.storage.narrow_scatter_indices = true;
  const auto fp32_cold = kernels::autotune_crsd(dev, a, small_space(),
                                                fp32_opts);
  // Regression: the compact build keys its own entry — a hit here means it
  // silently reused the fp64 result.
  EXPECT_FALSE(fp32_cold.cache_hit);
  EXPECT_NE(fp32_cold.cache_key, fp64_cold.cache_key);
  EXPECT_GT(fp32_cold.measured_trials, 0);
  // Every candidate was built with the requested compaction.
  for (const auto& trial : fp32_cold.trials) {
    EXPECT_EQ(trial.config.storage.value_precision, ValuePrecision::kFloat32);
    EXPECT_TRUE(trial.config.storage.narrow_scatter_indices);
  }

  // Each mode hits its own entry on the warm run, and the cached config
  // carries the mode so a rebuild from it compacts identically.
  const auto fp64_warm = kernels::autotune_crsd(dev, a, small_space(),
                                                fp64_opts);
  EXPECT_TRUE(fp64_warm.cache_hit);
  EXPECT_TRUE(fp64_warm.best_config.storage.is_default());
  const auto fp32_warm = kernels::autotune_crsd(dev, a, small_space(),
                                                fp32_opts);
  EXPECT_TRUE(fp32_warm.cache_hit);
  EXPECT_EQ(fp32_warm.best_config.storage.value_precision,
            ValuePrecision::kFloat32);
}

TEST(AutotuneCache, PruningAccountsForEveryTrial) {
  TempCacheDir dir("tune-test-prune");
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto a = test_matrix();
  kernels::AutotuneOptions opts;
  opts.cache_dir = dir.path.string();
  opts.prune_margin = 1.0;  // aggressive: only the predicted-best survives

  const auto result = kernels::autotune_crsd(dev, a, small_space(), opts);
  // No silent caps: every grid point is accounted for, measured or pruned.
  EXPECT_EQ(static_cast<std::size_t>(result.measured_trials +
                                     result.pruned_trials),
            result.trials.size());
  EXPECT_GT(result.measured_trials, 0);
  for (const auto& trial : result.trials) {
    EXPECT_GT(trial.predicted_seconds, 0.0);
    if (trial.measured) {
      EXPECT_GT(trial.seconds, 0.0);
      EXPECT_GE(trial.seconds, result.best_seconds);
    } else {
      EXPECT_TRUE(std::isinf(trial.seconds));
    }
  }
  // The winner always comes from a measured trial.
  EXPECT_TRUE(std::isfinite(result.best_seconds));

  const std::string summary = result.summary();
  EXPECT_NE(summary.find("measured"), std::string::npos);
  EXPECT_NE(summary.find("pruned"), std::string::npos);
  EXPECT_NE(summary.find("model rel error"), std::string::npos);
}

TEST(AutotuneCache, PrunedBestStaysCloseToExhaustive) {
  // Pruning measures a subset, so its best can only be >= the exhaustive
  // best; the model's ranking claim is that it stays within a few percent.
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  for (int seed : {3, 11}) {
    TempCacheDir dir("tune-test-winner" + std::to_string(seed));
    const auto a = test_matrix(seed);
    const auto exhaustive = kernels::autotune_crsd(dev, a, small_space());
    kernels::AutotuneOptions opts;
    opts.cache_dir = dir.path.string();
    const auto pruned = kernels::autotune_crsd(dev, a, small_space(), opts);
    EXPECT_GE(pruned.best_seconds, exhaustive.best_seconds * (1.0 - 1e-12));
    EXPECT_LE(pruned.best_seconds, exhaustive.best_seconds * 1.05)
        << "cost-model pruning discarded a much faster configuration";
  }
}

TEST(AutotuneCache, ParallelEvaluationMatchesSerial) {
  // Trials land in fixed grid slots and simulated seconds are derived from
  // event counters, so a pool changes wall clock only — never the result.
  TempCacheDir dir("tune-test-par");
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto a = test_matrix();
  kernels::AutotuneOptions serial_opts;
  serial_opts.use_cache = false;
  const auto serial = kernels::autotune_crsd(dev, a, small_space(),
                                             serial_opts);
  ThreadPool pool(4);
  kernels::AutotuneOptions par_opts;
  par_opts.use_cache = false;
  par_opts.pool = &pool;
  const auto parallel = kernels::autotune_crsd(dev, a, small_space(),
                                               par_opts);
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_EQ(serial.trials[i].measured, parallel.trials[i].measured) << i;
    EXPECT_DOUBLE_EQ(serial.trials[i].seconds, parallel.trials[i].seconds)
        << i;
    EXPECT_DOUBLE_EQ(serial.trials[i].predicted_seconds,
                     parallel.trials[i].predicted_seconds)
        << i;
  }
  EXPECT_DOUBLE_EQ(serial.best_seconds, parallel.best_seconds);
  EXPECT_EQ(serial.best_config.mrows, parallel.best_config.mrows);
}

TEST(AutotuneCache, LegacyOverloadStaysExhaustive) {
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto a = test_matrix();
  const auto result = kernels::autotune_crsd(dev, a, small_space());
  EXPECT_EQ(static_cast<std::size_t>(result.measured_trials),
            result.trials.size());
  EXPECT_EQ(result.pruned_trials, 0);
  EXPECT_FALSE(result.cache_hit);
  for (const auto& trial : result.trials) EXPECT_TRUE(trial.measured);
}

}  // namespace
}  // namespace crsd
