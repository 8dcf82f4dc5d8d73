// Facade-parity suite for the unified build API: crsd::build must produce
// bitwise-identical storage to the builder it wraps, detail::build_crsd_impl
// (via check::validate_same_storage), across every storage mode and thread
// count, the CrsdConfig bridge conversion must keep designated-initializer
// call sites working, and tune_from_cache must adopt a cached autotune
// winner — construction knobs only, the caller's storage/threads stay — with
// zero measured trials.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "kernels/crsd_autotune.hpp"
#include "matrix/generators.hpp"

namespace crsd {
namespace {

namespace fs = std::filesystem;

Coo<double> mixed_matrix(std::uint64_t seed = 5) {
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

TEST(BuildApiParity, MatchesLegacyBuilderBitwiseAcrossStorageModes) {
  const auto a = mixed_matrix();
  for (const StorageOptions& mode : all_modes()) {
    CrsdConfig cfg;
    cfg.mrows = 64;
    cfg.storage = mode;
    const auto legacy = detail::build_crsd_impl(a, cfg);
    const auto unified = build(a, BuildOptions{cfg});
    EXPECT_TRUE(check::validate_same_storage(unified, legacy).empty())
        << "mode " << mode_name(mode);
  }
}

TEST(BuildApiParity, MatchesLegacyParallelBuilderBitwise) {
  const auto a = mixed_matrix();
  for (int threads : {2, 4}) {
    CrsdConfig cfg;
    cfg.mrows = 32;
    cfg.threads = threads;
    ThreadPool pool(threads);
    const auto legacy = detail::build_crsd_impl(a, cfg, &pool);
    const auto unified = build(a, cfg, &pool);
    EXPECT_TRUE(check::validate_same_storage(unified, legacy).empty())
        << threads << " threads";
  }
}

TEST(BuildApiParity, DefaultOptionsMatchDefaultLegacyBuild) {
  const auto a = mixed_matrix();
  const auto legacy = detail::build_crsd_impl(a, CrsdConfig{});
  const auto unified = build(a);
  EXPECT_TRUE(check::validate_same_storage(unified, legacy).empty());
}

TEST(BuildApiBridge, CrsdConfigConvertsImplicitly) {
  const auto a = mixed_matrix();
  // The designated-initializer call shape every ported site uses.
  const auto m = build(a, CrsdConfig{.mrows = 32});
  EXPECT_EQ(m.mrows(), 32);
  EXPECT_EQ(m.nnz(), a.nnz());

  BuildOptions opts = CrsdConfig{.mrows = 128};
  EXPECT_EQ(opts.config.mrows, 128);
}

TEST(BuildApiTuning, AdoptsCachedAutotuneWinner) {
  const auto a = mixed_matrix();
  const fs::path dir =
      fs::temp_directory_path() /
      ("crsd-build-api-test-" + std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);

  gpusim::Device dev{gpusim::DeviceSpec{}};
  kernels::AutotuneOptions topts;
  topts.cache_dir = dir.string();
  const auto tuned = kernels::autotune_crsd(dev, a, {}, topts);
  ASSERT_GT(tuned.measured_trials, 0);

  BuildOptions opts;
  opts.tune_from_cache = true;
  opts.device = dev.spec();
  opts.cache_dir = dir.string();
  opts.config.threads = 3;
  ThreadPool pool(3);
  const auto m = build(a, opts, &pool);
  EXPECT_EQ(m.mrows(), tuned.best_config.mrows) << tuned.summary();

  // The cached winner must reproduce exactly what building with its config
  // produces — cache adoption changes which knobs are used, not the build.
  CrsdConfig direct_cfg = tuned.best_config;
  direct_cfg.threads = 3;
  const auto direct = build(a, direct_cfg, &pool);
  EXPECT_TRUE(check::validate_same_storage(m, direct).empty());
}

TEST(BuildApiTuning, ColdCacheFallsBackToCallerConfig) {
  const auto a = mixed_matrix();
  const fs::path dir =
      fs::temp_directory_path() /
      ("crsd-build-api-cold-" + std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);

  BuildOptions opts = CrsdConfig{.mrows = 32};
  opts.tune_from_cache = true;
  opts.cache_dir = dir.string();
  const auto m = build(a, opts);
  const auto pinned = build(a, CrsdConfig{.mrows = 32});
  EXPECT_TRUE(check::validate_same_storage(m, pinned).empty());
}

}  // namespace
}  // namespace crsd
