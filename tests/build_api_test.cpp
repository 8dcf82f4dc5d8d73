// Facade-parity suite for the unified build API: crsd::build must produce
// bitwise-identical storage to the builder it wraps, detail::build_crsd_impl
// (via check::validate_same_storage), across every storage mode, the
// CrsdConfig bridge conversion must keep designated-initializer call sites
// working, and tune_from_cache must adopt a cached autotune winner —
// construction knobs only, the caller's storage stays — with zero measured
// trials.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/validate.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "kernels/crsd_autotune.hpp"
#include "matrix/generators.hpp"
#include "temp_cache_dir.hpp"

namespace crsd {
namespace {

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
  const TempCacheDir dir("build-api-test");

  gpusim::Device dev{gpusim::DeviceSpec{}};
  kernels::AutotuneOptions topts;
  topts.cache_dir = dir.str();
  const auto tuned = kernels::autotune_crsd(dev, a, {}, topts);
  ASSERT_GT(tuned.measured_trials, 0);

  BuildOptions opts;
  opts.tune_from_cache = true;
  opts.device = dev.spec();
  opts.cache_dir = dir.str();
  const auto m = build(a, opts);
  EXPECT_EQ(m.mrows(), tuned.best_config.mrows) << tuned.summary();

  // The cached winner must reproduce exactly what building with its config
  // produces — cache adoption changes which knobs are used, not the build.
  const auto direct = build(a, tuned.best_config);
  EXPECT_TRUE(check::validate_same_storage(m, direct).empty());

  // Compact storage keys its own cache entry, and adopting that entry keeps
  // the caller's storage options.
  topts.storage = {ValuePrecision::kFloat32, true};
  const auto tuned32 = kernels::autotune_crsd(dev, a, {}, topts);
  ASSERT_GT(tuned32.measured_trials, 0);
  opts.config.storage = topts.storage;
  const auto m32 = build(a, opts);
  EXPECT_EQ(m32.value_precision(), ValuePrecision::kFloat32);
  EXPECT_EQ(m32.scatter_index_mode(), ScatterIndexMode::kIndex16);
  EXPECT_TRUE(
      check::validate_same_storage(m32, build(a, tuned32.best_config)).empty());
}

TEST(BuildApiTuning, ColdCacheFallsBackToCallerConfig) {
  const auto a = mixed_matrix();
  const TempCacheDir dir("build-api-cold");

  BuildOptions opts = CrsdConfig{.mrows = 32};
  opts.tune_from_cache = true;
  opts.cache_dir = dir.str();
  const auto m = build(a, opts);
  const auto pinned = build(a, CrsdConfig{.mrows = 32});
  EXPECT_TRUE(check::validate_same_storage(m, pinned).empty());
}

}  // namespace
}  // namespace crsd
