// Mixed-precision / compact-index storage suite: tolerance-gated parity of
// every compact storage mode against the fp64 build over paper-suite
// structures, bitwise reproducibility of the native-value modes, mutation
// fixtures proving the validator catches corrupted narrow index streams,
// serialization round trips, value updates with re-quantization,
// the footprint diet, and simulated-memcheck cleanliness of the
// compact-mode kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "check/close.hpp"
#include "check/memcheck.hpp"
#include "check/validate.hpp"
#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/serialize.hpp"
#include "core/update.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "obs/metrics.hpp"

namespace crsd {
namespace {

/// Every non-default mode, headline (fp32 + u16 ELL) first.
const std::vector<StorageOptions>& compact_modes() {
  static const std::vector<StorageOptions> modes = {
      {ValuePrecision::kFloat32, true},
      {ValuePrecision::kNative, true},
  };
  return modes;
}

std::string mode_name(const StorageOptions& s) {
  return std::string(value_precision_name(s.value_precision)) +
         (s.narrow_scatter_indices ? "+i16" : "");
}

/// Structured + scatter mix with every builder feature engaged.
Coo<double> mixed_matrix(int seed = 7) {
  Rng rng(seed);
  auto a = broken_diagonals(
      700, {{-96, 0.55, 4}, {-1, 1.0, 1}, {0, 1.0, 1}, {1, 0.9, 2},
            {96, 0.6, 5}},
      rng);
  inject_scatter(a, 60, rng);
  return a;
}

CrsdMatrix<double> build_mode(const Coo<double>& a, const StorageOptions& s,
                              index_t mrows = 64) {
  CrsdConfig cfg;
  cfg.mrows = mrows;
  cfg.storage = s;
  return build(a, cfg);
}

std::vector<double> spmv_of(const CrsdMatrix<double>& m,
                            const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(m.num_rows()));
  m.spmv(x.data(), y.data());
  return y;
}

size64_t max_row_terms(const Coo<double>& a) {
  std::vector<size64_t> row_nnz(static_cast<std::size_t>(a.num_rows()), 0);
  for (size64_t k = 0; k < a.nnz(); ++k) {
    ++row_nnz[static_cast<std::size_t>(a.row_indices()[k])];
  }
  size64_t max_terms = 0;
  for (size64_t n : row_nnz) max_terms = std::max(max_terms, n);
  return max_terms;
}

TEST(MixedPrecision, ParityOverPaperSuiteStructures) {
  // Idle-section, scatter-heavy, and dense-band representatives.
  for (int id : {3, 7, 15}) {
    const auto& spec = paper_matrix(id);
    const auto a = spec.generate(0.05);
    Rng rng(2026);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);

    const auto fp64 = build_mode(a, {});
    const auto y_ref = spmv_of(fp64, x);
    double ref_scale = 0.0;
    for (double v : y_ref) ref_scale = std::max(ref_scale, std::abs(v));
    const size64_t terms = max_row_terms(a);

    for (const auto& mode : compact_modes()) {
      const auto m = build_mode(a, mode);
      EXPECT_TRUE(check::validate(m).empty()) << spec.name << " "
                                              << mode_name(mode);
      EXPECT_TRUE(check::validate_against(m, a).empty())
          << spec.name << " " << mode_name(mode);
      const auto y = spmv_of(m, x);
      const auto bound = check::storage_parity_bound<double>(
          m.value_precision(), terms, ref_scale);
      // Tolerance-gated, never bitwise: the bound comes from the storage
      // roundoff and the matrix's accumulation length.
      check::assert_close((spec.name + " " + mode_name(mode)).c_str(),
                          y.data(), y_ref.data(), y.size(), bound);
    }
  }
}

TEST(MixedPrecision, NativeValueCompactIndexModesAreBitwise) {
  // u16 columns re-encode positions, not values, and the kernels
  // visit columns in the same ascending order — so with native value
  // streams the sweep must reproduce the fp64 baseline bit for bit.
  const auto a = mixed_matrix();
  Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);

  const auto fp64 = build_mode(a, {});
  const auto y_ref = spmv_of(fp64, x);
  for (const StorageOptions& mode : compact_modes()) {
    if (mode.value_precision != ValuePrecision::kNative) continue;
    const auto m = build_mode(a, mode);
    ASSERT_NE(m.scatter_index_mode(), ScatterIndexMode::kIndex32)
        << mode_name(mode);
    // Cross-width storage equality: decoded streams identical.
    EXPECT_TRUE(check::validate_same_storage(fp64, m).empty())
        << mode_name(mode);
    const auto y = spmv_of(m, x);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << mode_name(mode) << " row " << i;
    }
  }
}

TEST(MixedPrecision, ValidatorCatchesFlippedNarrowIndex) {
  const auto a = mixed_matrix();
  const auto m = build_mode(a, {ValuePrecision::kNative, true});
  ASSERT_EQ(m.scatter_index_mode(), ScatterIndexMode::kIndex16);
  ASSERT_TRUE(check::validate(m.storage()).empty());

  // Find a live (non-pad) entry and flip it out of the column range.
  CrsdStorage<double> s = m.storage();
  std::size_t live = s.scatter_col16.size();
  for (std::size_t i = 0; i < s.scatter_col16.size(); ++i) {
    if (s.scatter_col16[i] != kScatterPad16) {
      live = i;
      break;
    }
  }
  ASSERT_LT(live, s.scatter_col16.size());
  s.scatter_col16[live] =
      static_cast<std::uint16_t>(s.num_cols);  // one past the last column
  const auto diags = check::validate(s);
  EXPECT_FALSE(diags.empty()) << "out-of-range u16 column not flagged";

  // A bit flip that lands inside the column range but breaks the ascending
  // per-row order is caught by the structural pass.
  CrsdStorage<double> s2 = m.storage();
  bool flipped = false;
  const std::size_t nsr = s2.scatter_rowno.size();
  for (std::size_t k = 1; k + 1 <= static_cast<std::size_t>(s2.scatter_width);
       ++k) {
    for (std::size_t i = 0; i < nsr; ++i) {
      const std::size_t slot = k * nsr + i;
      if (s2.scatter_col16[slot] != kScatterPad16 &&
          s2.scatter_col16[(k - 1) * nsr + i] != kScatterPad16) {
        s2.scatter_col16[slot] = s2.scatter_col16[(k - 1) * nsr + i];
        flipped = true;
        break;
      }
    }
    if (flipped) break;
  }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(check::validate(s2).empty())
      << "duplicated u16 column (order violation) not flagged";
}

TEST(MixedPrecision, SerializeRoundTripEveryMode) {
  const auto a = mixed_matrix();
  Rng rng(5);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);

  std::vector<StorageOptions> modes = compact_modes();
  modes.push_back({});  // native/i32 baseline uses the same v002 container
  for (const auto& mode : modes) {
    const auto m = build_mode(a, mode);
    std::stringstream ss;
    write_crsd(ss, m);
    const auto back = read_crsd<double>(ss);
    EXPECT_EQ(back.value_precision(), m.value_precision()) << mode_name(mode);
    EXPECT_EQ(back.scatter_index_mode(), m.scatter_index_mode())
        << mode_name(mode);
    EXPECT_TRUE(check::validate_same_storage(m, back).empty())
        << mode_name(mode);
    // The round trip preserves the encoded streams, so the sweep is
    // bitwise identical — even for the quantized value modes.
    const auto y0 = spmv_of(m, x);
    const auto y1 = spmv_of(back, x);
    for (std::size_t i = 0; i < y0.size(); ++i) {
      ASSERT_EQ(y0[i], y1[i]) << mode_name(mode) << " row " << i;
    }
  }
}

TEST(MixedPrecision, UpdateValuesRequantizes) {
  // OSKI-style value update on a compacted container: new values must land
  // re-quantized, reproducing a fresh compact build of the updated matrix.
  const auto a = mixed_matrix();
  Coo<double> scaled(a.num_rows(), a.num_cols());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    scaled.add(a.row_indices()[k], a.col_indices()[k],
               a.values()[k] * 1.75 + 0.01);
  }
  scaled.canonicalize();

  for (const auto& mode : compact_modes()) {
    auto m = build_mode(a, mode);
    update_values(m, scaled);
    const auto fresh = build_mode(scaled, mode);
    EXPECT_TRUE(check::validate_same_storage(fresh, m).empty())
        << mode_name(mode);
    EXPECT_TRUE(check::validate_against(m, scaled).empty())
        << mode_name(mode);
  }
}

TEST(MixedPrecision, FootprintDietAndGauge) {
  // Headline claim at container level: fp32 + narrow indices carries >= 25%
  // fewer bytes/nnz than the fp64 build (it actually halves them) on the
  // dense-band family, and the build publishes the bytes/nnz gauge.
  const auto a = paper_matrix(15).generate(0.05);  // nemeth21
  const auto fp64 = build_mode(a, {});
  const double base =
      double(fp64.footprint_bytes()) / double(fp64.nnz());

  const auto fp32 = build_mode(a, {ValuePrecision::kFloat32, true});
  const double diet =
      double(fp32.footprint_bytes()) / double(fp32.nnz());
  EXPECT_LE(diet, 0.75 * base) << "fp32+i16 must shed >= 25% of bytes/nnz";

  const double gauge =
      obs::Registry::global().gauge("crsd.storage.bytes_per_nnz").value();
  EXPECT_DOUBLE_EQ(gauge, diet);
}

TEST(MixedPrecision, GpuKernelMatchesCpuAndPassesMemcheck) {
  // The interpreted simulated-GPU kernel decodes every mode with the same
  // accumulator policy as the CPU path, and its accesses stay in bounds
  // under the simulator's checking mode (the OOB net for the compact-mode
  // traffic model).
  const auto a = mixed_matrix();
  Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());

  std::vector<StorageOptions> modes = compact_modes();
  modes.push_back({});
  for (const auto& mode : modes) {
    const auto m = build_mode(a, mode);
    const auto y_cpu = spmv_of(m, x);
    std::vector<double> y_gpu(static_cast<std::size_t>(a.num_rows()));
    check::MemChecker chk(dev.spec());
    kernels::CrsdGpuOptions opts;
    opts.checker = &chk;
    kernels::gpu_spmv_crsd(dev, m, x.data(), y_gpu.data(), opts);
    EXPECT_TRUE(chk.clean()) << mode_name(mode) << ":\n" << chk.report();
    for (std::size_t i = 0; i < y_cpu.size(); ++i) {
      ASSERT_EQ(y_gpu[i], y_cpu[i]) << mode_name(mode) << " row " << i;
    }
  }
}

TEST(MixedPrecision, JitCodeletParity) {
  if (!codegen::JitCompiler::compiler_available()) {
    GTEST_SKIP() << "no host compiler for JIT";
  }
  codegen::JitCompiler::Options jit_opts;
  jit_opts.cache_dir = (std::filesystem::temp_directory_path() /
                        ("crsd-mixed-jit-" + std::to_string(::getpid())))
                           .string();
  codegen::JitCompiler compiler(jit_opts);

  const auto a = mixed_matrix();
  Rng rng(17);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);

  std::vector<StorageOptions> modes = compact_modes();
  modes.push_back({});
  for (const auto& mode : modes) {
    const auto m = build_mode(a, mode);
    auto kernel = codegen::make_jit_kernel(m, compiler);
    ASSERT_TRUE(kernel.has_value()) << mode_name(mode);
    const auto y_ref = spmv_of(m, x);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
    kernel->spmv(m, x.data(), y.data());
    // The codelet mirrors the container kernels' accumulation order, so
    // parity is exact, not just within tolerance.
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << mode_name(mode) << " row " << i;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(jit_opts.cache_dir, ec);
}

}  // namespace
}  // namespace crsd
