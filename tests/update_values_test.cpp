// Tests for the inspector/executor value-refresh path (update_values) and
// the parallel DCSR kernel added alongside it.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/validate.hpp"
#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/update.hpp"
#include "formats/dcsr.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "temp_cache_dir.hpp"

namespace crsd {
namespace {

Coo<double> rescaled(const Coo<double>& a, double factor, double shift) {
  Coo<double> out(a.num_rows(), a.num_cols());
  out.reserve(a.nnz());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    out.add(a.row_indices()[k], a.col_indices()[k],
            a.values()[k] * factor + shift);
  }
  out.mark_canonical();
  return out;
}

TEST(UpdateValues, RefreshedMatrixComputesNewProduct) {
  Rng rng(1);
  auto a = astro_convection(8, 8, 6, true, rng);
  auto m = build(a, CrsdConfig{.mrows = 32});
  const auto a2 = rescaled(a, -2.5, 0.125);
  update_values(m, a2);

  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> got(want.size(), -1);
  a2.spmv_reference(x.data(), want.data());
  m.spmv(x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

TEST(UpdateValues, KeepsCompiledCodeletValid) {
  // The codelet is specialized to structure, not values: after a value
  // refresh the same compiled kernel must compute the new product.
  const auto a = stencil_5pt_2d(16, 16);
  auto m = build(a, CrsdConfig{.mrows = 32});
  const TempCacheDir dir("upd");
  codegen::JitCompiler::Options jopts;
  jopts.cache_dir = dir.str();
  codegen::JitCompiler compiler(jopts);
  const codegen::CrsdJitKernel<double> kernel(m, compiler);

  const auto a2 = rescaled(a, 3.0, 0.0);
  update_values(m, a2);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> got(want.size());
  a2.spmv_reference(x.data(), want.data());
  kernel.spmv(m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12);
  }
}

TEST(UpdateValues, ScatterRowsRefreshedToo) {
  Rng rng(2);
  auto a = dense_band(256, 2);
  inject_scatter(a, 30, rng);
  auto m = build(a, CrsdConfig{.mrows = 32});
  ASSERT_GT(m.num_scatter_rows(), 0);
  const auto a2 = rescaled(a, 0.5, -1.0);
  update_values(m, a2);
  std::vector<double> x(256, 1.0), want(256), got(256);
  a2.spmv_reference(x.data(), want.data());
  m.spmv(x.data(), got.data());
  for (int i = 0; i < 256; ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(UpdateValues, RejectsStructureChanges) {
  const auto a = dense_band(128, 2);
  auto m = build(a, CrsdConfig{.mrows = 32});
  // A rejected update must leave every value stream as it was.
  const std::vector<double> dia_before = m.dia_values();
  const std::vector<double> scatter_before = m.scatter_val();
  auto expect_unchanged = [&] {
    EXPECT_EQ(m.dia_values(), dia_before);
    EXPECT_EQ(m.scatter_val(), scatter_before);
  };

  // Different nnz count.
  Coo<double> fewer(128, 128);
  for (index_t i = 0; i < 128; ++i) fewer.add(i, i, 1.0);
  fewer.canonicalize();
  EXPECT_THROW(update_values(m, fewer), Error);
  expect_unchanged();

  // Same count, one entry moved off-structure: in the first row, then in
  // the last, after every other row has been placed.
  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  for (const size64_t bad : {size64_t{0}, a.nnz() - 1}) {
    SCOPED_TRACE(bad);
    Coo<double> moved(128, 128);
    for (size64_t k = 0; k < a.nnz(); ++k) {
      if (k == bad) {
        // Offset +-100 does not exist in the band.
        moved.add(rows[k], rows[k] < 64 ? rows[k] + 100 : rows[k] - 100,
                  7.0);
      } else {
        moved.add(rows[k], cols[k], 2.0 + double(k));
      }
    }
    moved.canonicalize();
    ASSERT_EQ(moved.nnz(), a.nnz());
    EXPECT_THROW(update_values(m, moved), Error);
    expect_unchanged();
  }

  // Dimension mismatch.
  Coo<double> small(64, 64);
  small.add(0, 0, 1.0);
  small.canonicalize();
  EXPECT_THROW(update_values(m, small), Error);
  expect_unchanged();
}

TEST(UpdateValues, RejectsTripletsOnlyMarkedCanonical) {
  // The walk's cursors only move forward; rows out of order must throw,
  // not index behind them.
  const auto a = dense_band(64, 1);
  auto m = build(a, CrsdConfig{.mrows = 16});
  // a's entries with the rows in descending order, each row's columns
  // still ascending.
  Coo<double> reversed(64, 64);
  for (index_t r = 63; r >= 0; --r) {
    for (index_t c = std::max<index_t>(r - 1, 0);
         c <= std::min<index_t>(r + 1, 63); ++c) {
      reversed.add(r, c, 3.0);
    }
  }
  reversed.mark_canonical();
  ASSERT_EQ(reversed.nnz(), a.nnz());
  const std::vector<double> dia_before = m.dia_values();
  EXPECT_THROW(update_values(m, reversed), Error);
  EXPECT_EQ(m.dia_values(), dia_before);
}

/// `a` with every value multiplied by its own nonzero factor.
Coo<double> reweighted(const Coo<double>& a, Rng& rng) {
  Coo<double> out(a.num_rows(), a.num_cols());
  out.reserve(a.nnz());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    const double f = rng.next_double(0.5, 2.0) * (k % 3 == 0 ? -1.0 : 1.0);
    out.add(a.row_indices()[k], a.col_indices()[k], a.values()[k] * f);
  }
  out.mark_canonical();
  return out;
}

TEST(UpdateValues, MatchesFreshBuildAcrossSuiteAndStorageModes) {
  // update_values(build(a), a2) must store exactly what build(a2) stores,
  // for every suite matrix and every value and scatter-column encoding.
  const ValuePrecision precisions[] = {ValuePrecision::kNative,
                                       ValuePrecision::kFloat32};
  const ScatterIndexMode index_modes[] = {ScatterIndexMode::kIndex32,
                                          ScatterIndexMode::kIndex16};
  Rng rng(17);
  for (const MatrixSpec& spec : paper_suite()) {
    const Coo<double> a = spec.generate(0.02);
    const Coo<double> a2 = reweighted(a, rng);
    for (const ValuePrecision vp : precisions) {
      for (const ScatterIndexMode im : index_modes) {
        CrsdConfig cfg;
        cfg.storage.value_precision = vp;
        cfg.storage.narrow_scatter_indices = im == ScatterIndexMode::kIndex16;
        SCOPED_TRACE(spec.name + " " + value_precision_name(vp) + " " +
                     scatter_index_mode_name(im));
        auto m = build(a, cfg);
        update_values(m, a2);
        const auto fresh = build(a2, cfg);
        const auto diags = check::validate_same_storage(m, fresh);
        EXPECT_TRUE(diags.empty()) << diags.front().message;
      }
    }
  }
}

TEST(UpdateValues, SuiteMatrixRoundTrip) {
  const auto a = paper_matrix(18).generate(0.02);
  auto m = build(a, CrsdConfig{.mrows = 64});
  // Updating with the original values is a no-op.
  const auto dia_before = m.dia_values();
  update_values(m, a);
  EXPECT_EQ(m.dia_values(), dia_before);
}

TEST(DcsrParallel, MatchesSerial) {
  Rng rng(3);
  auto a = dense_band(1024, 5);
  inject_scatter(a, 100, rng);
  const auto m = DcsrMatrix<double>::from_coo(a);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> serial(1024), parallel(1024, -1);
  m.spmv(x.data(), serial.data());
  ThreadPool pool(4);
  m.spmv_parallel(pool, x.data(), parallel.data());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace crsd
