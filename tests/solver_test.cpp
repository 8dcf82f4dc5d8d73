// Tests for the iterative solvers over different SpMV backends (CSR, CRSD
// interpreted, CRSD JIT codelet).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "formats/csr.hpp"
#include "matrix/generators.hpp"
#include "solver/solvers.hpp"
#include "temp_cache_dir.hpp"

namespace crsd::solver {
namespace {

/// Manufactured solution: pick x*, compute b = A x*, solve, compare.
template <typename Apply>
void check_cg_recovers(const Coo<double>& a, Apply&& apply, double tol) {
  const index_t n = a.num_rows();
  Rng rng(1);
  std::vector<double> x_star(static_cast<std::size_t>(n));
  for (auto& v : x_star) v = rng.next_double(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.spmv_reference(x_star.data(), b.data());

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  SolveOptions opts;
  opts.max_iterations = 2000;
  opts.tolerance = 1e-12;
  const SolveResult r = conjugate_gradient<double>(n, apply, b.data(),
                                                   x.data(), opts);
  EXPECT_TRUE(r.converged) << "iters=" << r.iterations
                           << " res=" << r.residual_norm;
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_star[static_cast<std::size_t>(i)], tol)
        << i;
  }
}

TEST(ConjugateGradient, SolvesPoissonWithCsrBackend) {
  const auto a = stencil_5pt_2d(24, 24);
  const auto m = CsrMatrix<double>::from_coo(a);
  check_cg_recovers(a, [&](const double* x, double* y) { m.spmv(x, y); },
                    1e-7);
}

TEST(ConjugateGradient, SolvesPoissonWithCrsdBackend) {
  const auto a = stencil_5pt_2d(24, 24);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  check_cg_recovers(a, [&](const double* x, double* y) { m.spmv(x, y); },
                    1e-7);
}

TEST(ConjugateGradient, SolvesWithJitCodeletBackend) {
  const auto a = stencil_5pt_2d(20, 20);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  const TempCacheDir dir("solver-cache");
  codegen::JitCompiler::Options jopts;
  jopts.cache_dir = dir.str();
  codegen::JitCompiler compiler(jopts);
  const codegen::CrsdJitKernel<double> kernel(m, compiler);
  check_cg_recovers(
      a, [&](const double* x, double* y) { kernel.spmv(m, x, y); }, 1e-7);
}

TEST(ConjugateGradient, JacobiPreconditionerReducesIterations) {
  // Badly scaled SPD system: D^(1/2) A D^(1/2) with wild diagonal.
  const auto base = stencil_5pt_2d(16, 16);
  const index_t n = base.num_rows();
  Rng rng(2);
  std::vector<double> scale(static_cast<std::size_t>(n));
  for (auto& s : scale) s = std::pow(10.0, rng.next_double(-2, 2));
  Coo<double> a(n, n);
  for (size64_t k = 0; k < base.nnz(); ++k) {
    const index_t r = base.row_indices()[k], c = base.col_indices()[k];
    a.add(r, c,
          base.values()[k] * scale[static_cast<std::size_t>(r)] *
              scale[static_cast<std::size_t>(c)]);
  }
  a.canonicalize();
  const auto m = CsrMatrix<double>::from_coo(a);
  auto apply = [&](const double* x, double* y) { m.spmv(x, y); };

  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0), x2 = x1;
  SolveOptions opts;
  opts.max_iterations = 5000;
  opts.tolerance = 1e-10;
  const SolveResult plain =
      conjugate_gradient<double>(n, apply, b.data(), x1.data(), opts);
  const SolveResult pre = conjugate_gradient<double>(
      n, apply, b.data(), x2.data(), opts, jacobi_preconditioner(a));
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
}

TEST(ConjugateGradient, RejectsNonSpd) {
  // Indefinite matrix: CG's p'Ap check must fire.
  Coo<double> a(2, 2);
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  a.canonicalize();
  const auto m = CsrMatrix<double>::from_coo(a);
  std::vector<double> b = {1.0, 1.0}, x = {0.0, 0.0};
  EXPECT_THROW(conjugate_gradient<double>(
                   2, [&](const double* in, double* out) { m.spmv(in, out); },
                   b.data(), x.data()),
               Error);
}

/// The six-pass conjugate gradient loop the solver used before its vector
/// passes were fused, kept verbatim as the bitwise reference: a separate
/// r·r pass, a copy of r into z without a preconditioner, a separate r·z
/// pass and b's norm from a copy of b.
template <Real T>
SolveResult six_pass_cg(index_t n, const ApplyFn<T>& apply_a, const T* b,
                        T* x, const SolveOptions& opts,
                        const ApplyFn<T>& precond) {
  std::vector<T> r(static_cast<std::size_t>(n)), z(r), p(r), ap(r);

  apply_a(x, ap.data());
  for (index_t i = 0; i < n; ++i) r[static_cast<std::size_t>(i)] = b[i] - ap[static_cast<std::size_t>(i)];
  const double bnorm = std::max(detail::norm2(std::vector<T>(b, b + n)), 1e-300);

  auto apply_m = [&](const std::vector<T>& in, std::vector<T>& out) {
    if (precond) {
      precond(in.data(), out.data());
    } else {
      out = in;
    }
  };

  apply_m(r, z);
  p = z;
  double rz = detail::dot(r, z);

  SolveResult result;
  for (int it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it + 1;
    apply_a(p.data(), ap.data());
    const double pap = detail::dot(p, ap);
    CRSD_CHECK_MSG(pap > 0, "matrix is not SPD (p'Ap = " << pap << ")");
    const double alpha = rz / pap;
    for (index_t i = 0; i < n; ++i) {
      x[i] += static_cast<T>(alpha * double(p[static_cast<std::size_t>(i)]));
      r[static_cast<std::size_t>(i)] -=
          static_cast<T>(alpha * double(ap[static_cast<std::size_t>(i)]));
    }
    result.residual_norm = detail::norm2(r);
    if (result.residual_norm <= opts.tolerance * bnorm) {
      result.converged = true;
      return result;
    }
    apply_m(r, z);
    const double rz_next = detail::dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (index_t i = 0; i < n; ++i) {
      p[static_cast<std::size_t>(i)] =
          z[static_cast<std::size_t>(i)] +
          static_cast<T>(beta * double(p[static_cast<std::size_t>(i)]));
    }
  }
  return result;
}

/// A badly scaled SPD 3D 7-point operator, D^(1/2) L D^(1/2), so the Jacobi
/// preconditioner is far from a uniform scaling.
Coo<double> scaled_7pt_3d(index_t nx, index_t ny, index_t nz) {
  const auto base = stencil_7pt_3d(nx, ny, nz);
  Rng rng(5);
  std::vector<double> scale(static_cast<std::size_t>(base.num_rows()));
  for (auto& s : scale) s = std::pow(10.0, rng.next_double(-1, 1));
  Coo<double> a(base.num_rows(), base.num_cols());
  for (size64_t k = 0; k < base.nnz(); ++k) {
    const index_t r = base.row_indices()[k], c = base.col_indices()[k];
    a.add(r, c,
          base.values()[k] * scale[static_cast<std::size_t>(r)] *
              scale[static_cast<std::size_t>(c)]);
  }
  a.canonicalize();
  return a;
}

/// CG against the six-pass reference on the same operator, right-hand side
/// and nonzero start: x, the iteration count and the residual must agree
/// bit for bit, with and without Jacobi, converged or stopped by the
/// iteration cap.
template <Real T>
void expect_cg_matches_six_pass(const Coo<double>& a64) {
  const Coo<T> a = a64.cast<T>();
  const auto m = build(a, CrsdConfig{.mrows = 32});
  const ApplyFn<T> apply = [&](const T* in, T* out) { m.spmv(in, out); };
  const index_t n = a.num_rows();
  Rng rng(9);
  std::vector<T> b(static_cast<std::size_t>(n)), x0(b.size());
  for (auto& v : b) v = static_cast<T>(rng.next_double(-1, 1));
  for (auto& v : x0) v = static_cast<T>(rng.next_double(-0.1, 0.1));

  for (const bool jacobi : {false, true}) {
    for (const int cap : {7, 5000}) {
      SCOPED_TRACE(std::string(jacobi ? "jacobi" : "plain") + " cap " +
                   std::to_string(cap));
      const ApplyFn<T> precond =
          jacobi ? jacobi_preconditioner(a) : ApplyFn<T>(nullptr);
      SolveOptions opts;
      opts.max_iterations = cap;
      opts.tolerance = std::is_same_v<T, float> ? 1e-5 : 1e-10;
      std::vector<T> x_ref = x0, x = x0;
      const SolveResult want =
          six_pass_cg<T>(n, apply, b.data(), x_ref.data(), opts, precond);
      const SolveResult got = conjugate_gradient<T>(n, apply, b.data(),
                                                    x.data(), opts, precond);
      EXPECT_EQ(got.converged, want.converged);
      EXPECT_EQ(got.converged, cap > 7);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(std::memcmp(&got.residual_norm, &want.residual_norm,
                            sizeof(double)),
                0)
          << got.residual_norm << " vs " << want.residual_norm;
      EXPECT_EQ(std::memcmp(x.data(), x_ref.data(), x.size() * sizeof(T)), 0);
    }
  }
}

TEST(ConjugateGradient, BitwiseEqualToSixPassLoop) {
  const Coo<double> a = scaled_7pt_3d(12, 10, 9);
  expect_cg_matches_six_pass<double>(a);
  expect_cg_matches_six_pass<float>(a);
}

TEST(Bicgstab, SolvesNonsymmetricSystem) {
  Rng rng(3);
  auto a = broken_diagonals(400, {{3, 0.8, 2}, {-7, 0.6, 3}, {1, 1.0, 1}}, rng);
  make_diagonally_dominant(a, 1.0);
  const auto m = CsrMatrix<double>::from_coo(a);
  const index_t n = a.num_rows();
  std::vector<double> x_star(static_cast<std::size_t>(n));
  for (auto& v : x_star) v = rng.next_double(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.spmv_reference(x_star.data(), b.data());
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  SolveOptions opts;
  opts.max_iterations = 2000;
  opts.tolerance = 1e-12;
  const SolveResult r = bicgstab<double>(
      n, [&](const double* in, double* out) { m.spmv(in, out); }, b.data(),
      x.data(), opts);
  EXPECT_TRUE(r.converged) << r.iterations << " " << r.residual_norm;
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_star[static_cast<std::size_t>(i)], 1e-6);
  }
}

TEST(Bicgstab, ConvergedOnFirstIterationForIdentity) {
  Coo<double> a(8, 8);
  for (index_t i = 0; i < 8; ++i) a.add(i, i, 1.0);
  a.canonicalize();
  std::vector<double> b(8, 3.0), x(8, 0.0);
  const SolveResult r = bicgstab<double>(
      8, [&](const double* in, double* out) { a.spmv_reference(in, out); },
      b.data(), x.data());
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2);
  for (double v : x) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(SolveOptions, MaxIterationsRespected) {
  const auto a = stencil_5pt_2d(30, 30);
  const auto m = CsrMatrix<double>::from_coo(a);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  SolveOptions opts;
  opts.max_iterations = 3;
  opts.tolerance = 1e-30;
  const SolveResult r = conjugate_gradient<double>(
      a.num_rows(), [&](const double* in, double* out) { m.spmv(in, out); },
      b.data(), x.data(), opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3);
}

}  // namespace
}  // namespace crsd::solver
