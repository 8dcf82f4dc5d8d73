// Iterative solvers — the application layer the paper motivates (SpMV is
// the kernel of Krylov methods for FDM/FVM/FEM systems). Solvers are
// format-agnostic: the operator is any callable y = A*x, so CSR, DIA, CRSD
// interpreted, or a JIT codelet all plug in.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "matrix/coo.hpp"

namespace crsd::solver {

/// y = A*x application supplied by the caller.
template <Real T>
using ApplyFn = std::function<void(const T* x, T* y)>;

/// Result of an iterative solve.
struct SolveResult {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;  ///< ||b - A*x|| at exit
};

struct SolveOptions {
  int max_iterations = 1000;
  double tolerance = 1e-10;  ///< on ||r|| / ||b||
};

namespace detail {

template <Real T>
double dot(const std::vector<T>& a, const std::vector<T>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += double(a[i]) * double(b[i]);
  }
  return s;
}

template <Real T>
double norm2(const std::vector<T>& a) {
  return std::sqrt(dot(a, a));
}

}  // namespace detail

/// Preconditioned conjugate gradient for SPD systems. `precond` (optional)
/// applies M^{-1}; pass e.g. a Jacobi inverse-diagonal scaling.
///
/// Besides the SpMV, an iteration makes three passes over the vectors:
/// p·Ap; then x += αp and r -= αAp, summing r·r in the same loop; then
/// p = z + βp. Without a preconditioner z is r itself, so r·z is the r·r
/// just summed and no copy of r is made.
template <Real T>
SolveResult conjugate_gradient(index_t n, const ApplyFn<T>& apply_a,
                               const T* b, T* x,
                               const SolveOptions& opts = {},
                               const ApplyFn<T>& precond = nullptr) {
  CRSD_CHECK_MSG(n >= 1, "empty system");
  const std::size_t len = static_cast<std::size_t>(n);
  std::vector<T> r(len), p(len), ap(len), z_buf(precond ? len : 0);
  const std::vector<T>& z = precond ? z_buf : r;

  apply_a(x, ap.data());
  double bb = 0;
  for (std::size_t i = 0; i < len; ++i) {
    r[i] = b[i] - ap[i];
    bb += double(b[i]) * double(b[i]);
  }
  const double bnorm = std::max(std::sqrt(bb), 1e-300);

  if (precond) precond(r.data(), z_buf.data());
  p = z;
  double rz = detail::dot(r, z);

  SolveResult result;
  for (int it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it + 1;
    apply_a(p.data(), ap.data());
    const double pap = detail::dot(p, ap);
    CRSD_CHECK_MSG(pap > 0, "matrix is not SPD (p'Ap = " << pap << ")");
    const double alpha = rz / pap;
    double rr = 0;
    for (std::size_t i = 0; i < len; ++i) {
      x[i] += static_cast<T>(alpha * double(p[i]));
      r[i] -= static_cast<T>(alpha * double(ap[i]));
      rr += double(r[i]) * double(r[i]);
    }
    result.residual_norm = std::sqrt(rr);
    if (result.residual_norm <= opts.tolerance * bnorm) {
      result.converged = true;
      return result;
    }
    double rz_next = rr;
    if (precond) {
      precond(r.data(), z_buf.data());
      rz_next = detail::dot(r, z);
    }
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < len; ++i) {
      p[i] = z[i] + static_cast<T>(beta * double(p[i]));
    }
  }
  return result;
}

/// BiCGSTAB for general (nonsymmetric) systems.
template <Real T>
SolveResult bicgstab(index_t n, const ApplyFn<T>& apply_a, const T* b, T* x,
                     const SolveOptions& opts = {}) {
  CRSD_CHECK_MSG(n >= 1, "empty system");
  std::vector<T> r(static_cast<std::size_t>(n)), r0(r), p(r), v(r), s(r), t(r);

  apply_a(x, v.data());
  for (index_t i = 0; i < n; ++i) {
    r[static_cast<std::size_t>(i)] = b[i] - v[static_cast<std::size_t>(i)];
  }
  r0 = r;
  const double bnorm = std::max(detail::norm2(std::vector<T>(b, b + n)), 1e-300);
  double rho = 1, alpha = 1, omega = 1;
  std::fill(p.begin(), p.end(), T(0));
  std::fill(v.begin(), v.end(), T(0));

  SolveResult result;
  for (int it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it + 1;
    const double rho_next = detail::dot(r0, r);
    if (std::abs(rho_next) < 1e-300) break;  // breakdown
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (index_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      p[k] = r[k] + static_cast<T>(beta * (double(p[k]) - omega * double(v[k])));
    }
    apply_a(p.data(), v.data());
    alpha = rho / detail::dot(r0, v);
    for (index_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      s[k] = r[k] - static_cast<T>(alpha * double(v[k]));
    }
    if (detail::norm2(s) <= opts.tolerance * bnorm) {
      for (index_t i = 0; i < n; ++i) {
        x[i] += static_cast<T>(alpha * double(p[static_cast<std::size_t>(i)]));
      }
      result.residual_norm = detail::norm2(s);
      result.converged = true;
      return result;
    }
    apply_a(s.data(), t.data());
    omega = detail::dot(t, s) / std::max(detail::dot(t, t), 1e-300);
    for (index_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      x[i] += static_cast<T>(alpha * double(p[k]) + omega * double(s[k]));
      r[k] = s[k] - static_cast<T>(omega * double(t[k]));
    }
    result.residual_norm = detail::norm2(r);
    if (result.residual_norm <= opts.tolerance * bnorm) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

/// Restarted GMRES(m) for general systems: Arnoldi with modified
/// Gram-Schmidt and Givens rotations on the Hessenberg matrix.
template <Real T>
SolveResult gmres(index_t n, const ApplyFn<T>& apply_a, const T* b, T* x,
                  int restart = 30, const SolveOptions& opts = {}) {
  CRSD_CHECK_MSG(n >= 1, "empty system");
  CRSD_CHECK_MSG(restart >= 1, "restart length must be >= 1");
  const int m = restart;
  const double bnorm =
      std::max(detail::norm2(std::vector<T>(b, b + n)), 1e-300);

  std::vector<std::vector<T>> v(
      static_cast<std::size_t>(m) + 1,
      std::vector<T>(static_cast<std::size_t>(n)));
  // Hessenberg (column-major, (m+1) x m), Givens coefficients, rhs.
  std::vector<double> h(static_cast<std::size_t>((m + 1) * m), 0.0);
  std::vector<double> cs(static_cast<std::size_t>(m)),
      sn(static_cast<std::size_t>(m)), g(static_cast<std::size_t>(m) + 1);
  std::vector<T> w(static_cast<std::size_t>(n));

  SolveResult result;
  while (result.iterations < opts.max_iterations) {
    // r0 = b - A x.
    apply_a(x, w.data());
    for (index_t i = 0; i < n; ++i) {
      v[0][static_cast<std::size_t>(i)] =
          b[i] - w[static_cast<std::size_t>(i)];
    }
    double beta = detail::norm2(v[0]);
    result.residual_norm = beta;
    if (beta <= opts.tolerance * bnorm) {
      result.converged = true;
      return result;
    }
    for (auto& vi : v[0]) vi = static_cast<T>(double(vi) / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < m && result.iterations < opts.max_iterations; ++j) {
      ++result.iterations;
      apply_a(v[static_cast<std::size_t>(j)].data(), w.data());
      // Modified Gram-Schmidt.
      for (int i = 0; i <= j; ++i) {
        const double hij = detail::dot(w, v[static_cast<std::size_t>(i)]);
        h[static_cast<std::size_t>(j * (m + 1) + i)] = hij;
        for (index_t r = 0; r < n; ++r) {
          w[static_cast<std::size_t>(r)] -= static_cast<T>(
              hij * double(v[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(r)]));
        }
      }
      const double hnext = detail::norm2(w);
      h[static_cast<std::size_t>(j * (m + 1) + j + 1)] = hnext;
      if (hnext > 1e-300) {
        for (index_t r = 0; r < n; ++r) {
          v[static_cast<std::size_t>(j) + 1][static_cast<std::size_t>(r)] =
              static_cast<T>(double(w[static_cast<std::size_t>(r)]) / hnext);
        }
      }
      // Apply previous Givens rotations to the new column.
      for (int i = 0; i < j; ++i) {
        const double t0 = h[static_cast<std::size_t>(j * (m + 1) + i)];
        const double t1 = h[static_cast<std::size_t>(j * (m + 1) + i + 1)];
        h[static_cast<std::size_t>(j * (m + 1) + i)] =
            cs[static_cast<std::size_t>(i)] * t0 +
            sn[static_cast<std::size_t>(i)] * t1;
        h[static_cast<std::size_t>(j * (m + 1) + i + 1)] =
            -sn[static_cast<std::size_t>(i)] * t0 +
            cs[static_cast<std::size_t>(i)] * t1;
      }
      // New rotation annihilating h(j+1, j).
      const double t0 = h[static_cast<std::size_t>(j * (m + 1) + j)];
      const double t1 = h[static_cast<std::size_t>(j * (m + 1) + j + 1)];
      const double denom = std::sqrt(t0 * t0 + t1 * t1);
      cs[static_cast<std::size_t>(j)] = denom < 1e-300 ? 1.0 : t0 / denom;
      sn[static_cast<std::size_t>(j)] = denom < 1e-300 ? 0.0 : t1 / denom;
      h[static_cast<std::size_t>(j * (m + 1) + j)] = denom;
      h[static_cast<std::size_t>(j * (m + 1) + j + 1)] = 0.0;
      const double gj = g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = cs[static_cast<std::size_t>(j)] * gj;
      g[static_cast<std::size_t>(j) + 1] =
          -sn[static_cast<std::size_t>(j)] * gj;
      result.residual_norm = std::abs(g[static_cast<std::size_t>(j) + 1]);
      if (result.residual_norm <= opts.tolerance * bnorm || hnext <= 1e-300) {
        ++j;
        break;
      }
    }
    // Back-substitute y and update x += V y.
    std::vector<double> ycoef(static_cast<std::size_t>(j), 0.0);
    for (int i = j - 1; i >= 0; --i) {
      double s = g[static_cast<std::size_t>(i)];
      for (int l = i + 1; l < j; ++l) {
        s -= h[static_cast<std::size_t>(l * (m + 1) + i)] *
             ycoef[static_cast<std::size_t>(l)];
      }
      ycoef[static_cast<std::size_t>(i)] =
          s / h[static_cast<std::size_t>(i * (m + 1) + i)];
    }
    for (index_t r = 0; r < n; ++r) {
      double acc = double(x[r]);
      for (int i = 0; i < j; ++i) {
        acc += ycoef[static_cast<std::size_t>(i)] *
               double(v[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(r)]);
      }
      x[r] = static_cast<T>(acc);
    }
    if (result.residual_norm <= opts.tolerance * bnorm) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

/// Jacobi preconditioner: returns M^{-1} = diag(A)^{-1} as an ApplyFn.
/// Rows with zero diagonal get identity scaling.
template <Real T>
ApplyFn<T> jacobi_preconditioner(const Coo<T>& a) {
  CRSD_CHECK_MSG(a.num_rows() == a.num_cols(), "Jacobi needs a square matrix");
  auto inv_diag = std::make_shared<std::vector<T>>(
      static_cast<std::size_t>(a.num_rows()), T(1));
  for (size64_t k = 0; k < a.nnz(); ++k) {
    if (a.row_indices()[k] == a.col_indices()[k] && a.values()[k] != T(0)) {
      (*inv_diag)[static_cast<std::size_t>(a.row_indices()[k])] =
          T(1) / a.values()[k];
    }
  }
  const index_t n = a.num_rows();
  return [inv_diag, n](const T* in, T* out) {
    for (index_t i = 0; i < n; ++i) {
      out[i] = in[i] * (*inv_diag)[static_cast<std::size_t>(i)];
    }
  };
}

}  // namespace crsd::solver
