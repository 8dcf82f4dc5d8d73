// Block conjugate gradient (O'Leary 1980) for SPD systems with multiple
// right-hand sides: A X = B for k columns at once. The per-iteration cost
// is dominated by one batched SpMM Q = A P — exactly the kernel
// SpmmEngine (kernels/cpu_spmm.hpp) provides — so k systems converge for
// roughly the memory traffic of one, and the search directions share
// information across columns (block methods often need fewer iterations
// than k independent CG runs on clustered spectra).
//
// The operator is any batched apply Y = A X (column-major, leading
// dimensions), so SpmmEngine::apply or k single-vector sweeps both plug in.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "solver/solvers.hpp"

namespace crsd::solver {

/// Batched operator application: Y[:, j] = A * X[:, j] for j in [0, k),
/// column-major with leading dimensions ldx / ldy.
template <Real T>
using BlockApplyFn = std::function<void(const T* x, size64_t ldx, T* y,
                                        size64_t ldy, index_t k)>;

/// Result of a block solve: worst column governs convergence.
struct BlockSolveResult {
  bool converged = false;
  int iterations = 0;
  double max_residual_norm = 0.0;  ///< max_j ||B[:,j] - A X[:,j]|| at exit
};

namespace detail {

/// Solves the k-by-k system M Z = R in place of Z (Gaussian elimination
/// with partial pivoting; k is tiny — the RHS block width). Returns false
/// if M is numerically singular (block breakdown).
template <Real T>
bool solve_small(std::vector<double>& mat, std::vector<double>& rhs,
                 index_t k) {
  for (index_t col = 0; col < k; ++col) {
    index_t piv = col;
    for (index_t row = col + 1; row < k; ++row) {
      if (std::abs(mat[static_cast<std::size_t>(row * k + col)]) >
          std::abs(mat[static_cast<std::size_t>(piv * k + col)])) {
        piv = row;
      }
    }
    if (std::abs(mat[static_cast<std::size_t>(piv * k + col)]) < 1e-300) {
      return false;
    }
    if (piv != col) {
      for (index_t j = 0; j < k; ++j) {
        std::swap(mat[static_cast<std::size_t>(col * k + j)],
                  mat[static_cast<std::size_t>(piv * k + j)]);
        std::swap(rhs[static_cast<std::size_t>(col * k + j)],
                  rhs[static_cast<std::size_t>(piv * k + j)]);
      }
    }
    const double d = mat[static_cast<std::size_t>(col * k + col)];
    for (index_t row = col + 1; row < k; ++row) {
      const double f = mat[static_cast<std::size_t>(row * k + col)] / d;
      if (f == 0.0) continue;
      for (index_t j = col; j < k; ++j) {
        mat[static_cast<std::size_t>(row * k + j)] -=
            f * mat[static_cast<std::size_t>(col * k + j)];
      }
      for (index_t j = 0; j < k; ++j) {
        rhs[static_cast<std::size_t>(row * k + j)] -=
            f * rhs[static_cast<std::size_t>(col * k + j)];
      }
    }
  }
  for (index_t col = k; col-- > 0;) {
    const double d = mat[static_cast<std::size_t>(col * k + col)];
    for (index_t j = 0; j < k; ++j) {
      double s = rhs[static_cast<std::size_t>(col * k + j)];
      for (index_t row = col + 1; row < k; ++row) {
        s -= mat[static_cast<std::size_t>(col * k + row)] *
             rhs[static_cast<std::size_t>(row * k + j)];
      }
      rhs[static_cast<std::size_t>(col * k + j)] = s / d;
    }
  }
  return true;
}

/// C = A^T B for n-by-k column-major blocks (k-by-k result, row-major).
template <Real T>
void gram(const T* a, const T* b, index_t n, size64_t ld, index_t k,
          std::vector<double>& c) {
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < k; ++j) {
      double s = 0.0;
      const T* ai = a + static_cast<size64_t>(i) * ld;
      const T* bj = b + static_cast<size64_t>(j) * ld;
      for (index_t r = 0; r < n; ++r) s += double(ai[r]) * double(bj[r]);
      c[static_cast<std::size_t>(i * k + j)] = s;
    }
  }
}

}  // namespace detail

/// Block CG: solves A X = B for k right-hand sides simultaneously, SPD A.
/// X and B are n-by-k column-major with leading dimension n. Converges when
/// every column satisfies ||b_j - A x_j|| <= tolerance * ||b_j||. On block
/// breakdown (singular P^T A P, typically because columns converged at
/// different rates) the iteration stops with the current iterate.
template <Real T>
BlockSolveResult block_conjugate_gradient(index_t n, index_t k,
                                          const BlockApplyFn<T>& apply_a,
                                          const T* b, T* x,
                                          const SolveOptions& opts = {}) {
  CRSD_CHECK_MSG(n >= 1 && k >= 1, "empty block system");
  const size64_t ld = static_cast<size64_t>(n);
  const std::size_t total = static_cast<std::size_t>(ld) * k;
  std::vector<T> r(total), p(total), q(total);

  // R = B - A X, P = R.
  apply_a(x, ld, q.data(), ld, k);
  for (std::size_t i = 0; i < total; ++i) r[i] = b[i] - q[i];
  p = r;

  std::vector<double> bnorm(static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    double s = 0.0;
    const T* bj = b + static_cast<size64_t>(j) * ld;
    for (index_t i = 0; i < n; ++i) s += double(bj[i]) * double(bj[i]);
    bnorm[static_cast<std::size_t>(j)] = std::max(std::sqrt(s), 1e-300);
  }

  auto max_rel_residual = [&]() {
    double worst = 0.0;
    for (index_t j = 0; j < k; ++j) {
      double s = 0.0;
      const T* rj = r.data() + static_cast<size64_t>(j) * ld;
      for (index_t i = 0; i < n; ++i) s += double(rj[i]) * double(rj[i]);
      worst = std::max(worst, std::sqrt(s) / bnorm[static_cast<std::size_t>(j)]);
    }
    return worst;
  };

  std::vector<double> rr(static_cast<std::size_t>(k) * k);
  std::vector<double> pq(static_cast<std::size_t>(k) * k);
  std::vector<double> gamma(static_cast<std::size_t>(k) * k);
  std::vector<double> rr_new(static_cast<std::size_t>(k) * k);
  detail::gram(r.data(), r.data(), n, ld, k, rr);

  BlockSolveResult result;
  for (int it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it;
    result.max_residual_norm = max_rel_residual();
    if (result.max_residual_norm <= opts.tolerance) {
      result.converged = true;
      return result;
    }

    // Q = A P; gamma = (P^T Q)^{-1} (R^T R).
    apply_a(p.data(), ld, q.data(), ld, k);
    detail::gram(p.data(), q.data(), n, ld, k, pq);
    gamma = rr;
    if (!detail::solve_small<T>(pq, gamma, k)) break;  // block breakdown

    // X += P gamma, R -= Q gamma.
    for (index_t j = 0; j < k; ++j) {
      T* xj = x + static_cast<size64_t>(j) * ld;
      T* rj = r.data() + static_cast<size64_t>(j) * ld;
      for (index_t c = 0; c < k; ++c) {
        const T g = static_cast<T>(gamma[static_cast<std::size_t>(c * k + j)]);
        if (g == T(0)) continue;
        const T* pc = p.data() + static_cast<size64_t>(c) * ld;
        const T* qc = q.data() + static_cast<size64_t>(c) * ld;
        for (index_t i = 0; i < n; ++i) {
          xj[i] += g * pc[i];
          rj[i] -= g * qc[i];
        }
      }
    }

    // beta = (R_old^T R_old)^{-1} (R_new^T R_new); P = R + P beta.
    detail::gram(r.data(), r.data(), n, ld, k, rr_new);
    std::vector<double> beta = rr_new;
    std::vector<double> rr_lu = rr;
    if (!detail::solve_small<T>(rr_lu, beta, k)) break;
    rr = rr_new;
    std::vector<T> p_old = p;
    for (index_t j = 0; j < k; ++j) {
      T* pj = p.data() + static_cast<size64_t>(j) * ld;
      const T* rj = r.data() + static_cast<size64_t>(j) * ld;
      for (index_t i = 0; i < n; ++i) pj[i] = rj[i];
      for (index_t c = 0; c < k; ++c) {
        const T bb = static_cast<T>(beta[static_cast<std::size_t>(c * k + j)]);
        if (bb == T(0)) continue;
        const T* pc = p_old.data() + static_cast<size64_t>(c) * ld;
        for (index_t i = 0; i < n; ++i) pj[i] += bb * pc[i];
      }
    }
  }
  result.max_residual_norm = max_rel_residual();
  result.converged = result.max_residual_norm <= opts.tolerance;
  return result;
}

}  // namespace crsd::solver
