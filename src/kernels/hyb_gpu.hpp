// Simulated GPU HYB SpMV = ELL kernel + flat COO kernel for the tail
// (Bell & Garland). The COO kernel streams (row, col, val) triplets
// coalesced and pays a segmented-reduction overhead plus scattered
// accumulate stores into y.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "formats/hyb.hpp"
#include "gpusim/executor.hpp"
#include "kernels/ell_gpu.hpp"

namespace crsd::kernels {

/// Flat COO kernel over row-sorted triplets, accumulating into y.
template <Real T>
gpusim::LaunchResult gpu_spmv_coo_accumulate(gpusim::Device& dev,
                                             const std::vector<index_t>& rows,
                                             const std::vector<index_t>& cols,
                                             const std::vector<T>& vals,
                                             index_t num_rows,
                                             index_t num_cols, const T* x,
                                             T* y, index_t group_size = 128,
                                             ThreadPool* pool = nullptr) {
  const size64_t nnz = vals.size();
  gpusim::DeviceBuffers mem(dev);
  gpusim::Buffer b_r = mem.alloc(nnz * sizeof(index_t));
  gpusim::Buffer b_c = mem.alloc(nnz * sizeof(index_t));
  gpusim::Buffer b_v = mem.alloc(nnz * sizeof(T));
  gpusim::Buffer b_x = mem.alloc(static_cast<size64_t>(num_cols) * sizeof(T));
  gpusim::Buffer b_y = mem.alloc(static_cast<size64_t>(num_rows) * sizeof(T));

  gpusim::LaunchConfig cfg;
  cfg.group_size = group_size;
  cfg.num_groups = std::max<index_t>(
      1, static_cast<index_t>((nnz + group_size - 1) / group_size));
  cfg.double_precision = std::is_same_v<T, double>;

  auto body = [&, group_size](gpusim::WorkGroupCtx& ctx) {
    const size64_t k0 =
        static_cast<size64_t>(ctx.group_id()) * group_size;
    const index_t lanes = static_cast<index_t>(
        std::min<size64_t>(group_size, nnz - std::min(nnz, k0)));
    if (lanes <= 0) return;
    // Triplet streams are coalesced.
    ctx.global_read_block(b_r, k0, lanes, sizeof(index_t));
    ctx.global_read_block(b_c, k0, lanes, sizeof(index_t));
    ctx.global_read_block(b_v, k0, lanes, sizeof(T));
    std::vector<size64_t> xg(static_cast<std::size_t>(lanes));
    std::vector<size64_t> yrows;
    for (index_t i = 0; i < lanes; ++i) {
      const size64_t k = k0 + static_cast<size64_t>(i);
      xg[static_cast<std::size_t>(i)] = static_cast<size64_t>(cols[k]);
      y[rows[k]] += vals[k] * x[cols[k]];
      if (yrows.empty() || yrows.back() != static_cast<size64_t>(rows[k])) {
        yrows.push_back(static_cast<size64_t>(rows[k]));
      }
    }
    ctx.global_gather(b_x, xg.data(), lanes, sizeof(T), /*cached=*/true);
    ctx.flops(2 * static_cast<size64_t>(lanes));
    // Segmented reduction bookkeeping (carry flags, head detection).
    ctx.alu(3 * static_cast<size64_t>(lanes));
    // Read-modify-write of the touched y rows.
    ctx.global_gather(b_y, yrows.data(), static_cast<index_t>(yrows.size()),
                      sizeof(T), /*cached=*/false);
    ctx.global_scatter_write(b_y, yrows.data(),
                             static_cast<index_t>(yrows.size()), sizeof(T));
  };

  return gpusim::launch(dev, cfg, body, pool);
}

/// HYB = ELL launch + (if the tail is non-empty) COO launch.
template <Real T>
gpusim::LaunchResult gpu_spmv_hyb(gpusim::Device& dev, const HybMatrix<T>& m,
                                  const T* x, T* y, index_t group_size = 128,
                                  ThreadPool* pool = nullptr) {
  gpusim::LaunchResult result =
      gpu_spmv_ell(dev, m.ell(), x, y, group_size, pool);
  if (m.coo_nnz() > 0) {
    const gpusim::LaunchResult tail = gpu_spmv_coo_accumulate(
        dev, m.coo_row(), m.coo_col(), m.coo_val(), m.num_rows(),
        m.num_cols(), x, y, group_size, pool);
    result.counters += tail.counters;
    result.seconds += tail.seconds;
    result.launches += tail.launches;
  }
  return result;
}

}  // namespace crsd::kernels
