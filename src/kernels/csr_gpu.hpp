// Simulated GPU CSR SpMV kernels, after Bell & Garland 2009: the scalar
// kernel (one work-item per row — uncoalesced value/index loads, divergence
// when row lengths differ inside a wavefront) and the vector kernel (one
// wavefront per row — coalesced row traversal plus an intra-wavefront
// reduction).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "formats/csr.hpp"
#include "gpusim/executor.hpp"

namespace crsd::kernels {

/// Wavefront size of the device (helper so launch-geometry math reads well).
inline index_t device_wave(const gpusim::Device& dev) {
  return dev.spec().wavefront_size;
}

/// One work-item per row (csr_scalar). group_size rows per work-group.
template <Real T>
gpusim::LaunchResult gpu_spmv_csr_scalar(gpusim::Device& dev,
                                         const CsrMatrix<T>& m, const T* x,
                                         T* y, index_t group_size = 128,
                                         ThreadPool* pool = nullptr) {
  const index_t n = m.num_rows();
  const auto& row_ptr = m.row_ptr();
  const auto& col_idx = m.col_idx();
  const auto& val = m.values();

  gpusim::DeviceBuffers mem(dev);
  gpusim::Buffer b_rp = mem.alloc(row_ptr.size() * sizeof(index_t));
  gpusim::Buffer b_ci = mem.alloc(col_idx.size() * sizeof(index_t));
  gpusim::Buffer b_v = mem.alloc(val.size() * sizeof(T));
  gpusim::Buffer b_x = mem.alloc(static_cast<size64_t>(m.num_cols()) * sizeof(T));
  gpusim::Buffer b_y = mem.alloc(static_cast<size64_t>(n) * sizeof(T));

  gpusim::LaunchConfig cfg;
  cfg.num_groups = (n + group_size - 1) / group_size;
  cfg.group_size = group_size;
  cfg.double_precision = std::is_same_v<T, double>;

  auto body = [&, group_size](gpusim::WorkGroupCtx& ctx) {
    const index_t row0 = ctx.group_id() * group_size;
    const index_t lanes = std::min<index_t>(group_size, n - row0);
    if (lanes <= 0) return;
    const int wave = ctx.spec().wavefront_size;

    // row_ptr reads: each lane reads ptr[r] and ptr[r+1] (coalesced).
    ctx.global_read_block(b_rp, static_cast<size64_t>(row0), lanes + 1,
                          sizeof(index_t));

    std::vector<T> sums(static_cast<std::size_t>(lanes), T(0));
    std::vector<size64_t> gather(static_cast<std::size_t>(wave));

    for (index_t base = 0; base < lanes; base += wave) {
      const index_t chunk = std::min<index_t>(wave, lanes - base);
      index_t max_len = 0;
      for (index_t i = 0; i < chunk; ++i) {
        const index_t r = row0 + base + i;
        max_len = std::max(max_len,
                           row_ptr[static_cast<std::size_t>(r) + 1] -
                               row_ptr[static_cast<std::size_t>(r)]);
      }
      // The wavefront executes max_len steps; shorter rows idle (thread
      // divergence, §III-A).
      for (index_t step = 0; step < max_len; ++step) {
        index_t active = 0;
        for (index_t i = 0; i < chunk; ++i) {
          const index_t r = row0 + base + i;
          const index_t begin = row_ptr[static_cast<std::size_t>(r)];
          if (step < row_ptr[static_cast<std::size_t>(r) + 1] - begin) {
            gather[static_cast<std::size_t>(active)] =
                static_cast<size64_t>(begin + step);
            ++active;
          }
        }
        // Column-index and value gathers: per-lane positions are strided by
        // row length, so they rarely coalesce — the CSR-scalar weakness.
        ctx.global_gather(b_ci, gather.data(), active, sizeof(index_t), false);
        ctx.global_gather(b_v, gather.data(), active, sizeof(T), false);
        // x gathers via the read-only cache.
        index_t xi = 0;
        for (index_t i = 0; i < chunk; ++i) {
          const index_t r = row0 + base + i;
          const index_t begin = row_ptr[static_cast<std::size_t>(r)];
          if (step < row_ptr[static_cast<std::size_t>(r) + 1] - begin) {
            const size64_t k = static_cast<size64_t>(begin + step);
            const index_t c = col_idx[k];
            gather[static_cast<std::size_t>(xi)] = static_cast<size64_t>(c);
            ++xi;
            sums[static_cast<std::size_t>(base + i)] += val[k] * x[c];
          }
        }
        ctx.global_gather(b_x, gather.data(), xi, sizeof(T), true);
        ctx.flops(2 * static_cast<size64_t>(active));
        ctx.alu(2 * static_cast<size64_t>(chunk - active));
      }
    }
    for (index_t i = 0; i < lanes; ++i) {
      y[row0 + i] = sums[static_cast<std::size_t>(i)];
    }
    ctx.global_write_block(b_y, static_cast<size64_t>(row0), lanes, sizeof(T));
  };

  return gpusim::launch(dev, cfg, body, pool);
}

/// One wavefront per row (csr_vector): the row's entries are read in
/// coalesced chunks of wavefront_size, followed by a log2(wave) shuffle
/// reduction in local memory.
template <Real T>
gpusim::LaunchResult gpu_spmv_csr_vector(gpusim::Device& dev,
                                         const CsrMatrix<T>& m, const T* x,
                                         T* y, index_t group_size = 128,
                                         ThreadPool* pool = nullptr) {
  const index_t n = m.num_rows();
  const auto& row_ptr = m.row_ptr();
  const auto& col_idx = m.col_idx();
  const auto& val = m.values();

  gpusim::DeviceBuffers mem(dev);
  gpusim::Buffer b_rp = mem.alloc(row_ptr.size() * sizeof(index_t));
  gpusim::Buffer b_ci = mem.alloc(col_idx.size() * sizeof(index_t));
  gpusim::Buffer b_v = mem.alloc(val.size() * sizeof(T));
  gpusim::Buffer b_x = mem.alloc(static_cast<size64_t>(m.num_cols()) * sizeof(T));
  gpusim::Buffer b_y = mem.alloc(static_cast<size64_t>(n) * sizeof(T));

  gpusim::LaunchConfig cfg;
  cfg.double_precision = std::is_same_v<T, double>;
  cfg.group_size = group_size;
  const index_t rows_per_group = group_size / device_wave(dev);
  CRSD_CHECK_MSG(rows_per_group >= 1,
                 "csr_vector group size must hold one wavefront");
  cfg.num_groups = (n + rows_per_group - 1) / rows_per_group;

  auto body = [&, rows_per_group](gpusim::WorkGroupCtx& ctx) {
    const int wave = ctx.spec().wavefront_size;
    const index_t row0 = ctx.group_id() * rows_per_group;
    // row_ptr reads: the group's rows need ptr[r] and ptr[r+1] (coalesced).
    const index_t rows = std::min<index_t>(rows_per_group, n - row0);
    if (rows > 0) {
      ctx.global_read_block(b_rp, static_cast<size64_t>(row0), rows + 1,
                            sizeof(index_t));
    }
    std::vector<size64_t> gather(static_cast<std::size_t>(wave));
    std::vector<size64_t> row_targets;
    for (index_t i = 0; i < rows_per_group; ++i) {
      const index_t r = row0 + i;
      if (r >= n) {
        ctx.alu(static_cast<size64_t>(wave));  // idle wavefront prologue
        continue;
      }
      row_targets.push_back(static_cast<size64_t>(r));
      const index_t begin = row_ptr[static_cast<std::size_t>(r)];
      const index_t end = row_ptr[static_cast<std::size_t>(r) + 1];
      T sum = T(0);
      for (index_t k = begin; k < end; k += wave) {
        const index_t chunk = std::min<index_t>(wave, end - k);
        // Coalesced row traversal — the vector kernel's advantage.
        ctx.global_read_block(b_ci, static_cast<size64_t>(k), chunk,
                              sizeof(index_t));
        ctx.global_read_block(b_v, static_cast<size64_t>(k), chunk, sizeof(T));
        for (index_t j = 0; j < chunk; ++j) {
          const size64_t e = static_cast<size64_t>(k + j);
          gather[static_cast<std::size_t>(j)] =
              static_cast<size64_t>(col_idx[e]);
          sum += val[e] * x[col_idx[e]];
        }
        ctx.global_gather(b_x, gather.data(), chunk, sizeof(T), true);
        ctx.flops(2 * static_cast<size64_t>(chunk));
        ctx.alu(2 * static_cast<size64_t>(wave - chunk));
      }
      // log2(wave) reduction steps through local memory.
      ctx.alu(static_cast<size64_t>(5 * wave));
      ctx.local_read(static_cast<size64_t>(wave) * sizeof(T) * 2);
      ctx.local_write(static_cast<size64_t>(wave) * sizeof(T));
      y[r] = sum;
    }
    // One lane per row writes the result.
    if (!row_targets.empty()) {
      ctx.global_scatter_write(b_y, row_targets.data(),
                               static_cast<index_t>(row_targets.size()),
                               sizeof(T));
    }
  };

  return gpusim::launch(dev, cfg, body, pool);
}

}  // namespace crsd::kernels
