// Simulated GPU ELL SpMV kernel (Bell & Garland): one work-item per row, K
// slots each, column-major storage so every slot-step is a fully coalesced
// value + column-index load. Padded slots execute predicated FMAs (no useful
// flops) but their storage is still fetched — ELL's cost on ragged rows.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "formats/ell.hpp"
#include "gpusim/executor.hpp"

namespace crsd::kernels {

template <Real T>
gpusim::LaunchResult gpu_spmv_ell(gpusim::Device& dev, const EllMatrix<T>& m,
                                  const T* x, T* y, index_t group_size = 128,
                                  ThreadPool* pool = nullptr) {
  const index_t n = m.num_rows();
  const auto& col_idx = m.col_idx();
  const auto& val = m.values();

  gpusim::DeviceBuffers mem(dev);
  gpusim::Buffer b_ci = mem.alloc(col_idx.size() * sizeof(index_t));
  gpusim::Buffer b_v = mem.alloc(val.size() * sizeof(T));
  gpusim::Buffer b_x =
      mem.alloc(static_cast<size64_t>(m.num_cols()) * sizeof(T));
  gpusim::Buffer b_y = mem.alloc(static_cast<size64_t>(n) * sizeof(T));

  gpusim::LaunchConfig cfg;
  cfg.num_groups = (n + group_size - 1) / group_size;
  cfg.group_size = group_size;
  cfg.double_precision = std::is_same_v<T, double>;

  auto body = [&, group_size](gpusim::WorkGroupCtx& ctx) {
    const index_t row0 = ctx.group_id() * group_size;
    const index_t lanes = std::min<index_t>(group_size, n - row0);
    if (lanes <= 0) return;

    std::vector<T> sums(static_cast<std::size_t>(lanes), T(0));
    std::vector<size64_t> gather(static_cast<std::size_t>(lanes));

    for (index_t k = 0; k < m.width(); ++k) {
      const size64_t slot0 =
          static_cast<size64_t>(k) * n + static_cast<size64_t>(row0);
      // Column-major layout: both loads fully coalesced.
      ctx.global_read_block(b_ci, slot0, lanes, sizeof(index_t));
      ctx.global_read_block(b_v, slot0, lanes, sizeof(T));
      size64_t useful = 0;
      for (index_t i = 0; i < lanes; ++i) {
        const index_t c = col_idx[slot0 + static_cast<size64_t>(i)];
        if (c != kInvalidIndex) {
          sums[static_cast<std::size_t>(i)] +=
              val[slot0 + static_cast<size64_t>(i)] * x[c];
          gather[static_cast<std::size_t>(useful)] =
              static_cast<size64_t>(c);
          ++useful;
        }
      }
      ctx.global_gather(b_x, gather.data(), static_cast<index_t>(useful),
                        sizeof(T), /*cached=*/true);
      ctx.flops(2 * useful);
      ctx.alu(2 * (static_cast<size64_t>(lanes) - useful));
    }
    for (index_t i = 0; i < lanes; ++i) {
      y[row0 + i] = sums[static_cast<std::size_t>(i)];
    }
    ctx.global_write_block(b_y, static_cast<size64_t>(row0), lanes, sizeof(T));
  };

  return gpusim::launch(dev, cfg, body, pool);
}

}  // namespace crsd::kernels
