// Simulated GPU DIA SpMV kernel (Bell & Garland): one work-item per row,
// walking every stored diagonal. Value lanes are fully coalesced; the source
// vector is read at a contiguous, shifting window. The cost that sinks DIA
// on scattered-diagonal matrices is visible here directly: every padded slot
// of every diagonal is fetched from global memory and multiplied.
#pragma once

#include "common/types.hpp"
#include "formats/dia.hpp"
#include "gpusim/executor.hpp"

namespace crsd::kernels {

template <Real T>
gpusim::LaunchResult gpu_spmv_dia(gpusim::Device& dev, const DiaMatrix<T>& m,
                                  const T* x, T* y, index_t group_size = 128,
                                  ThreadPool* pool = nullptr) {
  const index_t n = m.num_rows();
  const index_t ncols = m.num_cols();
  const auto& offsets = m.offsets();
  const auto& val = m.values();

  gpusim::DeviceBuffers mem(dev);
  gpusim::Buffer b_off = mem.alloc(offsets.size() * sizeof(diag_offset_t));
  gpusim::Buffer b_v = mem.alloc(val.size() * sizeof(T));
  gpusim::Buffer b_x = mem.alloc(static_cast<size64_t>(ncols) * sizeof(T));
  gpusim::Buffer b_y = mem.alloc(static_cast<size64_t>(n) * sizeof(T));

  gpusim::LaunchConfig cfg;
  cfg.num_groups = (n + group_size - 1) / group_size;
  cfg.group_size = group_size;
  cfg.double_precision = std::is_same_v<T, double>;

  auto body = [&, group_size](gpusim::WorkGroupCtx& ctx) {
    const index_t row0 = ctx.group_id() * group_size;
    const index_t lanes = std::min<index_t>(group_size, n - row0);
    if (lanes <= 0) return;

    // The offsets array is tiny and read once per work-group.
    ctx.global_read_block(b_off, 0, static_cast<index_t>(offsets.size()),
                          sizeof(diag_offset_t), /*cached=*/true);

    std::vector<T> sums(static_cast<std::size_t>(lanes), T(0));
    for (std::size_t d = 0; d < offsets.size(); ++d) {
      const diag_offset_t off = offsets[d];
      const index_t lo = std::max<index_t>(row0, off < 0 ? -off : 0);
      const index_t hi = std::min<std::int64_t>(
          row0 + lanes, static_cast<std::int64_t>(ncols) - off);
      // Value lane: the kernel reads val[d*n + row] for every in-range lane
      // whether the slot holds a nonzero or padding — that is DIA's cost.
      if (hi > lo) {
        const index_t active = static_cast<index_t>(hi - lo);
        ctx.global_read_block(
            b_v, d * static_cast<size64_t>(n) + static_cast<size64_t>(lo),
            active, sizeof(T));
        ctx.global_read_block(b_x, static_cast<size64_t>(lo + off), active,
                              sizeof(T), /*cached=*/true);
        const T* lane_vals = val.data() + d * static_cast<size64_t>(n);
        size64_t useful = 0;
        for (index_t r = lo; r < hi; ++r) {
          const T v = lane_vals[r];
          sums[static_cast<std::size_t>(r - row0)] += v * x[r + off];
          if (v != T(0)) ++useful;
        }
        // Padded slots execute the same FMA but contribute no useful flops.
        ctx.flops(2 * useful);
        ctx.alu(2 * (static_cast<size64_t>(active) - useful) +
                2 * static_cast<size64_t>(lanes - active));
      } else {
        ctx.alu(2 * static_cast<size64_t>(lanes));  // fully out-of-range
      }
    }
    for (index_t i = 0; i < lanes; ++i) {
      y[row0 + i] = sums[static_cast<std::size_t>(i)];
    }
    ctx.global_write_block(b_y, static_cast<size64_t>(row0), lanes, sizeof(T));
  };

  return gpusim::launch(dev, cfg, body, pool);
}

}  // namespace crsd::kernels
