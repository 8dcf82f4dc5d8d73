// Simulated GPU CRSD SpMV kernel (§III-B): one work-group per row segment,
// one work-item per row. All work-items of a group process the same diagonal
// pattern, so they take the same execution path — no thread divergence. The
// value stream is diagonal-major/lane-minor, so every value load coalesces.
// Adjacent-group source-vector windows are staged through local memory
// behind a barrier. Scatter rows are recomputed from the ELL side matrix and
// overwrite y after the diagonal phase.
//
// `jit_codelet` switches the cost model between the interpreted kernel
// (pattern metadata fetched from global memory, per-element index
// arithmetic) and the runtime-generated codelet of §III (indices baked into
// the instruction stream as immediates, diagonal loop unrolled). The
// numerical work is identical: under either model y equals
// CrsdMatrix::spmv bitwise for native storage.
//
// The launch is range-parameterized (CrsdGpuRange): a contiguous run of row
// segments plus a slice of the scatter-row list execute against windowed x/y
// buffers, which is what the task-graph runtime shards across devices. The
// full-range wrapper reproduces the historical single-device launch with
// byte-identical allocation sizes, offsets, and traffic — the analysis
// replay depends on that.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "gpusim/executor.hpp"

namespace crsd::kernels {

struct CrsdGpuOptions {
  /// Stage AD-group x windows in local memory (costs barriers; §IV-A shows
  /// this losing on wang3/wang4 where the AD share is small).
  bool use_local_memory = true;
  /// Model the runtime-generated codelet instead of the interpreted kernel.
  bool jit_codelet = true;
  /// Checking mode: attach a memcheck/racecheck observer (crsd::check::
  /// MemChecker) to both launches. Null (the default) costs nothing.
  gpusim::AccessChecker* checker = nullptr;
};

/// A contiguous slice of one built CRSD container, executed against window
/// buffers. Rows/segments/scatter rows refer to the container's global
/// numbering; `x_begin`/`row_begin` rebase the window pointers — element 0
/// of `x_window` is column `x_begin`, element 0 of `y_window` is row
/// `row_begin`. Sharding slices the *built* container (never a rebuilt
/// sub-matrix): per-row accumulation order is unchanged, so a sharded sweep
/// is bitwise-identical to the full launch.
struct CrsdGpuRange {
  index_t seg_begin = 0, seg_end = 0;          ///< row segments [begin, end)
  index_t scatter_begin = 0, scatter_end = 0;  ///< scatter-row list slice
  index_t row_begin = 0, row_end = 0;          ///< rows covered by y_window
  index_t x_begin = 0, x_end = 0;              ///< columns in x_window

  bool empty() const {
    return seg_begin >= seg_end && scatter_begin >= scatter_end;
  }
  bool operator==(const CrsdGpuRange&) const = default;

  template <Real T>
  static CrsdGpuRange full(const CrsdMatrix<T>& m) {
    CrsdGpuRange r;
    r.seg_end = m.num_segments_total();
    r.scatter_end = m.num_scatter_rows();
    r.row_end = m.num_rows();
    r.x_end = m.num_cols();
    return r;
  }
};

namespace detail {

/// Global diagonal-value slot at the start of segment `g` (== stream length
/// when g is the one-past-the-end segment).
template <Real T>
size64_t dia_slot_at_segment(const CrsdMatrix<T>& m, index_t g) {
  if (g >= m.num_segments_total()) return m.dia_slot_count();
  const index_t p = m.pattern_of_segment(g);
  const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
  const index_t seg_in_p = g - m.cum_segments()[static_cast<std::size_t>(p)];
  return m.pattern_value_offsets()[static_cast<std::size_t>(p)] +
         static_cast<size64_t>(seg_in_p) * pat.slots_per_segment(m.mrows());
}

}  // namespace detail

template <Real T>
gpusim::LaunchResult gpu_spmv_crsd_range(gpusim::Device& dev,
                                         const CrsdMatrix<T>& m,
                                         const CrsdGpuRange& r,
                                         const T* x_window, T* y_window,
                                         const CrsdGpuOptions& opts = {},
                                         ThreadPool* pool = nullptr) {
  const index_t n = m.num_rows();
  const index_t mrows = m.mrows();
  CRSD_CHECK_MSG(mrows % dev.spec().wavefront_size == 0,
                 "mrows (" << mrows << ") must be a multiple of the wavefront "
                           << "size (" << dev.spec().wavefront_size
                           << ") on the GPU");
  CRSD_CHECK_MSG(0 <= r.seg_begin && r.seg_begin <= r.seg_end &&
                     r.seg_end <= m.num_segments_total(),
                 "segment range [" << r.seg_begin << ", " << r.seg_end
                                   << ") out of bounds");
  CRSD_CHECK_MSG(0 <= r.scatter_begin && r.scatter_begin <= r.scatter_end &&
                     r.scatter_end <= m.num_scatter_rows(),
                 "scatter range [" << r.scatter_begin << ", " << r.scatter_end
                                   << ") out of bounds");
  if (r.seg_begin < r.seg_end) {
    const RowRange cover = segment_row_range(r.seg_begin, r.seg_end, mrows, n);
    CRSD_CHECK_MSG(r.row_begin <= cover.begin && r.row_end >= cover.end,
                   "row window does not cover the segment range");
  }
  if (r.scatter_begin < r.scatter_end) {
    const auto& srow = m.scatter_rows();
    CRSD_CHECK_MSG(
        srow[static_cast<std::size_t>(r.scatter_begin)] >= r.row_begin &&
            srow[static_cast<std::size_t>(r.scatter_end - 1)] < r.row_end,
        "row window does not cover the scatter slice");
  }
  if (r.empty()) return {};

  const index_t nsr = r.scatter_end - r.scatter_begin;
  // Storage-mode parameters: compact modes shrink the value and index
  // streams, which is exactly what the DRAM-transaction counters measure.
  const int vb = m.value_bytes();
  const int cb = scatter_index_width(m.scatter_index_mode());
  const bool native = m.value_precision() == ValuePrecision::kNative;

  // The range's slice of the diagonal value stream, and its scatter-ELL
  // reindexing: a shard owns rows [scatter_begin, scatter_end) of every ELL
  // column, re-based to a column-major layout of stride nsr (what a real
  // multi-device repack would ship), while the numerics still read the
  // container's global streams.
  const size64_t val0 = detail::dia_slot_at_segment(m, r.seg_begin);
  const size64_t val1 = detail::dia_slot_at_segment(m, r.seg_end);
  const index_t nsr_full = m.num_scatter_rows();

  // Device allocations: diagonal values, scatter ELL, vectors, and (for the
  // interpreted kernel) the index metadata. Sizes follow the storage mode.
  gpusim::DeviceBuffers mem(dev);
  gpusim::Buffer b_v = mem.alloc((val1 - val0) * vb);
  gpusim::Buffer b_x =
      mem.alloc(static_cast<size64_t>(r.x_end - r.x_begin) * sizeof(T));
  gpusim::Buffer b_y =
      mem.alloc(static_cast<size64_t>(r.row_end - r.row_begin) * sizeof(T));
  gpusim::Buffer b_srow =
      mem.alloc(static_cast<size64_t>(nsr) * sizeof(index_t));
  gpusim::Buffer b_scol =
      mem.alloc(static_cast<size64_t>(nsr) * m.scatter_width() * cb);
  gpusim::Buffer b_sval =
      mem.alloc(static_cast<size64_t>(nsr) * m.scatter_width() * vb);
  size64_t index_bytes = 0;
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    const auto& cum = m.cum_segments();
    const index_t pb = cum[static_cast<std::size_t>(p)];
    const index_t pe = cum[static_cast<std::size_t>(p) + 1];
    if (pb < pe && (pe <= r.seg_begin || pb >= r.seg_end)) continue;
    const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
    index_bytes += (2 + pat.offsets.size()) *
                   static_cast<size64_t>(m.pattern_index_width(p));
  }
  gpusim::Buffer b_idx = mem.alloc(index_bytes);

  gpusim::LaunchConfig diag_cfg;
  diag_cfg.num_groups = r.seg_end - r.seg_begin;
  diag_cfg.group_size = mrows;
  diag_cfg.double_precision = std::is_same_v<T, double>;
  diag_cfg.kernel_name = "crsd_spmv_diag";
  diag_cfg.checker = opts.checker;

  auto diag_body = [&, mrows](gpusim::WorkGroupCtx& ctx) {
    const index_t g = r.seg_begin + ctx.group_id();
    const index_t p = m.pattern_of_segment(g);
    const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
    const index_t seg_in_p = g - m.cum_segments()[static_cast<std::size_t>(p)];
    const index_t row0 = g * mrows;
    const index_t lanes = std::min<index_t>(mrows, r.row_end - row0);
    const index_t ndias = pat.num_diagonals();
    const size64_t unit0 =
        m.pattern_value_offsets()[static_cast<std::size_t>(p)] +
        static_cast<size64_t>(seg_in_p) * pat.slots_per_segment(mrows);

    if (!opts.jit_codelet) {
      // Interpreted kernel: fetch the pattern's offset table and walk the
      // cumulative-segment table to locate p (log2 P probes). Narrow-index
      // patterns stream their metadata at 2 bytes per entry.
      ctx.global_read_block(b_idx, 0, ndias + 2, m.pattern_index_width(p),
                            /*cached=*/true);
      index_t probes = 1;
      while ((index_t{1} << probes) < m.num_patterns()) ++probes;
      ctx.alu(static_cast<size64_t>(probes) * mrows);
    }

    // Native storage keeps the historical per-lane accumulation in T;
    // compacted value streams widen on load and accumulate in double.
    std::vector<T> sums(native ? static_cast<std::size_t>(lanes) : 0, T(0));
    std::vector<double> dsums(native ? 0 : static_cast<std::size_t>(lanes),
                              0.0);
    for (const auto& grp : pat.groups) {
      const bool staged = opts.use_local_memory &&
                          grp.type == GroupType::kAdjacent &&
                          grp.num_diagonals >= 2;
      if (staged && lanes > 0) {
        // Stage x[row0+first .. row0+lanes-1+last] into local memory: one
        // coalesced sweep of lanes + width - 1 elements, then a barrier.
        const diag_offset_t first =
            pat.offsets[static_cast<std::size_t>(grp.first_diagonal)];
        const index_t window = lanes + grp.num_diagonals - 1;
        const index_t start = m.clamp_col(row0 + first);
        const index_t window_clamped =
            std::min<index_t>(window, r.x_end - start);
        ctx.global_read_block(b_x, static_cast<size64_t>(start - r.x_begin),
                              std::max<index_t>(window_clamped, 1), sizeof(T));
        ctx.local_write_range(0, static_cast<size64_t>(window) * sizeof(T));
        ctx.barrier();
      }
      for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
        const index_t d = grp.first_diagonal + gd;
        const diag_offset_t off = pat.offsets[static_cast<std::size_t>(d)];
        // Coalesced value load of this diagonal's lanes, at the storage
        // mode's element width (f32 halves the traffic).
        ctx.global_read_block(
            b_v, unit0 - val0 + static_cast<size64_t>(d) * mrows, lanes, vb);
        if (staged) {
          // Diagonal gd of the group reads window bytes [gd, gd + lanes).
          ctx.local_read_range(static_cast<size64_t>(gd) * sizeof(T),
                               static_cast<size64_t>(lanes) * sizeof(T));
        } else {
          // Edge lanes clamp to the last column, so the touched range ends
          // at num_cols even when row0 + off + lanes runs past it.
          const index_t xs = m.clamp_col(row0 + off);
          const index_t xn = std::min<index_t>(lanes, r.x_end - xs);
          ctx.global_read_block(b_x, static_cast<size64_t>(xs - r.x_begin),
                                std::max<index_t>(xn, 1), sizeof(T),
                                /*cached=*/true);
        }
        size64_t useful = 0;
        for (index_t lane = 0; lane < lanes; ++lane) {
          const T v = m.dia_value(unit0 + static_cast<size64_t>(d) * mrows +
                                  static_cast<size64_t>(lane));
          const T xv = x_window[m.clamp_col(row0 + lane + off) - r.x_begin];
          if (native) {
            sums[static_cast<std::size_t>(lane)] += v * xv;
          } else {
            dsums[static_cast<std::size_t>(lane)] +=
                static_cast<double>(v) * static_cast<double>(xv);
          }
          if (v != T(0)) ++useful;
        }
        ctx.flops(2 * useful);
        ctx.alu(2 * (static_cast<size64_t>(lanes) - useful) +
                2 * static_cast<size64_t>(mrows - lanes));
        if (!opts.jit_codelet) {
          // Per-lane index arithmetic the codelet folds into immediates.
          ctx.alu(2 * static_cast<size64_t>(mrows));
        }
      }
      if (staged && lanes > 0) {
        ctx.barrier();  // the buffer is reused by the next AD group
      }
    }
    for (index_t lane = 0; lane < lanes; ++lane) {
      y_window[row0 - r.row_begin + lane] =
          native ? sums[static_cast<std::size_t>(lane)]
                 : static_cast<T>(dsums[static_cast<std::size_t>(lane)]);
    }
    if (lanes > 0) {
      ctx.global_write_block(b_y, static_cast<size64_t>(row0 - r.row_begin),
                             lanes, sizeof(T));
    }
  };

  gpusim::LaunchResult result;
  const bool have_diag = r.seg_begin < r.seg_end;
  if (have_diag) {
    result = gpusim::launch(dev, diag_cfg, diag_body, pool);
  }

  // Scatter phase: executed inside the same kernel launch after the diagonal
  // part (§III-B), so it is modeled as extra work-groups with zero
  // additional launch overhead. Run as a second pass so that the overwrite
  // of y is ordered after the diagonal writes even when CUs run on threads.
  if (nsr > 0) {
    const auto& srow = m.scatter_rows();
    // Mode-agnostic i32 ELL view for the numerics; the traffic model below
    // charges the encoded representation that actually travels over DRAM.
    const std::vector<index_t> scol = m.decoded_scatter_col();
    gpusim::LaunchConfig scatter_cfg;
    scatter_cfg.group_size = mrows;
    scatter_cfg.num_groups = (nsr + mrows - 1) / mrows;
    scatter_cfg.double_precision = diag_cfg.double_precision;
    // Fused into the diagonal phase's launch when one exists; a scatter-only
    // range pays its own launch overhead.
    scatter_cfg.launches = have_diag ? 0 : 1;
    scatter_cfg.kernel_name = "crsd_spmv_scatter";
    scatter_cfg.checker = opts.checker;

    auto scatter_body = [&, mrows](gpusim::WorkGroupCtx& ctx) {
      const index_t i0 = ctx.group_id() * mrows;  // within the slice
      const index_t lanes = std::min<index_t>(mrows, nsr - i0);
      if (lanes <= 0) return;
      const index_t gi0 = r.scatter_begin + i0;  // global scatter row
      ctx.global_read_block(b_srow, static_cast<size64_t>(i0), lanes,
                            sizeof(index_t));
      std::vector<T> sums(native ? static_cast<std::size_t>(lanes) : 0, T(0));
      std::vector<double> dsums(native ? 0 : static_cast<std::size_t>(lanes),
                                0.0);
      std::vector<size64_t> gather(static_cast<std::size_t>(lanes));
      for (index_t k = 0; k < m.scatter_width(); ++k) {
        // The container's ELL is column-major of stride nsr_full; the range
        // models its re-based slice of stride nsr. Both are coalesced. u16
        // columns move half the bytes.
        const size64_t gslot0 =
            static_cast<size64_t>(k) * nsr_full + static_cast<size64_t>(gi0);
        const size64_t slot0 =
            static_cast<size64_t>(k) * nsr + static_cast<size64_t>(i0);
        ctx.global_read_block(b_scol, slot0, lanes, cb);
        ctx.global_read_block(b_sval, slot0, lanes, vb);
        size64_t useful = 0;
        for (index_t i = 0; i < lanes; ++i) {
          const index_t c = scol[gslot0 + static_cast<size64_t>(i)];
          if (c != kInvalidIndex) {
            const T v = m.scatter_value(gslot0 + static_cast<size64_t>(i));
            if (native) {
              sums[static_cast<std::size_t>(i)] +=
                  v * x_window[c - r.x_begin];
            } else {
              dsums[static_cast<std::size_t>(i)] +=
                  static_cast<double>(v) *
                  static_cast<double>(x_window[c - r.x_begin]);
            }
            gather[static_cast<std::size_t>(useful)] =
                static_cast<size64_t>(c - r.x_begin);
            ++useful;
          }
        }
        ctx.global_gather(b_x, gather.data(), static_cast<index_t>(useful),
                          sizeof(T), /*cached=*/true);
        ctx.flops(2 * useful);
        ctx.alu(2 * (static_cast<size64_t>(lanes) - useful));
      }
      std::vector<size64_t> targets(static_cast<std::size_t>(lanes));
      for (index_t i = 0; i < lanes; ++i) {
        const index_t row =
            srow[static_cast<std::size_t>(gi0 + i)] - r.row_begin;
        y_window[row] = native ? sums[static_cast<std::size_t>(i)]
                               : static_cast<T>(
                                     dsums[static_cast<std::size_t>(i)]);
        targets[static_cast<std::size_t>(i)] = static_cast<size64_t>(row);
      }
      ctx.global_scatter_write(b_y, targets.data(), lanes, sizeof(T));
    };

    const gpusim::LaunchResult tail =
        gpusim::launch(dev, scatter_cfg, scatter_body, pool);
    if (have_diag) {
      // The paper fuses the scatter part into the same kernel launch; model
      // the whole thing as one launch so the tail shares the diagonal
      // phase's occupancy instead of being derated as a tiny stand-alone
      // grid.
      result.counters += tail.counters;
      result.seconds =
          gpusim::estimate_seconds(dev.spec(), result.counters, diag_cfg);
    } else {
      result = tail;
    }
  }

  return result;
}

/// Historical single-device entry point: the full range against unwindowed
/// x/y.
template <Real T>
gpusim::LaunchResult gpu_spmv_crsd(gpusim::Device& dev, const CrsdMatrix<T>& m,
                                   const T* x, T* y,
                                   const CrsdGpuOptions& opts = {},
                                   ThreadPool* pool = nullptr) {
  return gpu_spmv_crsd_range(dev, m, CrsdGpuRange::full(m), x, y, opts, pool);
}

}  // namespace crsd::kernels
