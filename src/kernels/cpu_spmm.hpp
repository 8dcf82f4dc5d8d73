// Batched SpMM Y[:, j] = A * X[:, j] for k column-major right-hand sides,
// run on the calling thread. The engine walks the matrix once when it is
// built and keeps what the hot loop reads: where each diagonal reads x (a
// staged AD-group window at an arena offset, or the raw x stream at a
// column shift) and how far ahead to prefetch each pattern's value stream.
// apply() runs the patterns in segment order — edge, interior, edge, as
// CrsdMatrix::spmv_segments_vec splits them — and the scatter overwrite
// after them.
//
// The interior kernel register-blocks the right-hand sides (R in {8,4,2,1})
// so one pass over the diagonal value stream feeds R accumulators: the
// value load and the y traffic amortize over R vectors, which is where the
// SpMM speedup over k independent SpMV sweeps comes from. AD-group x
// windows are staged once per segment per block of vectors, exactly like
// the single-vector engine stages them per segment.
//
// Parity contract: for every output element the floating-point operation
// sequence is `mul` for the pattern's first diagonal then `fmadd` per
// following diagonal, in pattern order — identical to spmv() /
// spmv_scalar(), so column j of apply() is bitwise-equal to a single-vector
// sweep over X[:, j] (the scatter phase reuses the matrix's own scalar
// kernels verbatim).
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"

namespace crsd {

namespace detail {

/// Where one diagonal of a pattern reads x in the interior kernel — either
/// a staged AD-group window (arena-relative) or the raw x stream (column-
/// shift-relative), so the inner loop makes no grouping decisions.
struct DiagSource {
  bool staged = false;
  index_t arena_off = 0;   ///< window start in the per-RHS staging arena
  index_t window = 0;      ///< staged window length (mrows + group size - 1)
  diag_offset_t delta = 0; ///< staged: lane shift inside the window;
                           ///< direct: the diagonal's column offset
};

/// What the interior kernel reads for one pattern.
struct PatternSources {
  std::vector<DiagSource> diag;  ///< one entry per diagonal, in order
  index_t prefetch_lines = 0;    ///< 64-byte lines of the next segment
};

/// Interior segments [seg_begin, seg_end) of pattern `p` for an R-vector
/// block. `x`/`y` point at column j0 of the batch; `arena` holds R staging
/// windows per AD group (group-major, vector-minor); `src` is scratch for
/// ndias*R precomputed source pointers.
template <Real T, int R>
void spmm_interior(const CrsdMatrix<T>& m, index_t p,
                   const PatternSources& ps, index_t seg_begin,
                   index_t seg_end, const T* x, size64_t ldx, T* y,
                   size64_t ldy, T* CRSD_RESTRICT arena,
                   const T** CRSD_RESTRICT src) {
  const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
  const index_t mrows = m.mrows();
  const index_t ndias = pat.num_diagonals();
  const size64_t slots = pat.slots_per_segment(mrows);
  const index_t seg0 = m.cum_segments()[static_cast<std::size_t>(p)];
  const T* base = m.dia_values().data() +
                  m.pattern_value_offsets()[static_cast<std::size_t>(p)];
  constexpr index_t W = simd::kLanes<T>;

  for (index_t g = seg_begin; g < seg_end; ++g) {
    const T* CRSD_RESTRICT unit =
        base + static_cast<size64_t>(g - seg0) * slots;
    // Pull the next segment's value stream toward the core while this one
    // computes.
    if (g + 1 < seg_end) {
      const char* next = reinterpret_cast<const char*>(unit + slots);
      for (index_t l = 0; l < ps.prefetch_lines; ++l) {
        simd::prefetch(next + static_cast<std::size_t>(l) * 64);
      }
    }

    // Stage every AD-group window once for all R vectors, then resolve each
    // diagonal's source pointer so the lane loop is a flat walk.
    const size64_t row0 = static_cast<size64_t>(g) * mrows;
    for (const auto& grp : pat.groups) {
      if (grp.type != GroupType::kAdjacent || grp.num_diagonals < 2) continue;
      const DiagSource& head =
          ps.diag[static_cast<std::size_t>(grp.first_diagonal)];
      const diag_offset_t first =
          pat.offsets[static_cast<std::size_t>(grp.first_diagonal)];
      T* slab = arena + static_cast<size64_t>(head.arena_off) * R;
      for (int r = 0; r < R; ++r) {
        const T* xw = x + static_cast<size64_t>(r) * ldx + row0 + first;
        std::copy(xw, xw + head.window,
                  slab + static_cast<size64_t>(r) * head.window);
      }
    }
    for (index_t d = 0; d < ndias; ++d) {
      const DiagSource& ds = ps.diag[static_cast<std::size_t>(d)];
      for (int r = 0; r < R; ++r) {
        src[d * R + r] =
            ds.staged
                ? arena + static_cast<size64_t>(ds.arena_off) * R +
                      static_cast<size64_t>(r) * ds.window + ds.delta
                : x + static_cast<size64_t>(r) * ldx + row0 + ds.delta;
      }
    }

    // Single-column blocks take the diagonal-major formulation of
    // spmv_pattern_interior: one two-stream axpy pass per diagonal into the
    // L1-resident y window. With no columns to amortize over, that beats
    // the lane-major walk below, whose ndias concurrent source streams are
    // only worth their register pressure when R accumulators share them.
    // Operation order per element (mul first diagonal, fmadd the rest in
    // pattern order) is unchanged, so parity stays bitwise.
    if constexpr (R == 1) {
      T* CRSD_RESTRICT yy = y + row0;
      for (index_t d = 0; d < ndias; ++d) {
        simd::axpy_lanes(yy, unit + static_cast<size64_t>(d) * mrows, src[d],
                         mrows, d == 0);
      }
      continue;
    }

    index_t lane = 0;
    for (; lane + W <= mrows; lane += W) {
      simd::Vec<T> acc[R];
      {
        const simd::Vec<T> a = simd::loadu(unit + lane);
        for (int r = 0; r < R; ++r) {
          acc[r] = simd::mul(a, simd::loadu(src[r] + lane));
        }
      }
      for (index_t d = 1; d < ndias; ++d) {
        const simd::Vec<T> a =
            simd::loadu(unit + static_cast<size64_t>(d) * mrows + lane);
        for (int r = 0; r < R; ++r) {
          acc[r] = simd::fmadd(a, simd::loadu(src[d * R + r] + lane), acc[r]);
        }
      }
      for (int r = 0; r < R; ++r) {
        simd::storeu(y + static_cast<size64_t>(r) * ldy + row0 + lane, acc[r]);
      }
    }
    for (; lane < mrows; ++lane) {
      T acc[R];
      for (int r = 0; r < R; ++r) acc[r] = unit[lane] * src[r][lane];
      for (index_t d = 1; d < ndias; ++d) {
        const T a = unit[static_cast<size64_t>(d) * mrows + lane];
        for (int r = 0; r < R; ++r) acc[r] += a * src[d * R + r][lane];
      }
      for (int r = 0; r < R; ++r) {
        y[static_cast<size64_t>(r) * ldy + row0 + lane] = acc[r];
      }
    }
  }
}

/// Edge segments [seg_begin, seg_end) of pattern `p` for an R-vector block:
/// the clamped scalar path of spmv_segments, register-blocked over the
/// right-hand sides so the clamp arithmetic and the diagonal value load are
/// paid once per (lane, diagonal) instead of once per column. Each column's
/// accumulation (sum = 0, then += in ascending diagonal order) is exactly
/// the scalar kernel's, so per-column parity stays bitwise.
template <Real T, int R>
void spmm_edge(const CrsdMatrix<T>& m, index_t p, index_t seg_begin,
               index_t seg_end, const T* x, size64_t ldx, T* y,
               size64_t ldy) {
  const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
  const index_t mrows = m.mrows();
  const index_t ndias = pat.num_diagonals();
  const size64_t slots = pat.slots_per_segment(mrows);
  const index_t seg0 = m.cum_segments()[static_cast<std::size_t>(p)];
  const T* base = m.dia_values().data() +
                  m.pattern_value_offsets()[static_cast<std::size_t>(p)];
  for (index_t g = seg_begin; g < seg_end; ++g) {
    const T* CRSD_RESTRICT unit =
        base + static_cast<size64_t>(g - seg0) * slots;
    const index_t row0 = g * mrows;
    const index_t lanes = std::min<index_t>(mrows, m.num_rows() - row0);
    for (index_t lane = 0; lane < lanes; ++lane) {
      const index_t r = row0 + lane;
      T sum[R] = {};
      for (index_t d = 0; d < ndias; ++d) {
        const index_t c =
            m.clamp_col(r + pat.offsets[static_cast<std::size_t>(d)]);
        const T a = unit[static_cast<size64_t>(d) * mrows + lane];
        for (int v = 0; v < R; ++v) {
          sum[v] += a * x[static_cast<size64_t>(v) * ldx + c];
        }
      }
      for (int v = 0; v < R; ++v) {
        y[static_cast<size64_t>(v) * ldy + r] = sum[v];
      }
    }
  }
}

}  // namespace detail

/// Batched SpMM engine bound to one matrix. Value updates
/// (core/update.hpp) keep it valid: it reads the matrix's value streams on
/// every apply() and fixes only structure. A rebuilt matrix needs a new
/// engine. One scratch arena serves one apply() at a time, so two threads
/// must not apply through the same engine at once.
template <Real T>
class SpmmEngine {
 public:
  explicit SpmmEngine(const CrsdMatrix<T>& m) : m_(&m) {
    CRSD_CHECK_MSG(m.value_precision() == ValuePrecision::kNative,
                   "the batched SpMM engine reads the native value stream "
                   "directly; rebuild without value compaction for SpMM");
    const index_t mrows = m.mrows();
    index_t max_arena = 0;
    index_t max_ndias = 0;
    patterns_.reserve(m.patterns().size());
    for (const auto& pat : m.patterns()) {
      detail::PatternSources ps;
      ps.diag.resize(static_cast<std::size_t>(pat.num_diagonals()));
      index_t arena = 0;
      for (const auto& grp : pat.groups) {
        const bool staged =
            grp.type == GroupType::kAdjacent && grp.num_diagonals >= 2;
        const index_t window = mrows + grp.num_diagonals - 1;
        for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
          const std::size_t d =
              static_cast<std::size_t>(grp.first_diagonal + gd);
          detail::DiagSource& src = ps.diag[d];
          src.staged = staged;
          if (staged) {
            src.arena_off = arena;
            src.window = window;
            src.delta = gd;
          } else {
            src.delta = pat.offsets[d];
          }
        }
        if (staged) arena += window;
      }
      const size64_t seg_bytes =
          pat.slots_per_segment(mrows) * static_cast<size64_t>(sizeof(T));
      ps.prefetch_lines = static_cast<index_t>(
          std::min<size64_t>(seg_bytes, kPrefetchBytes) / 64);
      patterns_.push_back(std::move(ps));
      max_arena = std::max(max_arena, arena);
      max_ndias = std::max(max_ndias, pat.num_diagonals());
    }
    // Allocated once: apply() is on the per-sweep hot path and must not
    // touch the allocator (a value-initialized arena costs more than a whole
    // k=1 sweep on small matrices).
    arena_.resize(static_cast<std::size_t>(max_arena) * kMaxBlock);
    src_.resize(static_cast<std::size_t>(max_ndias) * kMaxBlock);
  }

  /// Y[:, j] = A * X[:, j] for j in [0, k): column-major batches with
  /// leading dimensions ldx/ldy (>= num_cols / num_rows). The diagonal phase
  /// runs in register blocks of 8/4/2/1 right-hand sides, then the scatter
  /// overwrite, matching single-vector semantics per column.
  void apply(const T* x, size64_t ldx, T* y, size64_t ldy, index_t k) const {
    index_t j0 = 0;
    while (j0 < k) {
      const index_t left = k - j0;
      const T* xb = x + static_cast<size64_t>(j0) * ldx;
      T* yb = y + static_cast<size64_t>(j0) * ldy;
      if (left >= 8) {
        run_block<8>(xb, ldx, yb, ldy);
        j0 += 8;
      } else if (left >= 4) {
        run_block<4>(xb, ldx, yb, ldy);
        j0 += 4;
      } else if (left >= 2) {
        run_block<2>(xb, ldx, yb, ldy);
        j0 += 2;
      } else {
        run_block<1>(xb, ldx, yb, ldy);
        j0 += 1;
      }
    }
    for (index_t j = 0; j < k; ++j) {
      m_->spmv_scatter(0, m_->num_scatter_rows(),
                       x + static_cast<size64_t>(j) * ldx,
                       y + static_cast<size64_t>(j) * ldy);
    }
  }

 private:
  /// Diagonal phase for one block of R right-hand sides.
  template <int R>
  void run_block(const T* x, size64_t ldx, T* y, size64_t ldy) const {
    const CrsdMatrix<T>& m = *m_;
    for (index_t p = 0; p < m.num_patterns(); ++p) {
      const std::size_t pi = static_cast<std::size_t>(p);
      const index_t s0 = m.cum_segments()[pi];
      const index_t s1 = m.cum_segments()[pi + 1];
      const index_t ib = std::clamp(m.interior_segments(p).begin, s0, s1);
      const index_t ie = std::clamp(m.interior_segments(p).end, ib, s1);
      detail::spmm_edge<T, R>(m, p, s0, ib, x, ldx, y, ldy);
      detail::spmm_interior<T, R>(m, p, patterns_[pi], ib, ie, x, ldx, y,
                                  ldy, arena_.data(), src_.data());
      detail::spmm_edge<T, R>(m, p, ie, s1, x, ldx, y, ldy);
    }
  }

  static constexpr int kMaxBlock = 8;
  /// Bytes of the next segment's value stream to prefetch.
  static constexpr size64_t kPrefetchBytes = 512;

  const CrsdMatrix<T>* m_;
  std::vector<detail::PatternSources> patterns_;
  mutable std::vector<T> arena_;
  mutable std::vector<const T*> src_;
};

}  // namespace crsd
