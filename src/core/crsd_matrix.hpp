// CRSD (Compressed Row Segment with Diagonal-pattern) container — the
// paper's contribution (§II-D). Storage has two parts:
//
//  * Diagonal part: for each pattern p, for each of its row segments, the
//    values of all live diagonals, laid out diagonal-major / lane-minor:
//      slot(p, seg, d, lane) = base_p + seg*NDias_p*mrows + d*mrows + lane
//    This is the paper's location formula: consecutive lanes (work-items)
//    touch consecutive addresses, so GPU global loads coalesce.
//
//  * Scatter part: the full rows containing scatter points, in ELL layout
//    (column-major over the scatter rows), plus their original row numbers.
//    SpMV runs the diagonal phase first and then *overwrites* y[r] for each
//    scatter row with the full-row product, preserving FP operation order.
//
// Zero-filled slots (edge lanes, short idle-section gaps, scatter rows) hold
// value 0; kernels clamp the x index so the multiply-by-zero is harmless and
// branch-free.
//
// Storage modes (core/storage_mode.hpp): after construction the builder may
// compact the streams — value streams to f32 with widen-on-load + double
// accumulation, scatter columns to u16 ELL. The native mode keeps the
// original layout and arithmetic bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/pattern.hpp"
#include "core/storage_mode.hpp"

namespace crsd {

/// Half-open row interval.
struct RowRange {
  index_t begin = 0;
  index_t end = 0;
  constexpr index_t size() const { return end - begin; }
};

/// Rows covered by segments [seg_begin, seg_end) of a container whose row
/// segments are `mrows` rows tall, clamped to `row_limit` (normally the
/// container's row count; sharding passes a tighter bound when slicing an
/// already-clamped window). Taking mrows explicitly — instead of a matrix —
/// keeps the helper usable for per-region segment heights
/// (core/partition.hpp), where no single global mrows exists.
constexpr RowRange segment_row_range(index_t seg_begin, index_t seg_end,
                                     index_t mrows, index_t row_limit) {
  return {std::min<index_t>(seg_begin * mrows, row_limit),
          std::min<index_t>(seg_end * mrows, row_limit)};
}

/// Occupancy/overhead statistics of a built CRSD matrix.
struct CrsdStats {
  index_t num_patterns = 0;
  index_t num_segments = 0;
  size64_t dia_slots = 0;       ///< value slots in the diagonal part
  size64_t dia_nnz = 0;         ///< true nonzeros stored in the diagonal part
  index_t num_scatter_rows = 0;
  index_t scatter_width = 0;
  size64_t scatter_nnz = 0;     ///< true nonzeros stored in the scatter part
  double ad_diag_fraction = 0;  ///< slot-weighted fraction of diagonals in AD groups

  // Actual storage-mode byte accounting (0 when produced by something other
  // than CrsdMatrix::stats(), e.g. a hand-built struct — consumers fall back
  // to their historical 8-byte-value / 4-byte-index assumptions then).
  int value_bytes = 0;            ///< bytes per stored value
  size64_t scatter_index_bytes = 0;  ///< scatter column stream, encoded size
  size64_t dia_index_bytes = 0;      ///< pattern index metadata, actual widths

  /// Fraction of diagonal-part slots that are filled zeros.
  double fill_ratio() const {
    return dia_slots == 0 ? 0.0
                          : double(dia_slots - dia_nnz) / double(dia_slots);
  }
};

/// Raw storage produced by the builder; CrsdMatrix validates and owns it.
/// Exactly one value stream and one scatter-column representation is active,
/// selected by value_precision / scatter_index_mode; compaction clears the
/// replaced streams so footprint accounting stays honest.
template <Real T>
struct CrsdStorage {
  index_t num_rows = 0;
  index_t num_cols = 0;
  index_t mrows = 0;
  size64_t nnz = 0;  ///< true nonzeros of the original matrix
  std::vector<DiagonalPattern> patterns;
  std::vector<T> dia_val;
  std::vector<index_t> scatter_rowno;  ///< ascending original row numbers
  index_t scatter_width = 0;
  std::vector<index_t> scatter_col;  ///< ELL column-major, kInvalidIndex pad
  std::vector<T> scatter_val;

  // --- storage-mode extensions (pass 7, core/builder.hpp) ---
  ValuePrecision value_precision = ValuePrecision::kNative;
  ScatterIndexMode scatter_index_mode = ScatterIndexMode::kIndex32;
  std::vector<float> dia_val_f32;     ///< active iff value_precision == kFloat32
  std::vector<float> scatter_val_f32;
  std::vector<std::uint16_t> scatter_col16;  ///< u16 ELL, kScatterPad16 pad
  /// Bytes per pattern-index entry (2 or 4) chosen from each pattern's
  /// diagonal-offset range; empty means the historical uniform 4 bytes.
  std::vector<std::uint8_t> pattern_index_width;
};

template <Real T>
class CrsdMatrix {
 public:
  CrsdMatrix() = default;

  /// Takes ownership of builder output; validates structural invariants.
  explicit CrsdMatrix(CrsdStorage<T> s) : s_(std::move(s)) {
    CRSD_CHECK_MSG(s_.mrows >= 1, "mrows must be >= 1");
    const index_t segs = num_segments_total();
    cum_segments_.assign(1, 0);
    pattern_val_offset_.assign(1, 0);
    index_t seg_cursor = 0;
    size64_t val_cursor = 0;
    for (const auto& p : s_.patterns) {
      CRSD_CHECK_MSG(p.start_row == seg_cursor * s_.mrows,
                     "pattern start row mismatch");
      CRSD_CHECK_MSG(p.num_segments >= 1, "empty pattern run");
      CRSD_CHECK(p.groups.size() == group_diagonals(p.offsets).size());
      seg_cursor += p.num_segments;
      val_cursor += static_cast<size64_t>(p.num_segments) *
                    p.slots_per_segment(s_.mrows);
      cum_segments_.push_back(seg_cursor);
      pattern_val_offset_.push_back(val_cursor);
    }
    // Per-pattern interior/edge split for the vectorized engine, and the
    // widest AD-group staging window any pattern needs.
    interior_.reserve(s_.patterns.size());
    index_t max_window = 0;
    for (std::size_t pi = 0; pi < s_.patterns.size(); ++pi) {
      const auto& p = s_.patterns[pi];
      interior_.push_back(pattern_interior_segments(
          p, cum_segments_[pi], cum_segments_[pi + 1], s_.mrows, s_.num_rows,
          s_.num_cols));
      max_window = std::max<index_t>(
          max_window, s_.mrows + std::max<index_t>(p.max_adjacent_width(), 1) - 1);
    }
    stage_window_ = max_window;
    CRSD_CHECK_MSG(seg_cursor == segs, "patterns must cover every row segment");
    CRSD_CHECK(std::is_sorted(s_.scatter_rowno.begin(), s_.scatter_rowno.end()));
    const size64_t ell_slots = s_.scatter_rowno.size() *
                               static_cast<size64_t>(s_.scatter_width);
    // The active value stream must match the slot counts exactly.
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        CRSD_CHECK_MSG(val_cursor == s_.dia_val.size(),
                       "diagonal value array size mismatch");
        CRSD_CHECK(s_.scatter_val.size() == ell_slots);
        break;
      case ValuePrecision::kFloat32:
        CRSD_CHECK_MSG(val_cursor == s_.dia_val_f32.size(),
                       "f32 diagonal value array size mismatch");
        CRSD_CHECK(s_.scatter_val_f32.size() == ell_slots);
        break;
    }
    switch (s_.scatter_index_mode) {
      case ScatterIndexMode::kIndex32:
        CRSD_CHECK(s_.scatter_col.size() == ell_slots);
        break;
      case ScatterIndexMode::kIndex16:
        CRSD_CHECK_MSG(s_.num_cols <= 0xffff,
                       "u16 scatter columns require num_cols <= 65535");
        CRSD_CHECK(s_.scatter_col16.size() == ell_slots);
        break;
    }
    if (!s_.pattern_index_width.empty()) {
      CRSD_CHECK(s_.pattern_index_width.size() == s_.patterns.size());
    }
  }

  index_t num_rows() const { return s_.num_rows; }
  index_t num_cols() const { return s_.num_cols; }
  index_t mrows() const { return s_.mrows; }
  size64_t nnz() const { return s_.nnz; }

  index_t num_segments_total() const {
    return s_.mrows == 0 ? 0 : (s_.num_rows + s_.mrows - 1) / s_.mrows;
  }

  const std::vector<DiagonalPattern>& patterns() const { return s_.patterns; }
  index_t num_patterns() const {
    return static_cast<index_t>(s_.patterns.size());
  }
  /// Native diagonal value stream. Empty in f32 mode — mode-agnostic
  /// consumers should use decoded_dia_values()/dia_value() instead.
  const std::vector<T>& dia_values() const { return s_.dia_val; }

  /// Cumulative segment counts, size num_patterns()+1 (paper's Σ NRS_i).
  const std::vector<index_t>& cum_segments() const { return cum_segments_; }
  /// Start of pattern p's values in dia_values(), size num_patterns()+1.
  const std::vector<size64_t>& pattern_value_offsets() const {
    return pattern_val_offset_;
  }

  /// Pattern index owning global segment `group_id`.
  index_t pattern_of_segment(index_t group_id) const {
    CRSD_ASSERT(group_id >= 0 && group_id < num_segments_total());
    const auto it = std::upper_bound(cum_segments_.begin(), cum_segments_.end(),
                                     group_id);
    return static_cast<index_t>(it - cum_segments_.begin()) - 1;
  }

  /// Value slot of (pattern p, segment-within-pattern, diagonal d, lane).
  size64_t slot(index_t p, index_t seg, index_t d, index_t lane) const {
    const auto& pat = s_.patterns[static_cast<std::size_t>(p)];
    CRSD_ASSERT(seg >= 0 && seg < pat.num_segments);
    CRSD_ASSERT(d >= 0 && d < pat.num_diagonals());
    CRSD_ASSERT(lane >= 0 && lane < s_.mrows);
    return pattern_val_offset_[static_cast<std::size_t>(p)] +
           static_cast<size64_t>(seg) * pat.slots_per_segment(s_.mrows) +
           static_cast<size64_t>(d) * s_.mrows + static_cast<size64_t>(lane);
  }

  // Scatter part accessors.
  const std::vector<index_t>& scatter_rows() const { return s_.scatter_rowno; }
  index_t num_scatter_rows() const {
    return static_cast<index_t>(s_.scatter_rowno.size());
  }
  index_t scatter_width() const { return s_.scatter_width; }
  /// Native (i32 ELL) scatter columns. Empty in u16 mode — use
  /// decoded_scatter_col() for a mode-agnostic view.
  const std::vector<index_t>& scatter_col() const { return s_.scatter_col; }
  /// Native scatter value stream. Empty in f32 mode.
  const std::vector<T>& scatter_val() const { return s_.scatter_val; }

  // --- storage-mode introspection ---
  const CrsdStorage<T>& storage() const { return s_; }
  ValuePrecision value_precision() const { return s_.value_precision; }
  ScatterIndexMode scatter_index_mode() const { return s_.scatter_index_mode; }
  /// Bytes per stored value in the active streams.
  int value_bytes() const {
    return value_stream_bytes<T>(s_.value_precision);
  }
  size64_t dia_slot_count() const {
    return pattern_val_offset_.empty() ? 0 : pattern_val_offset_.back();
  }
  size64_t scatter_slot_count() const {
    return s_.scatter_rowno.size() * static_cast<size64_t>(s_.scatter_width);
  }
  /// Diagonal value at `slot`, widened from the active stream.
  T dia_value(size64_t slot_idx) const {
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        return s_.dia_val[slot_idx];
      case ValuePrecision::kFloat32:
        return static_cast<T>(s_.dia_val_f32[slot_idx]);
    }
    return T(0);
  }
  /// Scatter value at ELL slot, widened from the active stream.
  T scatter_value(size64_t slot_idx) const {
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        return s_.scatter_val[slot_idx];
      case ValuePrecision::kFloat32:
        return static_cast<T>(s_.scatter_val_f32[slot_idx]);
    }
    return T(0);
  }
  /// Materializes the diagonal value stream widened to T.
  std::vector<T> decoded_dia_values() const {
    std::vector<T> out(dia_slot_count());
    for (size64_t i = 0; i < out.size(); ++i) out[i] = dia_value(i);
    return out;
  }
  /// Materializes the scatter value stream widened to T.
  std::vector<T> decoded_scatter_val() const {
    std::vector<T> out(scatter_slot_count());
    for (size64_t i = 0; i < out.size(); ++i) out[i] = scatter_value(i);
    return out;
  }
  /// Materializes the scatter columns as i32 ELL with kInvalidIndex pads,
  /// regardless of the encoded representation.
  std::vector<index_t> decoded_scatter_col() const {
    if (s_.scatter_index_mode == ScatterIndexMode::kIndex32) {
      return s_.scatter_col;
    }
    std::vector<index_t> out(scatter_slot_count());
    for (size64_t i = 0; i < out.size(); ++i) {
      out[i] = s_.scatter_col16[i] == kScatterPad16
                   ? kInvalidIndex
                   : static_cast<index_t>(s_.scatter_col16[i]);
    }
    return out;
  }
  /// Bytes per pattern-index entry for pattern p (2 or 4).
  int pattern_index_width(index_t p) const {
    return s_.pattern_index_width.empty()
               ? 4
               : static_cast<int>(
                     s_.pattern_index_width[static_cast<std::size_t>(p)]);
  }
  /// Encoded size of the scatter column representation (excluding rowno).
  size64_t scatter_index_stream_bytes() const {
    return scatter_slot_count() *
           static_cast<size64_t>(scatter_index_width(s_.scatter_index_mode));
  }
  /// Pattern index metadata bytes at the recorded per-pattern widths.
  size64_t dia_index_bytes() const {
    size64_t bytes = 0;
    for (std::size_t pi = 0; pi < s_.patterns.size(); ++pi) {
      bytes += pattern_index_entries(s_.patterns[pi]) *
               static_cast<size64_t>(
                   pattern_index_width(static_cast<index_t>(pi)));
    }
    return bytes;
  }

  /// y = A*x, single thread, on the vectorized engine: branch-free interior
  /// segments through the SIMD kernel, clamped edge segments through the
  /// scalar path, then the scatter overwrite. In native mode accumulation
  /// order per row is identical to spmv_scalar, so the two agree
  /// bit-for-bit (modulo uniform fp-contract settings); compacted value
  /// streams widen on load and accumulate in double.
  void spmv(const T* x, T* y) const {
    spmv_segments_vec(0, num_segments_total(), x, y);
    spmv_scatter(0, num_scatter_rows(), x, y);
  }

  /// y = A*x, single thread, all segments on the scalar clamped path — the
  /// pre-vectorization baseline, kept as the parity/bench reference.
  void spmv_scalar(const T* x, T* y) const {
    spmv_segments(0, num_segments_total(), x, y);
    spmv_scatter(0, num_scatter_rows(), x, y);
  }

  /// y = A*x on `pool`: segments are dealt out in chunks small enough to
  /// load-balance patterns with different diagonal counts (each segment's
  /// rows are still written by exactly one thread), then the scatter rows
  /// are spread over the pool too (each scatter row has one writer).
  void spmv_parallel(ThreadPool& pool, const T* x, T* y) const {
    const index_t segs = num_segments_total();
    const index_t chunk =
        std::max<index_t>(1, segs / (8 * static_cast<index_t>(
                                             pool.num_threads())));
    pool.parallel_for_chunked(0, segs, chunk,
                              [&](index_t sb, index_t se, int) {
                                spmv_segments_vec(sb, se, x, y);
                              });
    pool.parallel_for(0, num_scatter_rows(),
                      [&](index_t b, index_t e, int) {
                        spmv_scatter(b, e, x, y);
                      });
  }

  /// Diagonal phase for global segments [seg_begin, seg_end) — the CPU
  /// analogue of one work-group per segment. Dispatches on the active
  /// value stream; compacted streams accumulate in double.
  void spmv_segments(index_t seg_begin, index_t seg_end, const T* x,
                     T* y) const {
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        return spmv_segments_impl<T>(s_.dia_val.data(), seg_begin, seg_end, x,
                                     y);
      case ValuePrecision::kFloat32:
        return spmv_segments_impl<float>(s_.dia_val_f32.data(), seg_begin,
                                         seg_end, x, y);
    }
  }

  /// Diagonal phase for global segments [seg_begin, seg_end) on the
  /// vectorized engine: per pattern, the precomputed interior subrange runs
  /// the clamp-free lane-innermost SIMD kernel; the (at most few) edge
  /// segments fall back to the scalar clamped path.
  void spmv_segments_vec(index_t seg_begin, index_t seg_end, const T* x,
                         T* y) const {
    // AD-group x staging buffer — the CPU analogue of the paper's local-
    // memory window (§III): one contiguous copy serves every diagonal of
    // the group. Allocated once per call (i.e. once per parallel chunk).
    std::vector<T> xbuf(static_cast<std::size_t>(stage_window_));
    // Widened per-segment accumulator for the compacted value streams
    // (unused in native mode, where y itself is the accumulator).
    std::vector<double> acc(
        s_.value_precision == ValuePrecision::kNative
            ? 0
            : static_cast<std::size_t>(s_.mrows));
    for (std::size_t pi = 0;
         pi < s_.patterns.size() && cum_segments_[pi] < seg_end; ++pi) {
      const index_t g0 = std::max(seg_begin, cum_segments_[pi]);
      const index_t g1 = std::min(seg_end, cum_segments_[pi + 1]);
      if (g0 >= g1) continue;
      const index_t ib = std::clamp(interior_[pi].begin, g0, g1);
      const index_t ie = std::clamp(interior_[pi].end, ib, g1);
      spmv_segments(g0, ib, x, y);
      spmv_pattern_interior(static_cast<index_t>(pi), ib, ie, x, y,
                            xbuf.data(), acc.data());
      spmv_segments(ie, g1, x, y);
    }
  }

  /// Interior range of pattern `p` (global segment ids) where the clamp-free
  /// kernel applies; exposed for the code generator and tests.
  const SegmentInterior& interior_segments(index_t p) const {
    return interior_[static_cast<std::size_t>(p)];
  }

  /// Scatter phase over scatter-row indices [row_begin, row_end): full-row
  /// recompute, overwriting y. Each scatter row is written exactly once, so
  /// disjoint ranges can run on different threads. Dispatches on value
  /// precision x column representation.
  void spmv_scatter(index_t row_begin, index_t row_end, const T* x,
                    T* y) const {
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        return spmv_scatter_dispatch<T>(s_.scatter_val.data(), row_begin,
                                        row_end, x, y);
      case ValuePrecision::kFloat32:
        return spmv_scatter_dispatch<float>(s_.scatter_val_f32.data(),
                                            row_begin, row_end, x, y);
    }
  }

  /// Bytes of values plus the index metadata the paper's arrays would hold
  /// (matrix/crsd_dia_index/scatter_rowno/scatter_colval), accounted at the
  /// active storage mode's actual widths.
  size64_t footprint_bytes() const {
    const size64_t vb = static_cast<size64_t>(value_bytes());
    return dia_slot_count() * vb + dia_index_bytes() +
           s_.scatter_rowno.size() * sizeof(index_t) +
           scatter_index_stream_bytes() + scatter_slot_count() * vb;
  }

  /// Occupancy statistics (fill ratio, AD fraction, scatter share) plus the
  /// actual per-stream byte widths of the active storage mode.
  CrsdStats stats() const {
    CrsdStats st;
    st.num_patterns = num_patterns();
    st.num_segments = num_segments_total();
    st.dia_slots = dia_slot_count();
    st.num_scatter_rows = num_scatter_rows();
    st.scatter_width = s_.scatter_width;
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        st.dia_nnz = count_nonzero(s_.dia_val);
        st.scatter_nnz = count_nonzero(s_.scatter_val);
        break;
      case ValuePrecision::kFloat32:
        st.dia_nnz = count_nonzero(s_.dia_val_f32);
        st.scatter_nnz = count_nonzero(s_.scatter_val_f32);
        break;
    }
    size64_t ad_slots = 0;
    for (std::size_t p = 0; p < s_.patterns.size(); ++p) {
      const auto& pat = s_.patterns[p];
      index_t ad = 0;
      for (const auto& g : pat.groups) {
        if (g.type == GroupType::kAdjacent) ad += g.num_diagonals;
      }
      ad_slots += static_cast<size64_t>(ad) * pat.num_segments * s_.mrows;
    }
    st.ad_diag_fraction =
        st.dia_slots == 0 ? 0.0 : double(ad_slots) / double(st.dia_slots);
    st.value_bytes = value_bytes();
    st.scatter_index_bytes = scatter_index_stream_bytes();
    st.dia_index_bytes = dia_index_bytes();
    return st;
  }

  /// Clamps a source-vector index into range; out-of-range slots hold value
  /// zero so the clamped read never changes the result (branch-free kernels).
  index_t clamp_col(index_t c) const {
    return std::clamp<index_t>(c, 0, s_.num_cols - 1);
  }

  /// Replaces the value streams without touching the structure (used by
  /// update_values — the inspector/executor value-refresh path). Input is
  /// always widened T; compacted modes re-quantize into the active stream.
  /// Sizes must match the slot counts exactly.
  void replace_values(std::vector<T> dia_val, std::vector<T> scatter_val) {
    CRSD_CHECK_MSG(dia_val.size() == dia_slot_count() &&
                       scatter_val.size() == scatter_slot_count(),
                   "replace_values size mismatch");
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        s_.dia_val = std::move(dia_val);
        s_.scatter_val = std::move(scatter_val);
        break;
      case ValuePrecision::kFloat32:
        for (size64_t i = 0; i < dia_val.size(); ++i)
          s_.dia_val_f32[i] = static_cast<float>(dia_val[i]);
        for (size64_t i = 0; i < scatter_val.size(); ++i)
          s_.scatter_val_f32[i] = static_cast<float>(scatter_val[i]);
        break;
    }
  }

  /// Index metadata entries the paper's crsd_dia_index holds for pattern p:
  /// start row + NRS, (type, count) per group, a column index per NAD
  /// diagonal and one per AD group (§II-D).
  static size64_t pattern_index_entries(const DiagonalPattern& p) {
    size64_t entries = 2 + 2 * p.groups.size();
    for (const auto& g : p.groups) {
      entries += g.type == GroupType::kAdjacent
                     ? 1
                     : static_cast<size64_t>(g.num_diagonals);
    }
    return entries;
  }

 private:
  template <typename VT>
  static size64_t count_nonzero(const std::vector<VT>& v) {
    size64_t n = 0;
    for (const VT& e : v) {
      if (e != VT(0)) ++n;
    }
    return n;
  }

  /// Scalar clamped diagonal phase over value-stream type VT. Native
  /// (VT == T) accumulates in T — bitwise identical to the historical
  /// kernel; compacted streams widen each load and accumulate in double.
  template <typename VT>
  void spmv_segments_impl(const VT* stream, index_t seg_begin, index_t seg_end,
                          const T* x, T* y) const {
    using Acc = std::conditional_t<std::is_same_v<VT, T>, T, double>;
    for (index_t g = seg_begin; g < seg_end; ++g) {
      const index_t p = pattern_of_segment(g);
      const auto& pat = s_.patterns[static_cast<std::size_t>(p)];
      const index_t seg_in_p = g - cum_segments_[static_cast<std::size_t>(p)];
      const index_t row0 = g * s_.mrows;
      const index_t lanes = std::min<index_t>(s_.mrows, s_.num_rows - row0);
      const VT* unit = stream +
                       pattern_val_offset_[static_cast<std::size_t>(p)] +
                       static_cast<size64_t>(seg_in_p) *
                           pat.slots_per_segment(s_.mrows);
      const index_t ndias = pat.num_diagonals();
      for (index_t lane = 0; lane < lanes; ++lane) {
        const index_t r = row0 + lane;
        Acc sum = Acc(0);
        for (index_t d = 0; d < ndias; ++d) {
          const index_t c = clamp_col(r + pat.offsets[static_cast<std::size_t>(d)]);
          sum += static_cast<Acc>(
                     unit[static_cast<size64_t>(d) * s_.mrows + lane]) *
                 static_cast<Acc>(x[c]);
        }
        y[r] = static_cast<T>(sum);
      }
    }
  }

  /// ELL scatter phase over value type VT and column type CT (i32 with
  /// kInvalidIndex pads, or u16 with kScatterPad16 pads).
  template <typename VT, typename CT>
  void spmv_scatter_ell(const VT* sval, const CT* scol, CT pad,
                        index_t row_begin, index_t row_end, const T* x,
                        T* y) const {
    using Acc = std::conditional_t<std::is_same_v<VT, T>, T, double>;
    const index_t nsr = num_scatter_rows();
    for (index_t i = std::max<index_t>(row_begin, 0);
         i < std::min(row_end, nsr); ++i) {
      Acc sum = Acc(0);
      for (index_t k = 0; k < s_.scatter_width; ++k) {
        const size64_t slot_idx =
            static_cast<size64_t>(k) * nsr + static_cast<size64_t>(i);
        const CT c = scol[slot_idx];
        if (c != pad) {
          sum += static_cast<Acc>(sval[slot_idx]) *
                 static_cast<Acc>(x[static_cast<index_t>(c)]);
        }
      }
      y[s_.scatter_rowno[static_cast<std::size_t>(i)]] = static_cast<T>(sum);
    }
  }

  template <typename VT>
  void spmv_scatter_dispatch(const VT* sval, index_t row_begin,
                             index_t row_end, const T* x, T* y) const {
    switch (s_.scatter_index_mode) {
      case ScatterIndexMode::kIndex32:
        return spmv_scatter_ell<VT, index_t>(sval, s_.scatter_col.data(),
                                             kInvalidIndex, row_begin, row_end,
                                             x, y);
      case ScatterIndexMode::kIndex16:
        return spmv_scatter_ell<VT, std::uint16_t>(
            sval, s_.scatter_col16.data(), kScatterPad16, row_begin, row_end,
            x, y);
    }
  }

  /// Clamp-free lane-innermost kernel for interior segments [g0, g1) of
  /// pattern `p`, dispatched on the active value stream. `xbuf` must hold at
  /// least mrows + max_adjacent_width - 1 elements; `acc` must hold mrows
  /// doubles in the compacted modes (unused in native mode).
  void spmv_pattern_interior(index_t p, index_t g0, index_t g1, const T* x,
                             T* y, T* xbuf, double* acc) const {
    switch (s_.value_precision) {
      case ValuePrecision::kNative:
        return spmv_pattern_interior_impl<T>(s_.dia_val.data(), p, g0, g1, x,
                                             y, xbuf, acc);
      case ValuePrecision::kFloat32:
        return spmv_pattern_interior_impl<float>(s_.dia_val_f32.data(), p, g0,
                                                 g1, x, y, xbuf, acc);
    }
  }

  /// Interior kernel body. Native mode (VT == T) accumulates directly into
  /// y via simd::axpy_lanes — the historical bitwise-reproducible path.
  /// Compacted streams accumulate each segment into the double buffer via
  /// simd::axpy_lanes_widen and store once at the end.
  template <typename VT>
  void spmv_pattern_interior_impl(const VT* stream, index_t p, index_t g0,
                                  index_t g1, const T* x, T* y, T* xbuf,
                                  double* acc) const {
    if (g0 >= g1) return;
    const auto& pat = s_.patterns[static_cast<std::size_t>(p)];
    const index_t m = s_.mrows;
    const size64_t slots = pat.slots_per_segment(m);
    const VT* base = stream + pattern_val_offset_[static_cast<std::size_t>(p)];
    const index_t seg0 = cum_segments_[static_cast<std::size_t>(p)];
    constexpr bool kNativeStream = std::is_same_v<VT, T>;
    for (index_t g = g0; g < g1; ++g) {
      const VT* CRSD_RESTRICT unit =
          base + static_cast<size64_t>(g - seg0) * slots;
      T* CRSD_RESTRICT yy = y + static_cast<size64_t>(g) * m;
      const T* xx = x + static_cast<size64_t>(g) * m;  // x[row0 + lane]
      bool init = true;
      for (const auto& grp : pat.groups) {
        if (grp.type == GroupType::kAdjacent && grp.num_diagonals >= 2) {
          // Stage the group's shared x window once; diagonal gd of the
          // group reads xbuf[lane + gd] — same values, one copy.
          const diag_offset_t first =
              pat.offsets[static_cast<std::size_t>(grp.first_diagonal)];
          const index_t window = m + grp.num_diagonals - 1;
          std::copy(xx + first, xx + first + window, xbuf);
          for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
            const index_t d = grp.first_diagonal + gd;
            if constexpr (kNativeStream) {
              simd::axpy_lanes(yy, unit + static_cast<size64_t>(d) * m,
                               xbuf + gd, m, init);
            } else {
              simd::axpy_lanes_widen(acc, unit + static_cast<size64_t>(d) * m,
                                     xbuf + gd, m, init);
            }
            init = false;
          }
        } else {
          for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
            const index_t d = grp.first_diagonal + gd;
            const diag_offset_t off =
                pat.offsets[static_cast<std::size_t>(d)];
            if constexpr (kNativeStream) {
              simd::axpy_lanes(yy, unit + static_cast<size64_t>(d) * m,
                               xx + off, m, init);
            } else {
              simd::axpy_lanes_widen(acc, unit + static_cast<size64_t>(d) * m,
                                     xx + off, m, init);
            }
            init = false;
          }
        }
      }
      if constexpr (!kNativeStream) {
        if (!init) {
          for (index_t lane = 0; lane < m; ++lane) {
            yy[lane] = static_cast<T>(acc[lane]);
          }
        }
      }
    }
  }

  CrsdStorage<T> s_;
  std::vector<index_t> cum_segments_;
  std::vector<size64_t> pattern_val_offset_;
  std::vector<SegmentInterior> interior_;  ///< per pattern, global seg ids
  index_t stage_window_ = 0;  ///< AD staging buffer size the engine needs
};

}  // namespace crsd
