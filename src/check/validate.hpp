// CRSD container validator: structural invariant checks over a built (or
// hand-assembled) CRSD container, returning machine-readable Diagnostics
// instead of aborting on first failure. The checks mirror the format
// contract of §II-D that every engine (interpreted, vectorized, simulated
// GPU, JIT codelets) relies on:
//
//   * segment coverage — patterns tile the row-segment range exactly, in
//     order, with no gaps or overlaps (start_row/num_segments accounting);
//   * offset order — each pattern's live diagonals strictly ascending
//     (kernels binary-search and group them under that assumption) and
//     inside (-num_rows, num_cols), where row + offset stays in range;
//   * group adjacency — the stored AD/NAD groups are exactly what
//     group_diagonals() derives from the offsets;
//   * value-stream accounting — dia_val holds exactly
//     Σ_p NRS_p × NNzRS_p slots, and padding slots (short edge lanes,
//     clamped out-of-range columns) hold zero;
//   * scatter layout — scatter_rowno strictly ascending and in range, ELL
//     arrays sized width × rows, columns in range or padding, padding slots
//     zero-valued;
//   * scatter disjointness — scatter rows own no nonzeros in the diagonal
//     stream (their y entry is overwritten by the scatter phase; a nonzero
//     there is dead data that desynchronizes stats and update_values);
//   * nnz conservation (validate_against) — the container stores exactly
//     the source COO's entries, value-for-value, nothing lost or invented.
//
// Header-only so core/builder.hpp can run it under debug builds without a
// link dependency on the crsd_check library. Works on both CrsdStorage
// (pre-validation, hand-built fixtures) and CrsdMatrix (via accessors).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "core/pattern.hpp"
#include "core/storage_mode.hpp"
#include "matrix/coo.hpp"

namespace crsd::check {

struct ValidateOptions {
  /// Require diagonal-part slots of scatter rows to be zero. Matches the
  /// builder default (CrsdConfig::zero_scatter_rows_in_dia); pass false for
  /// containers built with that knob off.
  bool require_scatter_disjoint = true;
};

namespace detail {

/// Decoded, owning view over the container streams: values widened to T,
/// scatter columns materialized as i32 ELL with kInvalidIndex pads. One
/// validate_view implementation serves every storage mode this way; the
/// encoded representations get their own integrity pass (validate_streams)
/// before decoding. patterns/rowno stay borrowed — they are mode-invariant.
template <Real T>
struct CrsdView {
  index_t num_rows;
  index_t num_cols;
  index_t mrows;
  size64_t nnz;
  const std::vector<DiagonalPattern>& patterns;
  std::vector<T> dia_val;
  const std::vector<index_t>& scatter_rowno;
  index_t scatter_width;
  std::vector<index_t> scatter_col;
  std::vector<T> scatter_val;
  ValuePrecision value_precision;
};

template <Real T>
void emit(std::vector<Diagnostic>& out, Code code, std::int64_t where,
          const std::ostringstream& os) {
  Diagnostic d;
  d.code = code;
  d.offset = where;
  d.message = os.str();
  out.push_back(std::move(d));
}

template <Real T>
std::vector<T> decode_value_stream(const CrsdStorage<T>& s, bool dia_part) {
  switch (s.value_precision) {
    case ValuePrecision::kNative:
      return dia_part ? s.dia_val : s.scatter_val;
    case ValuePrecision::kFloat32: {
      const auto& src = dia_part ? s.dia_val_f32 : s.scatter_val_f32;
      std::vector<T> out(src.size());
      for (size64_t i = 0; i < src.size(); ++i)
        out[i] = static_cast<T>(src[i]);
      return out;
    }
  }
  return {};
}

/// Integrity of the *encoded* stream representations — everything that must
/// hold before decoding is even meaningful: u16 columns check the num_cols
/// bound and sizing.
template <Real T>
std::vector<Diagnostic> validate_streams(const CrsdStorage<T>& s) {
  std::vector<Diagnostic> out;
  const index_t nsr = static_cast<index_t>(s.scatter_rowno.size());
  const size64_t ell_slots =
      static_cast<size64_t>(s.scatter_width) * static_cast<size64_t>(nsr);
  switch (s.scatter_index_mode) {
    case ScatterIndexMode::kIndex32:
      break;  // raw ELL; validate_view checks it directly
    case ScatterIndexMode::kIndex16:
      if (s.num_cols > 0xffff) {
        std::ostringstream os;
        os << "u16 scatter columns with num_cols=" << s.num_cols
           << " (> 65535): real columns would collide with the pad sentinel";
        emit<T>(out, Code::kScatterLayout, -1, os);
      }
      if (s.scatter_col16.size() != ell_slots) {
        std::ostringstream os;
        os << "scatter_col16 holds " << s.scatter_col16.size()
           << " slots; width " << s.scatter_width << " × " << nsr
           << " rows needs " << ell_slots;
        emit<T>(out, Code::kScatterLayout, -1, os);
      }
      break;
  }
  return out;
}

/// Decodes storage into the owning view. Native streams copy through as-is
/// (wrong-sized hand-built fixtures propagate so validate_view reports
/// them); u16 columns are only decoded after validate_streams passed.
template <Real T>
CrsdView<T> make_view(const CrsdStorage<T>& s) {
  CrsdView<T> v{s.num_rows,
                s.num_cols,
                s.mrows,
                s.nnz,
                s.patterns,
                decode_value_stream(s, /*dia_part=*/true),
                s.scatter_rowno,
                s.scatter_width,
                {},
                decode_value_stream(s, /*dia_part=*/false),
                s.value_precision};
  switch (s.scatter_index_mode) {
    case ScatterIndexMode::kIndex32:
      v.scatter_col = s.scatter_col;
      break;
    case ScatterIndexMode::kIndex16:
      v.scatter_col.resize(s.scatter_col16.size());
      for (size64_t i = 0; i < s.scatter_col16.size(); ++i) {
        v.scatter_col[i] = s.scatter_col16[i] == kScatterPad16
                               ? kInvalidIndex
                               : static_cast<index_t>(s.scatter_col16[i]);
      }
      break;
  }
  return v;
}

/// Pattern owning global segment `seg` (linear scan; validation is cold).
template <Real T>
index_t pattern_of(const CrsdView<T>& v, index_t seg) {
  index_t cursor = 0;
  for (std::size_t p = 0; p < v.patterns.size(); ++p) {
    cursor += v.patterns[p].num_segments;
    if (seg < cursor) return static_cast<index_t>(p);
  }
  return static_cast<index_t>(v.patterns.size()) - 1;
}

template <Real T>
std::vector<Diagnostic> validate_view(const CrsdView<T>& v,
                                      const ValidateOptions& opts) {
  std::vector<Diagnostic> out;
  if (v.mrows < 1 || v.num_rows < 1 || v.num_cols < 1) {
    std::ostringstream os;
    os << "degenerate container: num_rows=" << v.num_rows
       << " num_cols=" << v.num_cols << " mrows=" << v.mrows;
    emit<T>(out, Code::kSegmentCoverage, -1, os);
    return out;  // every later check divides by these
  }
  if (std::int64_t{v.num_rows} + v.mrows - 1 >
      std::numeric_limits<index_t>::max()) {
    std::ostringstream os;
    os << "num_rows=" << v.num_rows << " with mrows=" << v.mrows
       << " overflows the segment count arithmetic";
    emit<T>(out, Code::kIndexOverflow, -1, os);
    return out;
  }

  // Segment coverage: patterns tile [0, ceil(num_rows/mrows)) in order.
  // Segment counts may come from an untrusted stream, so the cursor is
  // 64-bit and stops one past the end instead of overflowing.
  const index_t total_segs = (v.num_rows + v.mrows - 1) / v.mrows;
  std::int64_t seg_cursor = 0;
  bool segments_positive = true;
  size64_t val_cursor = 0;
  for (std::size_t p = 0; p < v.patterns.size(); ++p) {
    const DiagonalPattern& pat = v.patterns[p];
    if (pat.start_row != seg_cursor * v.mrows) {
      std::ostringstream os;
      os << "pattern " << p << " starts at row " << pat.start_row
         << ", expected " << seg_cursor * v.mrows
         << " (patterns must tile the segments in order)";
      emit<T>(out, Code::kSegmentCoverage, static_cast<std::int64_t>(p), os);
    }
    if (pat.num_segments < 1) {
      std::ostringstream os;
      os << "pattern " << p << " covers " << pat.num_segments << " segments";
      emit<T>(out, Code::kSegmentCoverage, static_cast<std::int64_t>(p), os);
      segments_positive = false;
    }
    // A diagonal outside (-num_rows, num_cols) holds no entry of the
    // matrix, and row + offset on it can leave the index range.
    for (const diag_offset_t off : pat.offsets) {
      if (off <= -v.num_rows || off >= v.num_cols) {
        std::ostringstream os;
        os << "pattern " << p << " offset " << off << " outside ("
           << -v.num_rows << ", " << v.num_cols << ")";
        emit<T>(out, Code::kOffsetOrder, static_cast<std::int64_t>(p), os);
        break;
      }
    }
    // Offsets strictly ascending (binary search + grouping rely on it).
    bool offsets_sorted = true;
    for (std::size_t d = 1; d < pat.offsets.size(); ++d) {
      if (pat.offsets[d - 1] >= pat.offsets[d]) {
        std::ostringstream os;
        os << "pattern " << p << " offsets not strictly ascending at index "
           << d << " (" << pat.offsets[d - 1] << " >= " << pat.offsets[d]
           << ")";
        emit<T>(out, Code::kOffsetOrder, static_cast<std::int64_t>(p), os);
        offsets_sorted = false;
        break;
      }
    }
    // AD/NAD grouping must be exactly what the offsets derive to.
    // group_diagonals() itself asserts on unsorted input, so the comparison
    // only makes sense once the order check has passed.
    if (offsets_sorted && pat.groups != group_diagonals(pat.offsets)) {
      std::ostringstream os;
      os << "pattern " << p << " groups disagree with group_diagonals() of "
         << "its offsets: stored " << pattern_to_string(pat);
      emit<T>(out, Code::kGroupMismatch, static_cast<std::int64_t>(p), os);
    }
    if (pat.num_segments >= 1) {
      seg_cursor = std::min<std::int64_t>(seg_cursor + pat.num_segments,
                                          std::int64_t{total_segs} + 1);
      val_cursor += static_cast<size64_t>(pat.num_segments) *
                    pat.slots_per_segment(v.mrows);
    }
  }
  if (seg_cursor != total_segs) {
    std::ostringstream os;
    os << "patterns cover " << seg_cursor << " segments, matrix has "
       << total_segs;
    emit<T>(out, Code::kSegmentCoverage, -1, os);
  }

  // Diagonal-major value-stream accounting.
  const bool dia_sized = val_cursor == v.dia_val.size();
  if (!dia_sized) {
    std::ostringstream os;
    os << "dia_val holds " << v.dia_val.size() << " slots, patterns account "
       << "for " << val_cursor;
    emit<T>(out, Code::kValueStreamLength, -1, os);
  }

  // Scatter layout.
  const index_t nsr = static_cast<index_t>(v.scatter_rowno.size());
  for (index_t i = 0; i < nsr; ++i) {
    const index_t r = v.scatter_rowno[static_cast<std::size_t>(i)];
    if (r < 0 || r >= v.num_rows) {
      std::ostringstream os;
      os << "scatter_rowno[" << i << "] = " << r << " outside [0, "
         << v.num_rows << ")";
      emit<T>(out, Code::kScatterLayout, i, os);
    }
    if (i > 0 && v.scatter_rowno[static_cast<std::size_t>(i - 1)] >= r) {
      std::ostringstream os;
      os << "scatter_rowno not strictly ascending at index " << i;
      emit<T>(out, Code::kScatterLayout, i, os);
    }
  }
  const size64_t ell_slots =
      static_cast<size64_t>(v.scatter_width) * static_cast<size64_t>(nsr);
  const bool ell_sized =
      v.scatter_col.size() == ell_slots && v.scatter_val.size() == ell_slots;
  if (!ell_sized) {
    std::ostringstream os;
    os << "scatter ELL arrays hold " << v.scatter_col.size() << " cols / "
       << v.scatter_val.size() << " vals; width " << v.scatter_width
       << " × " << nsr << " rows needs " << ell_slots;
    emit<T>(out, Code::kScatterLayout, -1, os);
  }
  if (ell_sized) {
    for (size64_t s = 0; s < ell_slots; ++s) {
      const index_t c = v.scatter_col[s];
      if (c == kInvalidIndex) {
        if (v.scatter_val[s] != T(0)) {
          std::ostringstream os;
          os << "scatter padding slot " << s << " holds nonzero value";
          emit<T>(out, Code::kScatterLayout, static_cast<std::int64_t>(s), os);
          break;
        }
      } else if (c < 0 || c >= v.num_cols) {
        std::ostringstream os;
        os << "scatter_col[" << s << "] = " << c << " outside [0, "
           << v.num_cols << ")";
        emit<T>(out, Code::kScatterLayout, static_cast<std::int64_t>(s), os);
        break;
      }
    }
    // Per-row column discipline: live entries strictly ascending, padding
    // only at the tail of each row's k-run. The builder emits both (the
    // source COO is canonical), and the cross-width storage oracle
    // relies on them — a flipped narrow index
    // that stays in range still breaks the order and is caught here.
    for (index_t i = 0; i < nsr && out.size() < 64; ++i) {
      index_t prev = -1;
      bool padded = false;
      for (index_t k = 0; k < v.scatter_width; ++k) {
        const size64_t s =
            static_cast<size64_t>(k) * static_cast<size64_t>(nsr) +
            static_cast<size64_t>(i);
        const index_t c = v.scatter_col[s];
        if (c == kInvalidIndex) {
          padded = true;
          continue;
        }
        if (padded) {
          std::ostringstream os;
          os << "scatter row " << i << " has a live column after padding "
             << "(slot " << s << "); pads belong at the row's tail";
          emit<T>(out, Code::kScatterLayout, static_cast<std::int64_t>(s), os);
          break;
        }
        if (c >= 0 && c < v.num_cols && c <= prev) {
          std::ostringstream os;
          os << "scatter row " << i << " columns not strictly ascending at "
             << "k=" << k << " (" << prev << " then " << c << ")";
          emit<T>(out, Code::kScatterLayout, static_cast<std::int64_t>(s), os);
          break;
        }
        prev = c;
      }
    }
  }

  // Padding content and scatter disjointness need a coherent value stream
  // and coherent tiling; skip them when the accounting above already failed.
  if (!dia_sized || !segments_positive || seg_cursor != total_segs) {
    return out;
  }

  std::vector<bool> is_scatter(static_cast<std::size_t>(v.num_rows), false);
  for (index_t i = 0; i < nsr; ++i) {
    const index_t r = v.scatter_rowno[static_cast<std::size_t>(i)];
    if (r >= 0 && r < v.num_rows) is_scatter[static_cast<std::size_t>(r)] = true;
  }

  size64_t slot = 0;
  index_t seg_base = 0;
  for (std::size_t p = 0; p < v.patterns.size(); ++p) {
    const DiagonalPattern& pat = v.patterns[p];
    for (index_t seg = 0; seg < pat.num_segments; ++seg) {
      const index_t row0 = (seg_base + seg) * v.mrows;
      for (index_t d = 0; d < pat.num_diagonals(); ++d) {
        const diag_offset_t off = pat.offsets[static_cast<std::size_t>(d)];
        for (index_t lane = 0; lane < v.mrows; ++lane, ++slot) {
          if (v.dia_val[slot] == T(0)) continue;
          if (out.size() >= 64) return out;  // bound a flood of bad slots
          const index_t r = row0 + lane;
          const std::int64_t c = static_cast<std::int64_t>(r) + off;
          if (r >= v.num_rows || c < 0 || c >= v.num_cols) {
            std::ostringstream os;
            os << "padding slot " << slot << " (pattern " << p << ", row " << r
               << ", col " << c << ") holds a nonzero value";
            emit<T>(out, Code::kValueStreamLength,
                    static_cast<std::int64_t>(slot), os);
          } else if (opts.require_scatter_disjoint &&
                     is_scatter[static_cast<std::size_t>(r)]) {
            std::ostringstream os;
            os << "scatter row " << r << " still owns a nonzero in the "
               << "diagonal stream (slot " << slot
               << "); its y entry is overwritten by the scatter phase";
            emit<T>(out, Code::kScatterOverlap,
                    static_cast<std::int64_t>(slot), os);
          }
        }
      }
    }
    seg_base += pat.num_segments;
  }
  return out;
}

}  // namespace detail

/// Validates a raw builder output (or hand-assembled mutation fixture):
/// first the encoded-stream integrity pass (u16 bounds and sizing), then —
/// when the streams decode at all — the structural
/// invariants over the decoded view.
template <Real T>
std::vector<Diagnostic> validate(const CrsdStorage<T>& s,
                                 const ValidateOptions& opts = {}) {
  std::vector<Diagnostic> out = detail::validate_streams(s);
  if (has_errors(out)) return out;  // decoding is undefined past this point
  std::vector<Diagnostic> more =
      detail::validate_view(detail::make_view(s), opts);
  out.insert(out.end(), more.begin(), more.end());
  return out;
}

/// Validates a constructed CrsdMatrix via its storage.
template <Real T>
std::vector<Diagnostic> validate(const CrsdMatrix<T>& m,
                                 const ValidateOptions& opts = {}) {
  return validate(m.storage(), opts);
}

/// Cross-checks a container against its source COO: every source entry must
/// be stored exactly once (in the diagonal stream for non-scatter rows, in
/// the scatter ELL for scatter rows), and no container nonzero may lack a
/// source entry. This is the end-to-end nnz-conservation proof that the
/// builder's placement passes dropped or invented nothing. Values compare exactly against
/// the source *as quantized by the storage precision* — f32 streams
/// legitimately round (and flush magnitudes below 2^-149 to zero), but any
/// deviation beyond that round-trip is corruption.
template <Real T>
std::vector<Diagnostic> validate_against(const CrsdMatrix<T>& m,
                                         const Coo<T>& a) {
  std::vector<Diagnostic> out;
  const ValuePrecision vp = m.value_precision();
  auto mismatch = [&out](std::int64_t where, const std::ostringstream& os) {
    if (out.size() >= 64) return;
    detail::emit<T>(out, Code::kNnzMismatch, where, os);
  };

  if (m.num_rows() != a.num_rows() || m.num_cols() != a.num_cols() ||
      m.nnz() != a.nnz()) {
    std::ostringstream os;
    os << "container is " << m.num_rows() << "x" << m.num_cols() << " with "
       << m.nnz() << " nnz; source COO is " << a.num_rows() << "x"
       << a.num_cols() << " with " << a.nnz() << " nnz";
    mismatch(-1, os);
    return out;
  }

  // Canonical COO has unique (r, c) keys; index them for O(1) lookup.
  std::unordered_map<size64_t, T> src;
  src.reserve(static_cast<std::size_t>(a.nnz()));
  const auto key = [&m](index_t r, std::int64_t c) {
    return static_cast<size64_t>(r) * static_cast<size64_t>(m.num_cols()) +
           static_cast<size64_t>(c);
  };
  for (size64_t k = 0; k < a.nnz(); ++k) {
    src.emplace(key(a.row_indices()[k], a.col_indices()[k]), a.values()[k]);
  }

  std::vector<bool> is_scatter(static_cast<std::size_t>(m.num_rows()), false);
  for (index_t r : m.scatter_rows()) {
    is_scatter[static_cast<std::size_t>(r)] = true;
  }

  // Diagonal stream: every nonzero slot must be a source entry (scatter-row
  // duplicates are checked by the structural scatter-overlap rule, not here).
  const std::vector<T> dia_vals = m.decoded_dia_values();
  const auto& patterns = m.patterns();
  size64_t slot = 0;
  index_t seg_base = 0;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const DiagonalPattern& pat = patterns[p];
    for (index_t seg = 0; seg < pat.num_segments; ++seg) {
      const index_t row0 = (seg_base + seg) * m.mrows();
      for (index_t d = 0; d < pat.num_diagonals(); ++d) {
        const diag_offset_t off = pat.offsets[static_cast<std::size_t>(d)];
        for (index_t lane = 0; lane < m.mrows(); ++lane, ++slot) {
          const T v = dia_vals[slot];
          if (v == T(0)) continue;
          const index_t r = row0 + lane;
          const std::int64_t c = static_cast<std::int64_t>(r) + off;
          if (r >= m.num_rows() || c < 0 || c >= m.num_cols()) continue;
          if (is_scatter[static_cast<std::size_t>(r)]) continue;
          const auto it = src.find(key(r, c));
          if (it == src.end()) {
            std::ostringstream os;
            os << "diagonal stream stores (" << r << ", " << c << ") = " << v
               << " but the source has no entry there";
            mismatch(static_cast<std::int64_t>(slot), os);
          } else if (storage_quantize(it->second, vp) != v) {
            std::ostringstream os;
            os << "diagonal stream stores (" << r << ", " << c << ") = " << v
               << ", source has " << it->second << " (quantized "
               << storage_quantize(it->second, vp) << ")";
            mismatch(static_cast<std::int64_t>(slot), os);
          } else {
            src.erase(it);
          }
        }
      }
    }
    seg_base += pat.num_segments;
  }

  // Scatter ELL: every filled slot must be a source entry.
  const std::vector<index_t> scatter_cols = m.decoded_scatter_col();
  const std::vector<T> scatter_vals = m.decoded_scatter_val();
  const index_t nsr = m.num_scatter_rows();
  for (index_t i = 0; i < nsr; ++i) {
    const index_t r = m.scatter_rows()[static_cast<std::size_t>(i)];
    for (index_t k = 0; k < m.scatter_width(); ++k) {
      const size64_t s =
          static_cast<size64_t>(k) * nsr + static_cast<size64_t>(i);
      const index_t c = scatter_cols[s];
      if (c == kInvalidIndex) continue;
      const T v = scatter_vals[s];
      const auto it = src.find(key(r, c));
      if (it == src.end()) {
        std::ostringstream os;
        os << "scatter ELL stores (" << r << ", " << c << ") = " << v
           << " but the source has no entry there";
        mismatch(static_cast<std::int64_t>(s), os);
      } else if (storage_quantize(it->second, vp) != v) {
        std::ostringstream os;
        os << "scatter ELL stores (" << r << ", " << c << ") = " << v
           << ", source has " << it->second << " (quantized "
           << storage_quantize(it->second, vp) << ")";
        mismatch(static_cast<std::int64_t>(s), os);
      } else {
        src.erase(it);
      }
    }
  }

  // Whatever survives in the map was dropped by the container. Entries whose
  // value quantizes to zero in the storage precision are legitimately
  // indistinguishable from fill (f32 flushes magnitudes below 2^-149).
  size64_t lost = 0;
  for (const auto& [kc, v] : src) {
    if (storage_quantize(v, vp) == T(0)) continue;
    ++lost;
    if (lost <= 4) {
      std::ostringstream os;
      os << "source entry (" << kc / static_cast<size64_t>(m.num_cols())
         << ", " << kc % static_cast<size64_t>(m.num_cols()) << ") = " << v
         << " is stored nowhere in the container";
      mismatch(-1, os);
    }
  }
  if (lost > 4) {
    std::ostringstream os;
    os << lost << " source entries are stored nowhere in the container";
    mismatch(-1, os);
  }
  return out;
}

/// Bitwise storage comparison over the *decoded* streams: every field and
/// array of the two containers must be identical, down to the bit pattern
/// of the (widened) value streams (memcmp, so -0.0 vs +0.0 and differing
/// NaN payloads count as mismatches). Comparing decoded streams makes the
/// oracle work across storage modes: a u16-encoded build compares
/// equal to an i32 build of the same content, and two builds of the same
/// precision compare equal iff their raw streams do (the narrowing casts
/// are injective). Tests use it to show that two routes to one container
/// (a value update against a fresh build, a serialization round trip, the
/// build facade against the builder it wraps) store the same bits in every
/// compaction mode; each difference is reported as a kStorageMismatch
/// diagnostic naming the field and the first offending index.
template <Real T>
std::vector<Diagnostic> validate_same_storage(const CrsdMatrix<T>& a,
                                              const CrsdMatrix<T>& b) {
  std::vector<Diagnostic> out;
  auto differ = [&out](std::int64_t where, const std::ostringstream& os) {
    detail::emit<T>(out, Code::kStorageMismatch, where, os);
  };
  auto cmp_scalar = [&differ](const char* name, auto va, auto vb) {
    if (va == vb) return;
    std::ostringstream os;
    os << name << " differs: " << va << " vs " << vb;
    differ(-1, os);
  };
  cmp_scalar("num_rows", a.num_rows(), b.num_rows());
  cmp_scalar("num_cols", a.num_cols(), b.num_cols());
  cmp_scalar("mrows", a.mrows(), b.mrows());
  cmp_scalar("nnz", a.nnz(), b.nnz());
  cmp_scalar("num_patterns", a.num_patterns(), b.num_patterns());
  cmp_scalar("scatter_width", a.scatter_width(), b.scatter_width());

  if (a.num_patterns() == b.num_patterns()) {
    for (index_t p = 0; p < a.num_patterns(); ++p) {
      const DiagonalPattern& pa = a.patterns()[static_cast<std::size_t>(p)];
      const DiagonalPattern& pb = b.patterns()[static_cast<std::size_t>(p)];
      if (pa.start_row != pb.start_row ||
          pa.num_segments != pb.num_segments || pa.offsets != pb.offsets ||
          pa.groups != pb.groups) {
        std::ostringstream os;
        os << "pattern " << p << " differs: " << pattern_to_string(pa)
           << " (start_row " << pa.start_row << ", " << pa.num_segments
           << " segs) vs " << pattern_to_string(pb) << " (start_row "
           << pb.start_row << ", " << pb.num_segments << " segs)";
        differ(static_cast<std::int64_t>(p), os);
      }
    }
  }

  auto cmp_array = [&differ](const char* name, const auto& va,
                             const auto& vb) {
    if (va.size() != vb.size()) {
      std::ostringstream os;
      os << name << " length differs: " << va.size() << " vs " << vb.size();
      differ(-1, os);
      return;
    }
    if (va.empty() ||
        std::memcmp(va.data(), vb.data(),
                    va.size() * sizeof(va.front())) == 0) {
      return;
    }
    for (std::size_t i = 0; i < va.size(); ++i) {
      if (std::memcmp(&va[i], &vb[i], sizeof(va[i])) != 0) {
        std::ostringstream os;
        os << name << "[" << i << "] differs bitwise: " << va[i] << " vs "
           << vb[i];
        differ(static_cast<std::int64_t>(i), os);
        return;  // first mismatch is enough; a flood adds nothing
      }
    }
  };
  const std::vector<T> dia_a = a.decoded_dia_values();
  const std::vector<T> dia_b = b.decoded_dia_values();
  const std::vector<index_t> col_a = a.decoded_scatter_col();
  const std::vector<index_t> col_b = b.decoded_scatter_col();
  const std::vector<T> sval_a = a.decoded_scatter_val();
  const std::vector<T> sval_b = b.decoded_scatter_val();
  cmp_array("dia_val", dia_a, dia_b);
  cmp_array("scatter_rowno", a.scatter_rows(), b.scatter_rows());
  cmp_array("scatter_col", col_a, col_b);
  cmp_array("scatter_val", sval_a, sval_b);
  return out;
}

/// Throws crsd::Error with the full report when validation finds any error.
/// The builder runs this under debug (see CRSD_VALIDATE_BUILD).
template <Real T>
void validate_or_throw(const CrsdMatrix<T>& m, const Coo<T>* source = nullptr,
                       const ValidateOptions& opts = {}) {
  std::vector<Diagnostic> diags = validate(m, opts);
  if (source != nullptr) {
    std::vector<Diagnostic> vs = validate_against(m, *source);
    diags.insert(diags.end(), vs.begin(), vs.end());
  }
  if (has_errors(diags)) {
    throw Error("CRSD validation failed:\n" + format_diagnostics(diags));
  }
}

}  // namespace crsd::check
