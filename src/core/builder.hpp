// CRSD builder (§II-C): row segmentation, per-diagonal live-run discovery
// with idle-section fill/break decisions, scatter-row extraction, and value
// placement.
//
// Liveness is decided per (diagonal, segment):
//  1. Anchor: the diagonal has >= live_min_nnz nonzeros in the segment and
//     occupancy >= live_min_fill of the lanes it covers there.
//  2. Ragged-edge extension: a segment holding >= 1 nonzero of the diagonal
//     next to an anchor segment is absorbed by zero-filling the holes (the
//     paper's "few zeros -> fill", e.g. the v43 fill in Fig. 2).
//  3. Gap bridging: a run of <= fill_max_gap_segments dead segments between
//     two live runs is zero-filled so the diagonal stays unbroken; longer
//     gaps are idle sections and the diagonal is broken into two patterns
//     (Fig. 3: the ±200 diagonals break instead of filling).
// Every nonzero not covered by a live diagonal is a scatter point; the whole
// row containing it moves to the ELL-format scatter side matrix (§II-D).
//
// Construction runs linear passes, O(1) work per nonzero. Pass 1 counts
// each segment's offsets in a flat hash table and keeps only the keys that
// can become live: anchors and keys next to an anchor of their diagonal.
// One forward walk per row then resolves every nonzero's diagonal once,
// placing its value, flagging scatter rows and recording their COO ranges.
//
// An overflow guard refuses matrices whose nnz, per-segment value-slot
// count, or scatter-ELL slot count exceeds index_t range, throwing a
// structured check::DiagnosticError (code index-overflow) instead of
// silently truncating downstream index arithmetic.
#pragma once

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "core/offset_table.hpp"
#include "core/storage_mode.hpp"
#include "matrix/coo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Debug builds (and any build defining CRSD_VALIDATE_BUILD) run the full
// invariant validator on every built matrix, including the nnz-conservation
// cross-check against the source COO. Release builds skip it: construction
// already enforces the cheap structural checks, and the validator's full
// slot walk would change builder complexity.
#if defined(CRSD_VALIDATE_BUILD) || !defined(NDEBUG)
#include "check/validate.hpp"
#define CRSD_VALIDATE_BUILD_ENABLED 1
#endif

namespace crsd {

/// Tuning knobs for CRSD construction.
struct CrsdConfig {
  /// Row segment size (paper's mrows). On the simulated GPU this must be a
  /// multiple of the wavefront size; the CPU path accepts any value >= 1.
  index_t mrows = 64;

  /// A diagonal with fewer nonzeros than this inside a row segment cannot
  /// anchor a live run (the paper treats a single nonzero per segment as a
  /// scatter point, i.e. a threshold of 2).
  index_t live_min_nnz = 2;

  /// Minimum occupancy (nnz / covered lanes) for a segment to anchor a live
  /// run. Lower values tolerate more zero-fill inside a segment.
  double live_min_fill = 0.5;

  /// Absorb segments with >= 1 nonzero adjacent to an anchor run.
  bool extend_ragged_edges = true;

  /// Zero-fill dead gaps of at most this many segments between two live runs
  /// of the same diagonal; longer gaps break the diagonal (idle sections).
  index_t fill_max_gap_segments = 1;

  /// Zero out diagonal-part slots belonging to scatter rows. The scatter
  /// phase overwrites y for those rows either way; zeroing keeps the value
  /// stream clean and makes fill statistics meaningful.
  bool zero_scatter_rows_in_dia = true;

  /// Storage compaction applied as pass 7 after construction: value-stream
  /// precision and scatter-index representation (core/storage_mode.hpp).
  /// Defaults keep the historical fp64/i32 layout bit for bit.
  StorageOptions storage = {};
};

namespace detail {

/// Per-diagonal occupancy of one row segment.
struct DiagSegCount {
  diag_offset_t off = 0;
  index_t seg = 0;
  index_t count = 0;
};

/// Lanes of segment `seg` that diagonal `off` covers (intersection of the
/// diagonal's row range with the segment's rows).
inline index_t covered_lanes(index_t seg, diag_offset_t off, index_t num_rows,
                             index_t num_cols, index_t mrows) {
  const index_t row0 = seg * mrows;
  const index_t row1 = std::min<index_t>(num_rows, row0 + mrows);
  const index_t lo = std::max<index_t>(row0, off < 0 ? -off : 0);
  const std::int64_t hi = std::min<std::int64_t>(
      row1, static_cast<std::int64_t>(num_cols) - off);
  return hi > lo ? static_cast<index_t>(hi - lo) : 0;
}

/// Rule 1 of the header comment: does key `c` anchor a live run?
inline bool anchors(const DiagSegCount& c, const CrsdConfig& cfg,
                    index_t num_rows, index_t num_cols) {
  return c.count >= cfg.live_min_nnz &&
         double(c.count) >=
             cfg.live_min_fill * double(covered_lanes(c.seg, c.off, num_rows,
                                                      num_cols, cfg.mrows));
}

/// Live-run discovery for one diagonal — anchors, ragged-edge extension,
/// and gap bridging exactly as the header comment describes. counts[i, j)
/// all carry the same offset, ascending by segment. Appends the diagonal's
/// final live segments (ascending, bridges included) to `final_segs`.
inline void live_segments_for_diagonal(const std::vector<DiagSegCount>& counts,
                                       std::size_t i, std::size_t j,
                                       const CrsdConfig& cfg, index_t num_rows,
                                       index_t num_cols,
                                       std::vector<index_t>& final_segs) {
  const std::size_t m = j - i;

  // Anchor segments of this diagonal.
  std::vector<bool> is_live(m, false);
  for (std::size_t e = 0; e < m; ++e) {
    is_live[e] = anchors(counts[i + e], cfg, num_rows, num_cols);
  }
  // Ragged-edge extension: entries with >= 1 nonzero whose neighbouring
  // segment anchors a run.
  if (cfg.extend_ragged_edges) {
    std::vector<bool> extended = is_live;
    for (std::size_t e = 0; e < m; ++e) {
      if (is_live[e]) continue;
      const bool prev_adj = e > 0 &&
                            counts[i + e - 1].seg + 1 == counts[i + e].seg &&
                            is_live[e - 1];
      const bool next_adj = e + 1 < m &&
                            counts[i + e].seg + 1 == counts[i + e + 1].seg &&
                            is_live[e + 1];
      if (prev_adj || next_adj) extended[e] = true;
    }
    is_live = std::move(extended);
  }

  // Gather live segments, then bridge short dead gaps between them.
  std::vector<index_t> live_segs;
  for (std::size_t e = 0; e < m; ++e) {
    if (is_live[e]) live_segs.push_back(counts[i + e].seg);
  }
  for (std::size_t e = 0; e < live_segs.size(); ++e) {
    if (!final_segs.empty() && e > 0) {
      const index_t gap = live_segs[e] - final_segs.back() - 1;
      if (gap > 0 && gap <= cfg.fill_max_gap_segments) {
        for (index_t s = final_segs.back() + 1; s < live_segs[e]; ++s) {
          final_segs.push_back(s);  // zero-filled bridge segment
        }
      }
    }
    final_segs.push_back(live_segs[e]);
  }
}

/// Overflow guard: quantities the container and its kernels index with
/// index_t must fit its range. `max_index` is injectable so tests can
/// exercise the guard without allocating 2^31-slot matrices. `patterns`
/// may be null for the entry check that runs before structure discovery.
inline std::vector<check::Diagnostic> check_build_limits(
    size64_t nnz, index_t mrows, const std::vector<DiagonalPattern>* patterns,
    size64_t num_scatter_rows, size64_t scatter_width,
    size64_t max_index =
        static_cast<size64_t>(std::numeric_limits<index_t>::max())) {
  std::vector<check::Diagnostic> out;
  auto flag = [&out, max_index](size64_t value, std::int64_t where,
                                const std::string& what) {
    check::Diagnostic d;
    d.code = check::Code::kIndexOverflow;
    d.offset = where;
    d.message = what + " = " + std::to_string(value) +
                " exceeds the index_t range limit " + std::to_string(max_index);
    out.push_back(std::move(d));
  };
  if (nnz > max_index) flag(nnz, -1, "nnz");
  if (patterns != nullptr) {
    for (std::size_t p = 0; p < patterns->size(); ++p) {
      const size64_t slots = (*patterns)[p].slots_per_segment(mrows);
      if (slots > max_index) {
        flag(slots, static_cast<std::int64_t>(p),
             "per-segment value slots of pattern " + std::to_string(p));
      }
    }
  }
  const size64_t ell_slots = num_scatter_rows * scatter_width;
  if (ell_slots > max_index) flag(ell_slots, -1, "scatter ELL slots");
  return out;
}

/// Throws check::DiagnosticError when the guard flagged anything.
inline void throw_on_limit_overflow(std::vector<check::Diagnostic> diags) {
  if (diags.empty()) return;
  throw check::DiagnosticError(
      "CRSD build would overflow index_t:\n" + check::format_diagnostics(diags),
      std::move(diags));
}

/// Construction in linear passes, O(1) work per nonzero. The golden
/// construction test (tests/build_golden_test.cpp) pins its storage to
/// recorded constants.
template <Real T>
CrsdStorage<T> build_storage_serial(const Coo<T>& a, const CrsdConfig& cfg) {
  const index_t n = a.num_rows();
  const index_t mrows = cfg.mrows;
  const index_t num_segments = (n + mrows - 1) / mrows;
  const size64_t nnz = a.nnz();
  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();

  // Pass 1: per-(diagonal, segment) nonzero counts. The input is
  // row-sorted, so each segment's nonzeros are contiguous and are counted
  // in a flat table. Only two kinds of key can end up live: anchors, and
  // keys next to an anchor of their diagonal (ragged extension; bridges
  // join live segments only). So a segment's keys are kept only when their
  // offset anchors in the segment or a neighbour, which needs the next
  // segment counted first; the kept keys are bucketed by diagonal in
  // segment order. Every other key — almost every scattered nonzero's —
  // is dropped.
  std::vector<DiagSegCount> counts;
  {
    obs::Span span("build/pass1_diag_counts", "segments", num_segments);
    OffsetTable seg_count, prev_count;  // counts of segments s and s - 1
    OffsetTable anch_prev2, anch_prev, anch;  // anchors of s - 2, s - 1, s
    OffsetTable bucket_of;                    // kept offset -> bucket
    std::vector<std::vector<DiagSegCount>> bucket;
    auto keep_prev = [&](index_t seg) {  // seg = s - 1, counted in prev_count
      if (anch_prev2.size() + anch_prev.size() + anch.size() == 0) return;
      prev_count.for_each([&](diag_offset_t off, size64_t cnt) {
        if (!anch_prev.find(off) && !anch_prev2.find(off) && !anch.find(off)) {
          return;
        }
        const std::size_t buckets = bucket_of.size();
        size64_t& b = bucket_of[off];
        if (bucket_of.size() != buckets) {
          b = bucket.size();
          bucket.emplace_back();
        }
        bucket[b].push_back({off, seg, static_cast<index_t>(cnt)});
      });
    };
    size64_t k = 0;
    for (index_t seg = 0; seg <= num_segments; ++seg) {
      seg_count.clear();
      anch.clear();
      if (seg < num_segments) {
        const index_t row1 = std::min<index_t>(n, (seg + 1) * mrows);
        for (; k < nnz && rows[k] < row1; ++k) ++seg_count[cols[k] - rows[k]];
        seg_count.for_each([&](diag_offset_t off, size64_t cnt) {
          if (anchors({off, seg, static_cast<index_t>(cnt)}, cfg, n,
                      a.num_cols())) {
            anch[off];
          }
        });
      }
      if (seg > 0) keep_prev(seg - 1);
      std::swap(prev_count, seg_count);
      std::swap(anch_prev2, anch_prev);
      std::swap(anch_prev, anch);
    }
    std::vector<std::pair<diag_offset_t, size64_t>> diags;
    diags.reserve(bucket_of.size());
    bucket_of.for_each(
        [&diags](diag_offset_t off, size64_t b) { diags.emplace_back(off, b); });
    std::sort(diags.begin(), diags.end());
    for (const auto& [off, b] : diags) {
      counts.insert(counts.end(), bucket[b].begin(), bucket[b].end());
    }
  }

  // Pass 2: per-diagonal live runs -> live offset set per segment. Diagonals
  // arrive in ascending offset order, so every set comes out ascending.
  std::vector<std::vector<diag_offset_t>> live(
      static_cast<std::size_t>(num_segments));
  {
    obs::Span span("build/pass2_live_runs");
    std::size_t i = 0;
    std::vector<index_t> final_segs;
    while (i < counts.size()) {
      std::size_t j = i;
      while (j < counts.size() && counts[j].off == counts[i].off) ++j;
      final_segs.clear();
      live_segments_for_diagonal(counts, i, j, cfg, n, a.num_cols(),
                                 final_segs);
      for (index_t s : final_segs) {
        live[static_cast<std::size_t>(s)].push_back(counts[i].off);
      }
      i = j;
    }
  }

  // Pass 3: merge equal consecutive live sets into diagonal patterns.
  CrsdStorage<T> storage;
  storage.num_rows = n;
  storage.num_cols = a.num_cols();
  storage.mrows = mrows;
  storage.nnz = nnz;
  {
    obs::Span span("build/pass3_coalesce");
    storage.patterns = coalesce_live_sets(live, mrows);
    span.set_arg("patterns",
                 static_cast<std::int64_t>(storage.patterns.size()));
  }
  throw_on_limit_overflow(
      check_build_limits(nnz, mrows, &storage.patterns, 0, 0));

  // Pass 4: one forward walk per row. A row's offsets ascend (canonical
  // COO) like its pattern's, so one cursor resolves each nonzero's diagonal
  // index once. The walk places the values and flags a row as scatter when
  // one of its nonzeros is on no live diagonal; such a row is recorded with
  // its COO range and, with zero_scatter_rows_in_dia, its lane is cleared
  // again (the scatter phase recomputes the whole row, §II-D).
  obs::Span pass4_span("build/pass4_walk_rows");
  std::vector<std::pair<size64_t, size64_t>> scatter_range;
  {
    size64_t dia_slots = 0;
    for (const auto& pat : storage.patterns) {
      dia_slots += static_cast<size64_t>(pat.num_segments) *
                   pat.slots_per_segment(mrows);
    }
    storage.dia_val.assign(dia_slots, T(0));
  }
  {
    T* dia = storage.dia_val.data();
    size64_t seg_base = 0;
    size64_t k = 0;
    for (const auto& pat : storage.patterns) {
      const diag_offset_t* offs = pat.offsets.data();
      const std::size_t nd = pat.offsets.size();
      for (index_t s = 0; s < pat.num_segments; ++s) {
        const index_t row0 = pat.start_row + s * mrows;
        const index_t row1 = row0 + std::min<index_t>(mrows, n - row0);
        while (k < nnz && rows[k] < row1) {
          const index_t r = rows[k];
          T* lane = dia + seg_base + static_cast<size64_t>(r - row0);
          const size64_t row_begin = k;
          bool scatter = false;
          std::size_t d = 0;
          for (; k < nnz && rows[k] == r; ++k) {
            const diag_offset_t off = cols[k] - r;
            while (d < nd && offs[d] < off) ++d;
            if (d < nd && offs[d] == off) {
              lane[d * static_cast<size64_t>(mrows)] = vals[k];
            } else {
              scatter = true;
            }
          }
          if (!scatter) continue;
          storage.scatter_rowno.push_back(r);
          scatter_range.emplace_back(row_begin, k);
          storage.scatter_width = std::max(
              storage.scatter_width, static_cast<index_t>(k - row_begin));
          if (cfg.zero_scatter_rows_in_dia) {
            for (std::size_t e = 0; e < nd; ++e) {
              lane[e * static_cast<size64_t>(mrows)] = T(0);
            }
          }
        }
        seg_base += pat.slots_per_segment(mrows);
      }
    }
  }
  const index_t nsr = static_cast<index_t>(storage.scatter_rowno.size());
  pass4_span.set_arg("scatter_rows", nsr);
  pass4_span.end();

  // Pass 5: scatter ELL from the recorded ranges (whole rows in COO order,
  // §II-D: the FP operation order of those rows is preserved by
  // recomputing them entirely in the scatter phase).
  obs::Span pass5_span("build/pass5_scatter_ell");
  throw_on_limit_overflow(
      check_build_limits(nnz, mrows, nullptr, static_cast<size64_t>(nsr),
                         static_cast<size64_t>(storage.scatter_width)));
  const size64_t ell_slots = static_cast<size64_t>(storage.scatter_width) * nsr;
  storage.scatter_col.assign(ell_slots, kInvalidIndex);
  storage.scatter_val.assign(ell_slots, T(0));
  for (index_t i = 0; i < nsr; ++i) {
    const auto [begin, end] = scatter_range[static_cast<std::size_t>(i)];
    for (size64_t k = begin; k < end; ++k) {
      const size64_t slot =
          (k - begin) * static_cast<size64_t>(nsr) + static_cast<size64_t>(i);
      storage.scatter_col[slot] = cols[k];
      storage.scatter_val[slot] = vals[k];
    }
  }
  pass5_span.end();
  return storage;
}

/// Pass 7: storage compaction (core/storage_mode.hpp). Always records the
/// per-pattern index width — entries are narrowable to 2 bytes when the
/// pattern's diagonal offsets fit int16 and its segment/start-row counters
/// fit uint16 (diagonal addressing stores offsets, not absolute columns,
/// which is what makes this possible on banded matrices) — then re-encodes
/// the value streams and scatter columns as requested.
template <Real T>
void compact_storage(CrsdStorage<T>& storage, const StorageOptions& opts) {
  const index_t mrows = storage.mrows;
  const index_t total_segments =
      mrows == 0 ? 0 : (storage.num_rows + mrows - 1) / mrows;
  storage.pattern_index_width.clear();
  storage.pattern_index_width.reserve(storage.patterns.size());
  for (const auto& p : storage.patterns) {
    bool narrow = total_segments <= 0xffff;
    for (const diag_offset_t off : p.offsets) {
      if (off < -32768 || off > 32767) {
        narrow = false;
        break;
      }
    }
    storage.pattern_index_width.push_back(narrow ? 2 : 4);
  }

  ValuePrecision target = opts.value_precision;
  // f32 storage of a float matrix *is* the native stream.
  if (std::is_same_v<T, float> && target == ValuePrecision::kFloat32) {
    target = ValuePrecision::kNative;
  }
  switch (target) {
    case ValuePrecision::kNative:
      break;
    case ValuePrecision::kFloat32:
      storage.dia_val_f32.resize(storage.dia_val.size());
      for (size64_t i = 0; i < storage.dia_val.size(); ++i) {
        storage.dia_val_f32[i] = static_cast<float>(storage.dia_val[i]);
      }
      storage.scatter_val_f32.resize(storage.scatter_val.size());
      for (size64_t i = 0; i < storage.scatter_val.size(); ++i) {
        storage.scatter_val_f32[i] =
            static_cast<float>(storage.scatter_val[i]);
      }
      std::vector<T>().swap(storage.dia_val);
      std::vector<T>().swap(storage.scatter_val);
      break;
  }
  storage.value_precision = target;

  if (opts.narrow_scatter_indices && storage.num_cols <= 0xffff) {
    // Falls through (keeping i32) when the column count does not allow u16.
    storage.scatter_col16.resize(storage.scatter_col.size());
    for (size64_t i = 0; i < storage.scatter_col.size(); ++i) {
      storage.scatter_col16[i] =
          storage.scatter_col[i] == kInvalidIndex
              ? kScatterPad16
              : static_cast<std::uint16_t>(storage.scatter_col[i]);
    }
    std::vector<index_t>().swap(storage.scatter_col);
    storage.scatter_index_mode = ScatterIndexMode::kIndex16;
  }
}

}  // namespace detail

namespace detail {

/// Builds a CRSD matrix from canonical COO. Implementation behind
/// crsd::build (core/build_api.hpp).
template <Real T>
CrsdMatrix<T> build_crsd_impl(const Coo<T>& a, const CrsdConfig& cfg = {}) {
  obs::Span span("build/build_crsd", "nnz",
                 static_cast<std::int64_t>(a.nnz()));
  CRSD_CHECK_MSG(a.is_canonical(), "CRSD requires canonical COO input");
  CRSD_CHECK_MSG(a.num_rows() >= 1 && a.num_cols() >= 1,
                 "CRSD requires a non-empty matrix");
  CRSD_CHECK_MSG(cfg.mrows >= 1, "mrows must be >= 1");
  CRSD_CHECK_MSG(cfg.live_min_nnz >= 1, "live_min_nnz must be >= 1");
  CRSD_CHECK_MSG(cfg.live_min_fill >= 0.0 && cfg.live_min_fill <= 1.0,
                 "live_min_fill must be in [0,1]");
  CRSD_CHECK_MSG(cfg.fill_max_gap_segments >= 0,
                 "fill_max_gap_segments must be >= 0");
  detail::throw_on_limit_overflow(
      detail::check_build_limits(a.nnz(), cfg.mrows, nullptr, 0, 0));

  CrsdStorage<T> storage = detail::build_storage_serial(a, cfg);

  {
    obs::Span pass7_span("build/pass7_compact");
    detail::compact_storage(storage, cfg.storage);
    pass7_span.set_arg("value_precision",
                       static_cast<std::int64_t>(storage.value_precision));
    pass7_span.set_arg("index_mode",
                       static_cast<std::int64_t>(storage.scatter_index_mode));
  }

  CrsdMatrix<T> m(std::move(storage));
  obs::Registry::global()
      .gauge("crsd.storage.bytes_per_nnz")
      .set(m.nnz() == 0
               ? 0.0
               : static_cast<double>(m.footprint_bytes()) /
                     static_cast<double>(m.nnz()));
#if defined(CRSD_VALIDATE_BUILD_ENABLED)
  check::ValidateOptions vopts;
  vopts.require_scatter_disjoint = cfg.zero_scatter_rows_in_dia;
  check::validate_or_throw(m, &a, vopts);
#endif
  return m;
}

}  // namespace detail

}  // namespace crsd
