// Static kernel-access analyzer for CRSD GPU launches.
//
// Two passes over the abstract LaunchModel (launch_model.hpp):
//
//  * analyze_model — the prover. Walks the per-pattern interval domains of
//    every address stream the kernel issues and proves or refutes, without
//    executing anything: (a) global bounds safety of the value / x / y /
//    index / scatter streams, including the clamped x block-reads; (b)
//    y-write race-freedom across work-groups; (c) barrier uniformity of the
//    local-memory staging path; (d) local-memory window fit and
//    read-within-window containment. Everything reported here is a
//    proof over the model, not an observation of a run: the streams are
//    affine in the group id and diagonal index, so their interval images
//    are exact (interval.hpp).
//
//  * predict_crsd_counters — the coalescing report. Replays the kernel's
//    access sequence through the real gpusim machinery (WorkGroupCtx +
//    per-CU ReadOnlyCache against the model's virtual buffer addresses) in
//    the executor's round-robin group order, but touches only metadata:
//    every address the kernel issues is metadata-determined, so the
//    predicted transaction counters equal the simulator's measured counters
//    for a launch on a fresh Device. The only value-dependent quantity in
//    the real kernel is the flops/alu *split* in the diagonal phase (filled
//    zeros count as alu, not flops); their sum per diagonal is exactly
//    2*mrows, which is what the timing model consumes, so predicted seconds
//    are exact too.
//
// The prover checks properties; the replay assumes the clean kernel (it
// always models the clamped, uniform-barrier control flow). Planted model
// defects therefore change diagnostics, never counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "analysis/launch_model.hpp"
#include "check/diagnostics.hpp"
#include "common/types.hpp"
#include "core/storage_mode.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/workgroup.hpp"

namespace crsd::analysis {

// ---------------------------------------------------------------------------
// Coalescing report types.

/// DRAM traffic attributed to one diagonal pattern (or the scatter phase,
/// pattern == -1): what the kernel's groups of that pattern load/store after
/// coalescing, and how well their wavefronts coalesce.
struct PatternTraffic {
  index_t pattern = -1;
  size64_t load_transactions = 0;
  size64_t store_transactions = 0;
  size64_t cache_hits = 0;
  size64_t cache_misses = 0;
  size64_t wavefronts = 0;

  double transactions_per_wavefront() const {
    return wavefronts == 0 ? 0.0
                           : double(load_transactions + store_transactions) /
                                 double(wavefronts);
  }
};

/// Statically derived launch counters plus the per-pattern breakdown and the
/// timing-model seconds they imply.
struct CoalescingReport {
  gpusim::Counters counters;
  std::vector<PatternTraffic> per_pattern;
  double predicted_seconds = 0.0;
};

/// Full analyzer output for one launch.
struct AnalysisReport {
  std::vector<check::Diagnostic> diagnostics;
  CoalescingReport coalescing;

  bool clean() const { return diagnostics.empty(); }
};

// ---------------------------------------------------------------------------
// The prover.

namespace detail {

inline check::Diagnostic make_diag(check::Code code, Buf buf,
                                   index_t pattern, const std::string& msg) {
  check::Diagnostic d;
  d.code = code;
  d.severity = check::Severity::kError;
  d.kernel = pattern < 0 ? "crsd_spmv_scatter" : "crsd_spmv_diag";
  d.group = pattern;
  d.buffer = static_cast<int>(buf);
  d.message = msg;
  return d;
}

/// Lanes of the last (possibly short) segment the pattern owns.
inline index_t last_segment_lanes(const LaunchModel& lm,
                                  const PatternModel& pm) {
  const index_t row0 = (pm.seg_end - 1) * lm.mrows;
  return std::min<index_t>(lm.mrows, lm.num_rows - row0);
}

/// Interval of x indices diagonal `d` of pattern `pm` touches across all of
/// the pattern's segments, before any clamp: row0 + lane + off for
/// row0 in {seg_begin*mrows, ..}, lane in [0, lanes).
inline Interval x_read_interval(const LaunchModel& lm, const PatternModel& pm,
                                diag_offset_t off) {
  const std::int64_t lo =
      static_cast<std::int64_t>(pm.seg_begin) * lm.mrows + off;
  const std::int64_t hi =
      static_cast<std::int64_t>(pm.seg_end - 1) * lm.mrows +
      last_segment_lanes(lm, pm) - 1 + off;
  return Interval{lo, hi};
}

}  // namespace detail

/// Proves or refutes the launch's safety properties. Returns the empty
/// vector iff every property holds; otherwise one Diagnostic per refuted
/// property, tagged with the detector Code, the kernel phase, the pattern
/// (Diagnostic::group) and the buffer (Diagnostic::buffer as Buf).
inline std::vector<check::Diagnostic> analyze_model(const LaunchModel& lm) {
  std::vector<check::Diagnostic> diags;
  const Interval cols{0, lm.num_cols - 1};
  const Interval rows{0, lm.num_rows - 1};

  auto report = [&diags](check::Code code, Buf buf, index_t pattern,
                         const std::ostringstream& os) {
    diags.push_back(detail::make_diag(code, buf, pattern, os.str()));
  };

  // --- Diagonal phase, per pattern -------------------------------------
  index_t expect_seg = 0;
  for (const PatternModel& pm : lm.patterns) {
    const index_t ndias = pm.num_diagonals();
    const index_t lanes_last = detail::last_segment_lanes(lm, pm);

    // Segment tiling: patterns must cover [0, num_segments) contiguously;
    // an overlap means two work-groups write the same y rows.
    if (pm.seg_begin != expect_seg || pm.seg_end <= pm.seg_begin) {
      std::ostringstream os;
      os << "pattern " << pm.pattern << " owns segments [" << pm.seg_begin
         << ", " << pm.seg_end << ") but the previous pattern ended at "
         << expect_seg << "; y rows are "
         << (pm.seg_begin < expect_seg ? "written twice" : "left uncovered");
      report(pm.seg_begin < expect_seg ? check::Code::kWriteConflict
                                       : check::Code::kGlobalOutOfBounds,
             Buf::kY, pm.pattern, os);
    }
    expect_seg = std::max(expect_seg, pm.seg_end);

    // Value stream: top slot touched is the last diagonal's last lane of
    // the pattern's last segment.
    {
      const std::int64_t top =
          static_cast<std::int64_t>(pm.value_offset) +
          static_cast<std::int64_t>(pm.seg_end - pm.seg_begin - 1) *
              static_cast<std::int64_t>(pm.slots_per_segment) +
          static_cast<std::int64_t>(ndias - 1) * lm.mrows + lanes_last - 1;
      const std::int64_t top_byte = (top + 1) * lm.value_bytes;
      if (top_byte > static_cast<std::int64_t>(lm.buffer(Buf::kDiaVal).bytes)) {
        std::ostringstream os;
        os << "pattern " << pm.pattern << " value stream reads slot " << top
           << " (" << top_byte << " bytes) beyond the dia_val allocation of "
           << lm.buffer(Buf::kDiaVal).bytes << " bytes";
        report(check::Code::kGlobalOutOfBounds, Buf::kDiaVal, pm.pattern, os);
      }
    }

    // Pattern-index metadata (interpreted kernel streams it per group).
    if (!lm.jit_codelet) {
      const std::int64_t idx_bytes =
          static_cast<std::int64_t>(ndias + 2) * pm.index_width;
      if (idx_bytes > static_cast<std::int64_t>(lm.buffer(Buf::kIndex).bytes)) {
        std::ostringstream os;
        os << "pattern " << pm.pattern << " index read of " << idx_bytes
           << " bytes exceeds the dia_index allocation of "
           << lm.buffer(Buf::kIndex).bytes << " bytes";
        report(check::Code::kGlobalOutOfBounds, Buf::kIndex, pm.pattern, os);
      }
    }

    // x reads, per group/diagonal. The clamped kernel is safe by the
    // clamp's transfer function; the unclamped variant must be refuted
    // whenever any diagonal's raw interval escapes [0, num_cols).
    for (const GroupModel& gm : pm.groups) {
      const bool staged =
          lm.use_local_memory && gm.adjacent && gm.num_diagonals >= 2;
      if (staged) {
        // Staged window: [row0 + first, row0 + first + lanes + nd - 2].
        const diag_offset_t first =
            pm.offsets[static_cast<std::size_t>(gm.first_diagonal)];
        const Interval raw =
            detail::x_read_interval(lm, pm, first)
                .join(detail::x_read_interval(
                    lm, pm,
                    static_cast<diag_offset_t>(first + gm.num_diagonals - 1)));
        const Interval eff = pm.clamp_x ? raw.clamped(0, lm.num_cols - 1) : raw;
        if (!cols.contains(eff)) {
          std::ostringstream os;
          os << "pattern " << pm.pattern << " staged x window reads "
             << eff.str() << " outside [0, " << lm.num_cols << ")";
          report(check::Code::kGlobalOutOfBounds, Buf::kX, pm.pattern, os);
        }
        // Local window fit and read containment.
        const std::int64_t window_bytes =
            (static_cast<std::int64_t>(lm.mrows) + gm.num_diagonals - 1) *
            lm.vec_bytes;
        if (window_bytes >
            static_cast<std::int64_t>(lm.spec.local_mem_bytes_per_cu)) {
          std::ostringstream os;
          os << "pattern " << pm.pattern << " AD staging window of "
             << window_bytes << " bytes exceeds local memory ("
             << lm.spec.local_mem_bytes_per_cu << " bytes per CU)";
          report(check::Code::kLocalOutOfBounds, Buf::kX, pm.pattern, os);
        }
        // Diagonal gd reads window bytes [gd, gd + lanes) * vec_bytes; the
        // write covers [0, lanes + nd - 1) * vec_bytes, so containment
        // holds for every gd < nd. Prove it via the interval image.
        const Interval written{0, (static_cast<std::int64_t>(lm.mrows) +
                                   gm.num_diagonals - 1) *
                                          lm.vec_bytes -
                                      1};
        const Interval read{0, (static_cast<std::int64_t>(gm.num_diagonals) -
                                1 + lm.mrows) *
                                       lm.vec_bytes -
                                   1};
        if (!written.contains(read)) {
          std::ostringstream os;
          os << "pattern " << pm.pattern << " local read " << read.str()
             << " escapes the staged window " << written.str();
          report(check::Code::kLocalOutOfBounds, Buf::kX, pm.pattern, os);
        }
        // Barrier uniformity: the staging barriers must be reached by the
        // whole work-group.
        if (gm.barrier_participating >= 0 &&
            gm.barrier_participating != lm.mrows) {
          std::ostringstream os;
          os << "pattern " << pm.pattern << " staging barrier reached by "
             << gm.barrier_participating << " of " << lm.mrows
             << " work-items";
          report(check::Code::kBarrierDivergence, Buf::kX, pm.pattern, os);
        }
      } else {
        for (index_t gd = 0; gd < gm.num_diagonals; ++gd) {
          const diag_offset_t off =
              pm.offsets[static_cast<std::size_t>(gm.first_diagonal + gd)];
          const Interval raw = detail::x_read_interval(lm, pm, off);
          const Interval eff =
              pm.clamp_x ? raw.clamped(0, lm.num_cols - 1) : raw;
          if (!cols.contains(eff)) {
            std::ostringstream os;
            os << "pattern " << pm.pattern << " diagonal offset " << off
               << " reads x" << eff.str() << " outside [0, " << lm.num_cols
               << ")" << (pm.clamp_x ? "" : " (unclamped)");
            report(check::Code::kGlobalOutOfBounds, Buf::kX, pm.pattern, os);
          }
        }
      }
    }

    // y writes: [seg_begin*mrows, (seg_end-1)*mrows + lanes_last).
    {
      const Interval w{static_cast<std::int64_t>(pm.seg_begin) * lm.mrows,
                       static_cast<std::int64_t>(pm.seg_end - 1) * lm.mrows +
                           lanes_last - 1};
      if (!rows.contains(w)) {
        std::ostringstream os;
        os << "pattern " << pm.pattern << " writes y" << w.str()
           << " outside [0, " << lm.num_rows << ")";
        report(check::Code::kGlobalOutOfBounds, Buf::kY, pm.pattern, os);
      }
    }
  }
  if (expect_seg != lm.num_segments && !lm.patterns.empty()) {
    std::ostringstream os;
    os << "patterns cover segments [0, " << expect_seg << ") of "
       << lm.num_segments << "; trailing y rows are never written";
    report(check::Code::kGlobalOutOfBounds, Buf::kY,
           lm.patterns.back().pattern, os);
  }

  // --- Scatter phase ----------------------------------------------------
  const ScatterModel& sc = lm.scatter;
  if (sc.num_scatter_rows > 0) {
    // Race freedom: each scatter row has exactly one writer work-item, so
    // the row numbers must be pairwise distinct (ascending makes the check
    // linear and matches the container invariant).
    for (index_t i = 0; i + 1 < sc.num_scatter_rows; ++i) {
      if (sc.rowno[static_cast<std::size_t>(i)] >=
          sc.rowno[static_cast<std::size_t>(i + 1)]) {
        std::ostringstream os;
        os << "scatter rows " << i << " and " << i + 1
           << " both target y row " << sc.rowno[static_cast<std::size_t>(i)]
           << " (duplicate writers race on the overwrite)";
        report(check::Code::kWriteConflict, Buf::kY, -1, os);
        break;
      }
    }
    for (index_t i = 0; i < sc.num_scatter_rows; ++i) {
      const index_t r = sc.rowno[static_cast<std::size_t>(i)];
      if (r < 0 || r >= lm.num_rows) {
        std::ostringstream os;
        os << "scatter row " << i << " targets y row " << r
           << " outside [0, " << lm.num_rows << ")";
        report(check::Code::kGlobalOutOfBounds, Buf::kY, -1, os);
        break;
      }
    }

    // ELL slot streams: top slot is (width-1)*nsr + nsr - 1 = width*nsr - 1.
    const std::int64_t slots =
        static_cast<std::int64_t>(sc.width) * sc.num_scatter_rows;
    if (slots * lm.value_bytes >
        static_cast<std::int64_t>(lm.buffer(Buf::kScatterVal).bytes)) {
      std::ostringstream os;
      os << "scatter value stream needs " << slots * lm.value_bytes
         << " bytes but scatter_val holds "
         << lm.buffer(Buf::kScatterVal).bytes;
      report(check::Code::kGlobalOutOfBounds, Buf::kScatterVal, -1, os);
    }
    const int col_width = scatter_index_width(sc.mode);
    if (slots * col_width >
        static_cast<std::int64_t>(lm.buffer(Buf::kScatterCol).bytes)) {
      std::ostringstream os;
      os << "scatter column stream needs " << slots * col_width
         << " bytes but scatter_col holds "
         << lm.buffer(Buf::kScatterCol).bytes;
      report(check::Code::kGlobalOutOfBounds, Buf::kScatterCol, -1, os);
    }

    // x gather targets: the decoded columns (the only scattered read).
    for (std::size_t s = 0; s < sc.decoded_col.size(); ++s) {
      const index_t c = sc.decoded_col[s];
      if (c != kInvalidIndex && (c < 0 || c >= lm.num_cols)) {
        std::ostringstream os;
        os << "scatter slot " << s << " gathers x[" << c
           << "] outside [0, " << lm.num_cols << ")";
        report(check::Code::kGlobalOutOfBounds, Buf::kX, -1, os);
        break;
      }
    }
  }

  return diags;
}

// ---------------------------------------------------------------------------
// The coalescing replay.

/// Statically replays the kernel's access sequence through the real gpusim
/// coalescing/cache machinery and returns the launch counters it implies,
/// with a per-pattern traffic breakdown. Exact for a launch on a fresh
/// Device (see launch_model.hpp on buffer addresses); the flops/alu split
/// is attributed as if every stored value were nonzero, which preserves the
/// per-diagonal issue-slot sum (2*mrows) the timing model consumes.
inline CoalescingReport predict_crsd_counters(const LaunchModel& lm) {
  CoalescingReport rep;
  rep.per_pattern.reserve(lm.patterns.size() + 1);
  for (const PatternModel& pm : lm.patterns) {
    PatternTraffic t;
    t.pattern = pm.pattern;
    rep.per_pattern.push_back(t);
  }
  const ScatterModel& sc = lm.scatter;
  if (sc.num_scatter_rows > 0) {
    rep.per_pattern.push_back(PatternTraffic{});  // pattern = -1: scatter
  }
  auto traffic_of = [&](index_t pattern) -> PatternTraffic& {
    return pattern < 0 ? rep.per_pattern.back()
                       : rep.per_pattern[static_cast<std::size_t>(pattern)];
  };
  auto attribute = [&](index_t pattern, const gpusim::Counters& before,
                       const gpusim::Counters& after) {
    PatternTraffic& t = traffic_of(pattern);
    t.load_transactions +=
        after.global_load_transactions - before.global_load_transactions;
    t.store_transactions +=
        after.global_store_transactions - before.global_store_transactions;
    t.cache_hits += after.cache_hits - before.cache_hits;
    t.cache_misses += after.cache_misses - before.cache_misses;
    t.wavefronts += after.wavefronts - before.wavefronts;
  };

  const gpusim::DeviceSpec& spec = lm.spec;
  const int ncu = spec.num_compute_units;
  const index_t mrows = lm.mrows;
  index_t probes = 1;
  while ((index_t{1} << probes) <
         static_cast<index_t>(lm.patterns.size())) {
    ++probes;
  }

  // Diagonal phase: one work-group per row segment, executor round-robin
  // over CUs, a fresh read-only cache per CU.
  std::vector<gpusim::Counters> per_cu(static_cast<std::size_t>(ncu));
  // Segment id -> owning pattern, replayed via a cursor per CU sweep.
  for (index_t cu = 0; cu < ncu && lm.num_segments > 0; ++cu) {
    gpusim::ReadOnlyCache cache(spec.cache_bytes_per_cu, spec.cache_ways,
                                spec.transaction_bytes);
    gpusim::Counters& counters = per_cu[static_cast<std::size_t>(cu)];
    std::size_t pi = 0;
    for (index_t g = cu; g < lm.num_segments; g += ncu) {
      while (pi + 1 < lm.patterns.size() && g >= lm.patterns[pi].seg_end) {
        ++pi;
      }
      const PatternModel& pm = lm.patterns[pi];
      const gpusim::Counters before = counters;
      gpusim::WorkGroupCtx ctx(spec, counters, cache, g, mrows);
      const index_t row0 = g * mrows;
      const index_t lanes = std::min<index_t>(mrows, lm.num_rows - row0);
      const index_t ndias = pm.num_diagonals();
      const size64_t unit0 =
          pm.value_offset +
          static_cast<size64_t>(g - pm.seg_begin) * pm.slots_per_segment;

      if (!lm.jit_codelet) {
        ctx.global_read_block(lm.buffer(Buf::kIndex), 0, ndias + 2,
                              pm.index_width, /*cached=*/true);
        ctx.alu(static_cast<size64_t>(probes) * mrows);
      }
      for (const GroupModel& gm : pm.groups) {
        const bool staged =
            lm.use_local_memory && gm.adjacent && gm.num_diagonals >= 2;
        if (staged && lanes > 0) {
          const diag_offset_t first =
              pm.offsets[static_cast<std::size_t>(gm.first_diagonal)];
          const index_t window = lanes + gm.num_diagonals - 1;
          const index_t start =
              std::clamp<index_t>(row0 + first, 0, lm.num_cols - 1);
          const index_t window_clamped =
              std::min<index_t>(window, lm.num_cols - start);
          ctx.global_read_block(lm.buffer(Buf::kX),
                                static_cast<size64_t>(start),
                                std::max<index_t>(window_clamped, 1),
                                lm.vec_bytes);
          ctx.local_write_range(
              0, static_cast<size64_t>(window) * lm.vec_bytes);
          ctx.barrier();
        }
        for (index_t gd = 0; gd < gm.num_diagonals; ++gd) {
          const index_t d = gm.first_diagonal + gd;
          const diag_offset_t off = pm.offsets[static_cast<std::size_t>(d)];
          ctx.global_read_block(lm.buffer(Buf::kDiaVal),
                                unit0 + static_cast<size64_t>(d) * mrows,
                                lanes, lm.value_bytes);
          if (staged) {
            ctx.local_read_range(static_cast<size64_t>(gd) * lm.vec_bytes,
                                 static_cast<size64_t>(lanes) * lm.vec_bytes);
          } else {
            const index_t xs =
                std::clamp<index_t>(row0 + off, 0, lm.num_cols - 1);
            const index_t xn = std::min<index_t>(lanes, lm.num_cols - xs);
            ctx.global_read_block(lm.buffer(Buf::kX),
                                  static_cast<size64_t>(xs),
                                  std::max<index_t>(xn, 1), lm.vec_bytes,
                                  /*cached=*/true);
          }
          ctx.flops(2 * static_cast<size64_t>(lanes));
          ctx.alu(2 * static_cast<size64_t>(mrows - lanes));
          if (!lm.jit_codelet) {
            ctx.alu(2 * static_cast<size64_t>(mrows));
          }
        }
        if (staged && lanes > 0) {
          ctx.barrier();
        }
      }
      if (lanes > 0) {
        ctx.global_write_block(lm.buffer(Buf::kY),
                               static_cast<size64_t>(row0), lanes,
                               lm.vec_bytes);
      }
      attribute(pm.pattern, before, counters);
    }
  }

  // Scatter phase: modeled as the kernel does — a second pass of groups
  // sharing the diagonal launch (zero extra launch overhead).
  if (sc.num_scatter_rows > 0) {
    const index_t nsr = sc.num_scatter_rows;
    const index_t num_groups = (nsr + mrows - 1) / mrows;
    std::vector<size64_t> gather(static_cast<std::size_t>(mrows));
    std::vector<size64_t> targets(static_cast<std::size_t>(mrows));
    for (index_t cu = 0; cu < ncu; ++cu) {
      gpusim::ReadOnlyCache cache(spec.cache_bytes_per_cu, spec.cache_ways,
                                  spec.transaction_bytes);
      gpusim::Counters& counters = per_cu[static_cast<std::size_t>(cu)];
      for (index_t g = cu; g < num_groups; g += ncu) {
        const gpusim::Counters before = counters;
        gpusim::WorkGroupCtx ctx(spec, counters, cache, g, mrows);
        const index_t i0 = g * mrows;
        const index_t lanes = std::min<index_t>(mrows, nsr - i0);
        ctx.global_read_block(lm.buffer(Buf::kScatterRow),
                              static_cast<size64_t>(i0), lanes,
                              sizeof(index_t));
        for (index_t k = 0; k < sc.width; ++k) {
          const size64_t slot0 =
              static_cast<size64_t>(k) * nsr + static_cast<size64_t>(i0);
          ctx.global_read_block(lm.buffer(Buf::kScatterCol), slot0, lanes,
                                scatter_index_width(sc.mode));
          ctx.global_read_block(lm.buffer(Buf::kScatterVal), slot0, lanes,
                                lm.value_bytes);
          size64_t useful = 0;
          for (index_t i = 0; i < lanes; ++i) {
            const index_t c =
                sc.decoded_col[slot0 + static_cast<size64_t>(i)];
            if (c != kInvalidIndex) {
              gather[static_cast<std::size_t>(useful)] =
                  static_cast<size64_t>(c);
              ++useful;
            }
          }
          ctx.global_gather(lm.buffer(Buf::kX), gather.data(),
                            static_cast<index_t>(useful), lm.vec_bytes,
                            /*cached=*/true);
          ctx.flops(2 * useful);
          ctx.alu(2 * (static_cast<size64_t>(lanes) - useful));
        }
        for (index_t i = 0; i < lanes; ++i) {
          targets[static_cast<std::size_t>(i)] = static_cast<size64_t>(
              sc.rowno[static_cast<std::size_t>(i0 + i)]);
        }
        ctx.global_scatter_write(lm.buffer(Buf::kY), targets.data(), lanes,
                                 lm.vec_bytes);
        attribute(-1, before, counters);
      }
    }
  }

  for (const gpusim::Counters& c : per_cu) rep.counters += c;
  gpusim::LaunchConfig cfg;
  cfg.num_groups = lm.num_segments;
  cfg.group_size = mrows;
  cfg.double_precision = lm.double_precision;
  cfg.launches = 1;
  rep.predicted_seconds = gpusim::estimate_seconds(spec, rep.counters, cfg);
  return rep;
}

/// One-call driver: extract the model, prove the safety properties, derive
/// the coalescing report.
template <Real T>
AnalysisReport analyze_crsd_launch(const CrsdMatrix<T>& m,
                                   const AnalyzeOptions& opts = {}) {
  const LaunchModel lm = build_launch_model(m, opts);
  AnalysisReport rep;
  rep.diagnostics = analyze_model(lm);
  rep.coalescing = predict_crsd_counters(lm);
  return rep;
}

}  // namespace crsd::analysis
