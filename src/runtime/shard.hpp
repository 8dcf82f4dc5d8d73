// Row-segment sharding of one built CRSD container across N devices. A
// shard is a contiguous run of row segments (so each work-group stays whole)
// plus the slice of the scatter-row list whose rows fall inside the shard,
// plus the x-window the shard's kernels read — diagonal clamps and scatter
// gathers included — so only that window is transferred to the device.
//
// Shards slice the *built* matrix, never a rebuilt sub-matrix: builder fill
// and coalescing decisions depend on run extents crossing shard boundaries,
// so rebuilding would change per-row accumulation order and break the
// bitwise-identity contract multi_device.hpp advertises.
#pragma once

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "check/cover.hpp"
#include "check/diagnostics.hpp"
#include "common/thread_pool.hpp"
#include "core/crsd_matrix.hpp"
#include "kernels/crsd_gpu.hpp"
#include "perf/cpu_model.hpp"

namespace crsd::rt {

/// One device's slice of the matrix; `range` feeds gpu_spmv_crsd_range
/// directly.
struct Shard {
  kernels::CrsdGpuRange range;

  index_t x_elems() const { return range.x_end - range.x_begin; }
  index_t y_elems() const { return range.row_end - range.row_begin; }
};

namespace detail {

/// Extends [lo, hi) to cover every x element the diagonal phase of segments
/// [seg_begin, seg_end) touches. Clamp is monotone, so the extremes are the
/// first row with the most negative offset and the last row with the most
/// positive one; the staged AD-group sweeps stay inside the same bounds.
template <Real T>
void widen_for_diagonals(const CrsdMatrix<T>& m, index_t seg_begin,
                         index_t seg_end, index_t* lo, index_t* hi) {
  const index_t mrows = m.mrows();
  const auto& cum = m.cum_segments();
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    const index_t pb = std::max(cum[static_cast<std::size_t>(p)], seg_begin);
    const index_t pe =
        std::min(cum[static_cast<std::size_t>(p) + 1], seg_end);
    if (pb >= pe) continue;
    const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
    if (pat.offsets.empty()) continue;
    const RowRange rows = segment_row_range(pb, pe, mrows, m.num_rows());
    *lo = std::min(*lo, m.clamp_col(rows.begin + pat.offsets.front()));
    *hi = std::max(*hi, m.clamp_col(rows.end - 1 + pat.offsets.back()) + 1);
  }
}

/// Extends [lo, hi) to cover the columns gathered by scatter rows
/// [scatter_begin, scatter_end).
template <Real T>
void widen_for_scatter(const CrsdMatrix<T>& m, index_t scatter_begin,
                       index_t scatter_end, index_t* lo, index_t* hi) {
  if (scatter_begin >= scatter_end) return;
  const std::vector<index_t> scol = m.decoded_scatter_col();
  const index_t nsr = m.num_scatter_rows();
  for (index_t k = 0; k < m.scatter_width(); ++k) {
    for (index_t i = scatter_begin; i < scatter_end; ++i) {
      const index_t c =
          scol[static_cast<size64_t>(k) * nsr + static_cast<size64_t>(i)];
      if (c == kInvalidIndex) continue;
      *lo = std::min(*lo, c);
      *hi = std::max(*hi, c + 1);
    }
  }
}

}  // namespace detail

/// The shard that runs segments [seg_begin, seg_end): their row slice, the
/// slice of the scatter-row list whose rows fall inside it, and the
/// x-window its kernels read. The single source of every derived field, so
/// the planners and the validator agree by construction.
template <Real T>
Shard make_shard(const CrsdMatrix<T>& m, index_t seg_begin, index_t seg_end) {
  Shard sh;
  sh.range.seg_begin = seg_begin;
  sh.range.seg_end = seg_end;
  const RowRange rows =
      segment_row_range(seg_begin, seg_end, m.mrows(), m.num_rows());
  sh.range.row_begin = rows.begin;
  sh.range.row_end = rows.end;
  // Scatter rows are sorted by row number; the shard owns the rows whose
  // target falls in its row slice.
  const auto& srow = m.scatter_rows();
  sh.range.scatter_begin = static_cast<index_t>(
      std::lower_bound(srow.begin(), srow.end(), rows.begin) - srow.begin());
  sh.range.scatter_end = static_cast<index_t>(
      std::lower_bound(srow.begin(), srow.end(), rows.end) - srow.begin());

  index_t lo = m.num_cols();
  index_t hi = 0;
  detail::widen_for_diagonals(m, seg_begin, seg_end, &lo, &hi);
  detail::widen_for_scatter(m, sh.range.scatter_begin, sh.range.scatter_end,
                            &lo, &hi);
  if (lo >= hi) {  // empty shard reads nothing
    lo = 0;
    hi = 0;
  }
  sh.range.x_begin = lo;
  sh.range.x_end = hi;
  return sh;
}

/// Splits the matrix into `num_shards` contiguous segment runs, balanced by
/// each segment's byte traffic (perf::pattern_segment_cost).
template <Real T>
std::vector<Shard> plan_shards(const CrsdMatrix<T>& m, int num_shards) {
  CRSD_CHECK_MSG(num_shards >= 1, "plan_shards needs >= 1 shard");
  const index_t segs = m.num_segments_total();
  const index_t mrows = m.mrows();
  const int vb = m.value_bytes();

  std::vector<double> seg_cost(static_cast<std::size_t>(segs), 0.0);
  for (index_t g = 0; g < segs; ++g) {
    const auto& pat =
        m.patterns()[static_cast<std::size_t>(m.pattern_of_segment(g))];
    const auto cost = perf::pattern_segment_cost(pat, mrows, vb);
    seg_cost[static_cast<std::size_t>(g)] = double(cost.bytes);
  }
  const ParallelPlan plan =
      ParallelPlan::weighted_partition(0, segs, num_shards, seg_cost);

  std::vector<Shard> shards;
  shards.reserve(static_cast<std::size_t>(plan.num_parts()));
  for (int s = 0; s < plan.num_parts(); ++s) {
    shards.push_back(make_shard(m, plan.part_begin(s), plan.part_end(s)));
  }
  return shards;
}

/// Partition check: shard segment runs must tile [0, num_segments_total())
/// in order (check::check_ordered_cover), and every shard must equal
/// make_shard of its run — row slice, scatter slice and x-window included,
/// so a launch can never read outside the x it is given. Returns
/// kPlanPartition diagnostics; empty = valid.
template <Real T>
std::vector<check::Diagnostic> validate_shard_partition(
    const CrsdMatrix<T>& m, const std::vector<Shard>& shards) {
  std::vector<std::array<index_t, 2>> runs;
  for (const Shard& s : shards) {
    runs.push_back({s.range.seg_begin, s.range.seg_end});
  }
  std::vector<check::Diagnostic> diags =
      check::check_ordered_cover(runs, m.num_segments_total(), "shard");
  auto describe = [](const kernels::CrsdGpuRange& r) {
    std::ostringstream os;
    os << "rows [" << r.row_begin << ", " << r.row_end << "), scatter ["
       << r.scatter_begin << ", " << r.scatter_end << "), x [" << r.x_begin
       << ", " << r.x_end << ")";
    return os.str();
  };
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& r = shards[s].range;
    if (r.seg_begin < 0 || r.seg_begin > r.seg_end ||
        r.seg_end > m.num_segments_total()) {
      continue;  // the cover check reports it
    }
    const kernels::CrsdGpuRange want =
        make_shard(m, r.seg_begin, r.seg_end).range;
    if (r != want) {
      check::Diagnostic d;
      d.code = check::Code::kPlanPartition;
      d.message = "shard " + std::to_string(s) + " " + describe(r) +
                  " do not match its segment run (want " + describe(want) +
                  ")";
      d.offset = static_cast<std::int64_t>(s);
      diags.push_back(std::move(d));
    }
  }
  return diags;
}

}  // namespace crsd::rt
