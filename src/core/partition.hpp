// Adaptive row-region partitioner (ROADMAP item #2): split one matrix into
// variable-height row regions, each stored as its own CRSD container with
// its own `mrows` in place of the container-global constant. The executor
// (kernels/partitioned_spmv.hpp) runs the regions concurrently, one
// task-graph queue per region, so cost-balanced regions shorten the
// makespan, and each region's segment height can fit its own rows.
//
// The inspector is model-driven and deterministic: it walks fixed-height
// analysis blocks, derives per-block diagonal histograms (matrix/stats.hpp,
// the same ones core/inspect.hpp fingerprints), prices each block with the
// perf:: CRSD sweep model, and splits the row space into cost-balanced
// regions at block boundaries. Planning never launches anything; the
// measured mrows refinement and the persistent partition cache live with
// the executor in kernels/partitioned_spmv.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/cover.hpp"
#include "check/diagnostics.hpp"
#include "check/validate.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "core/builder.hpp"
#include "core/crsd_matrix.hpp"
#include "gpusim/device.hpp"
#include "matrix/coo.hpp"
#include "matrix/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/cpu_model.hpp"

namespace crsd {

// Planner constants. The partition cache key prints every one of them
// (kernels/partitioned_spmv.hpp), so editing one re-keys the stored plans.

/// Analysis granularity: region boundaries fall on multiples of this, one
/// work-group of the tallest mrows candidate.
inline constexpr index_t kPartitionBlockRows = 256;
/// The overlap re-split never leaves a region shorter than this.
inline constexpr index_t kPartitionMinRegionRows = 256;
/// Candidate per-region segment heights, in race order.
inline constexpr index_t kPartitionMrowsCandidates[] = {32, 64, 128, 256};
/// A diagonal this dense inside a block counts toward its CRSD diagonal
/// part; sparser diagonals are priced as scatter rows.
inline constexpr double kPartitionLiveMinFill = 0.5;

/// The mrows candidates a device with this wavefront can launch (the §III-B
/// constraint: a multiple of the wavefront; any candidate when
/// wavefront <= 0), in candidate order.
inline std::vector<index_t> partition_mrows_candidates(index_t wavefront) {
  std::vector<index_t> out;
  for (index_t c : kPartitionMrowsCandidates) {
    if (wavefront > 0 && c % wavefront != 0) continue;
    out.push_back(c);
  }
  return out;
}

/// Inspector policy.
struct PartitionPolicy {
  /// Target number of concurrently executable regions. The executor runs
  /// each region on its own task-graph queue (makespan = max region time),
  /// so the planner splits the most expensive region at a block boundary
  /// until it reaches this count or runs out of splittable rows, keeping
  /// predicted costs balanced. 1 keeps the whole matrix in one region.
  index_t overlap_regions = 4;
};

/// One contiguous run of rows and the CRSD configuration it is stored in;
/// `config` carries the region's own mrows.
struct RowRegion {
  index_t row_begin = 0;
  index_t row_end = 0;
  CrsdConfig config;
};

/// The inspector's output: an ordered, disjoint, covering region list plus
/// the model's cost accounting (CPU-roofline proxy seconds — relative, the
/// ordering is what matters).
struct PartitionPlan {
  std::vector<RowRegion> regions;
  /// Sum of per-region predicted costs (regions run back to back).
  double predicted_serial_seconds = 0.0;
  /// Max per-region predicted cost (regions overlap on the task graph).
  double predicted_overlap_seconds = 0.0;

  std::string summary() const {
    std::ostringstream os;
    os << regions.size() << " region(s):";
    for (const RowRegion& r : regions) {
      os << " [" << r.row_begin << "," << r.row_end << ")=CRSD/m"
         << r.config.mrows;
    }
    return os.str();
  }
};

/// Partition validity: regions must disjointly cover [0, num_rows) in
/// order (check::check_ordered_cover), none may be empty, and each needs a
/// legal mrows (a multiple of `wavefront` when one is given). Returns
/// kPlanPartition diagnostics; empty = valid.
inline std::vector<check::Diagnostic> validate_partition(
    index_t num_rows, const std::vector<RowRegion>& regions,
    index_t wavefront = 0) {
  std::vector<std::array<index_t, 2>> runs;
  for (const RowRegion& r : regions) runs.push_back({r.row_begin, r.row_end});
  std::vector<check::Diagnostic> diags =
      check::check_ordered_cover(runs, num_rows, "region");
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const RowRegion& r = regions[i];
    std::ostringstream os;
    os << "region " << i;
    if (r.row_begin == r.row_end) {
      os << " rows [" << r.row_begin << ", " << r.row_end << ") are empty";
    } else if (r.config.mrows < 1) {
      os << " mrows " << r.config.mrows << " is not >= 1";
    } else if (wavefront > 0 && r.config.mrows % wavefront != 0) {
      os << " mrows " << r.config.mrows
         << " is not a multiple of the wavefront size " << wavefront;
    } else {
      continue;
    }
    check::Diagnostic d;
    d.code = check::Code::kPlanPartition;
    d.message = os.str();
    d.offset = static_cast<std::int64_t>(i);
    diags.push_back(std::move(d));
  }
  return diags;
}

namespace detail {

/// Prices one row block as CRSD (CPU-roofline proxy seconds; relative
/// only). Diagonals at least kPartitionLiveMinFill occupied inside the
/// block — the builder's liveness rule — are priced as streamed value
/// slots, the leftover nonzeros as scatter-ELL rows; no container is built.
template <Real T>
double price_block(const Coo<T>& block, int crsd_value_bytes) {
  const StructureStats st = compute_stats(block);
  const perf::CpuSystemSpec sys;
  const bool dp = std::is_same_v<T, double>;
  const int vb = static_cast<int>(sizeof(T));

  // Live diagonals stream their slots, everything else scatters.
  std::vector<diag_offset_t> live;
  size64_t dia_slots = 0;
  size64_t dia_nnz = 0;
  for (const auto& d : st.diagonals) {
    if (d.nnz >= 2 && d.fill() >= kPartitionLiveMinFill) {
      live.push_back(d.offset);
      dia_slots += d.length;
      dia_nnz += d.nnz;
    }
  }
  // Scatter accounting for the leftover nonzeros, exact per row.
  std::vector<index_t> row_leftover(
      static_cast<std::size_t>(block.num_rows()), 0);
  const auto& rows = block.row_indices();
  const auto& cols = block.col_indices();
  for (size64_t k = 0; k < block.nnz(); ++k) {
    const diag_offset_t off =
        static_cast<diag_offset_t>(cols[k]) - static_cast<diag_offset_t>(rows[k]);
    if (!std::binary_search(live.begin(), live.end(), off)) {
      ++row_leftover[static_cast<std::size_t>(rows[k])];
    }
  }
  CrsdStats cs;
  cs.num_patterns = live.empty() ? 0 : 1;
  cs.num_segments = (block.num_rows() + 63) / 64;
  cs.dia_slots = dia_slots;
  cs.dia_nnz = dia_nnz;
  for (index_t w : row_leftover) {
    if (w > 0) {
      ++cs.num_scatter_rows;
      cs.scatter_width = std::max(cs.scatter_width, w);
      cs.scatter_nnz += w;
    }
  }
  cs.value_bytes = crsd_value_bytes;
  perf::SweepCost cost =
      perf::crsd_sweep_cost(cs, block.num_rows(), crsd_value_bytes);
  // Every block gathers from the full-width x, but crsd_sweep_cost only
  // charges 2*num_rows vector elements (x reuse plus the y write); charge
  // the rest so short wide blocks are not priced artificially cheap.
  if (st.num_cols > st.num_rows) {
    cost.bytes += static_cast<size64_t>(st.num_cols - st.num_rows) *
                  static_cast<size64_t>(vb);
  }
  return perf::roofline_seconds(sys, cost, 1, dp);
}

}  // namespace detail

/// Walks `a` in kPartitionBlockRows-row blocks, prices each as CRSD with
/// the perf:: sweep model, and splits the rows into up to
/// pol.overlap_regions cost-balanced regions. Deterministic: same matrix,
/// policy, and device spec give the same plan. Per-region mrows is a
/// model-side default here; the executor layer
/// (kernels/partitioned_spmv.hpp) refines it with measured trials and the
/// persistent cache.
template <Real T>
PartitionPlan plan_partition(const Coo<T>& a, const gpusim::DeviceSpec& spec,
                             const PartitionPolicy& pol = {},
                             const CrsdConfig& base = {}) {
  CRSD_CHECK_MSG(a.is_canonical(), "plan_partition requires canonical COO");
  obs::Span span("partition/plan", "nnz", static_cast<std::int64_t>(a.nnz()));

  const index_t n = a.num_rows();
  const index_t nblocks = (n + kPartitionBlockRows - 1) / kPartitionBlockRows;
  const int crsd_vb = value_stream_bytes<T>(base.storage.value_precision);

  std::vector<double> costs(static_cast<std::size_t>(nblocks));
  for (index_t b = 0; b < nblocks; ++b) {
    const index_t r0 = b * kPartitionBlockRows;
    const index_t r1 = std::min<index_t>(r0 + kPartitionBlockRows, n);
    costs[static_cast<std::size_t>(b)] =
        detail::price_block(a.row_slice(r0, r1), crsd_vb);
  }
  auto rows_of = [&](index_t b0, index_t b1) {
    return std::min<index_t>(b1 * kPartitionBlockRows, n) -
           b0 * kPartitionBlockRows;
  };
  auto cost_of = [&](index_t b0, index_t b1) {
    double c = 0.0;
    for (index_t b = b0; b < b1; ++b) c += costs[static_cast<std::size_t>(b)];
    return c;
  };

  // Overlap re-split: the executor overlaps regions on separate task-graph
  // queues, so balanced regions shorten the makespan. Starting from one
  // region, repeatedly halve the most expensive region at the block
  // boundary nearest its cost midpoint.
  struct Work {
    index_t block_begin = 0, block_end = 0;
    double cost = 0.0;
  };
  std::vector<Work> work;
  if (nblocks > 0) work.push_back({0, nblocks, cost_of(0, nblocks)});
  const auto target =
      static_cast<std::size_t>(std::max<index_t>(1, pol.overlap_regions));
  while (work.size() < target) {
    std::size_t best = work.size();
    double best_cost = -1.0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const Work& w = work[i];
      if (w.block_end - w.block_begin < 2) continue;
      if (rows_of(w.block_begin, w.block_end) < 2 * kPartitionMinRegionRows) {
        continue;
      }
      if (w.cost > best_cost) {
        best_cost = w.cost;
        best = i;
      }
    }
    if (best == work.size()) break;
    const Work w = work[best];
    index_t cut = 0;
    double acc = 0.0;
    for (index_t b = w.block_begin; b + 1 < w.block_end; ++b) {
      acc += costs[static_cast<std::size_t>(b)];
      if (rows_of(w.block_begin, b + 1) < kPartitionMinRegionRows) continue;
      if (rows_of(b + 1, w.block_end) < kPartitionMinRegionRows) break;
      cut = b + 1;
      if (acc >= w.cost * 0.5) break;
    }
    if (cut == 0) break;  // no boundary leaves both halves long enough
    work[best] = {w.block_begin, cut, cost_of(w.block_begin, cut)};
    work.insert(work.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                {cut, w.block_end, cost_of(cut, w.block_end)});
  }

  // Emit regions; each defaults its mrows to the candidate closest to the
  // builder default that is wavefront-legal and not taller than the region.
  const std::vector<index_t> candidates =
      partition_mrows_candidates(spec.wavefront_size);
  PartitionPlan plan;
  for (const Work& w : work) {
    RowRegion r;
    r.row_begin = w.block_begin * kPartitionBlockRows;
    r.row_end = std::min<index_t>(w.block_end * kPartitionBlockRows, n);
    r.config = base;
    index_t chosen = 0;
    for (index_t c : candidates) {
      if (chosen == 0 ||
          (c <= r.row_end - r.row_begin &&
           std::abs(c - CrsdConfig{}.mrows) <
               std::abs(chosen - CrsdConfig{}.mrows))) {
        chosen = c;
      }
    }
    r.config.mrows = chosen > 0 ? chosen : base.mrows;
    plan.predicted_serial_seconds += w.cost;
    plan.predicted_overlap_seconds =
        std::max(plan.predicted_overlap_seconds, w.cost);
    plan.regions.push_back(std::move(r));
  }

  obs::Registry::global()
      .gauge("partition.regions")
      .set(static_cast<double>(plan.regions.size()));
  return plan;
}

/// A matrix stored as per-region CRSD containers. Region r owns rows
/// [row_begin, row_end) with the full column space: its container is built
/// from the row slice re-based to 0, so y[row_begin + i] comes from region
/// row i while x is shared by every region.
template <Real T>
class PartitionedMatrix {
 public:
  struct Part {
    RowRegion region;
    std::unique_ptr<CrsdMatrix<T>> crsd;
  };

  /// Builds each region's container from its row slice. Throws a
  /// kPlanPartition DiagnosticError when the region list is not a valid
  /// partition of `a`'s rows.
  static PartitionedMatrix build(const Coo<T>& a, const PartitionPlan& plan) {
    obs::Span span("partition/build", "regions",
                   static_cast<std::int64_t>(plan.regions.size()));
    std::vector<check::Diagnostic> diags =
        validate_partition(a.num_rows(), plan.regions);
    if (!diags.empty()) {
      throw check::DiagnosticError("invalid row partition", std::move(diags));
    }
    PartitionedMatrix m;
    m.num_rows_ = a.num_rows();
    m.num_cols_ = a.num_cols();
    m.nnz_ = a.nnz();
    for (const RowRegion& region : plan.regions) {
      const Coo<T> slice = a.row_slice(region.row_begin, region.row_end);
      Part part;
      part.region = region;
      part.crsd = std::make_unique<CrsdMatrix<T>>(
          detail::build_crsd_impl(slice, region.config));
      m.parts_.push_back(std::move(part));
    }
    return m;
  }

  index_t num_rows() const { return num_rows_; }
  index_t num_cols() const { return num_cols_; }
  size64_t nnz() const { return nnz_; }
  const std::vector<Part>& parts() const { return parts_; }

  /// Mutable part access for mutation fixtures: tests plant defects (an
  /// overlapping region, a lying mrows descriptor) and check that
  /// check::validate_against refutes exactly the planted one.
  std::vector<Part>& mutable_parts() { return parts_; }

  std::vector<RowRegion> regions() const {
    std::vector<RowRegion> out;
    out.reserve(parts_.size());
    for (const Part& p : parts_) out.push_back(p.region);
    return out;
  }

  /// y = A*x, single thread — the executor's bitwise reference: each region
  /// accumulates its rows exactly as its standalone container would.
  void spmv(const T* x, T* y) const {
    for (const Part& p : parts_) p.crsd->spmv(x, y + p.region.row_begin);
  }

  size64_t footprint_bytes() const {
    size64_t bytes = 0;
    for (const Part& p : parts_) bytes += p.crsd->footprint_bytes();
    return bytes;
  }

  std::string summary() const {
    std::ostringstream os;
    os << parts_.size() << " region(s):";
    for (const Part& p : parts_) {
      os << " [" << p.region.row_begin << "," << p.region.row_end
         << ")=CRSD/m" << p.crsd->mrows();
    }
    return os.str();
  }

 private:
  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  size64_t nnz_ = 0;
  std::vector<Part> parts_;
};

namespace check {

/// Partitioned extension of validate_against: the region list must be a
/// valid partition, every part's container must carry its region
/// descriptor's mrows (a mutated descriptor is a kPlanPartition finding),
/// and each region must store exactly its row slice of `a`, checked by the
/// quantization-aware container validator.
template <Real T>
std::vector<Diagnostic> validate_against(const PartitionedMatrix<T>& pm,
                                         const Coo<T>& a) {
  std::vector<Diagnostic> diags =
      crsd::validate_partition(a.num_rows(), pm.regions());
  auto fail = [&diags](Code code, const std::string& msg, std::int64_t which) {
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kError;
    d.message = msg;
    d.offset = which;
    diags.push_back(std::move(d));
  };
  if (pm.num_cols() != a.num_cols() || pm.nnz() != a.nnz()) {
    fail(Code::kNnzMismatch, "partitioned container dims/nnz differ from COO",
         -1);
  }

  size64_t nnz_seen = 0;
  for (std::size_t i = 0; i < pm.parts().size(); ++i) {
    const auto& part = pm.parts()[i];
    const RowRegion& r = part.region;
    if (r.row_begin < 0 || r.row_end > a.num_rows() ||
        r.row_begin >= r.row_end) {
      continue;  // already reported by validate_partition
    }
    if (part.crsd->mrows() != r.config.mrows) {
      std::ostringstream os;
      os << "region " << i << " container mrows " << part.crsd->mrows()
         << " differs from its descriptor's " << r.config.mrows;
      fail(Code::kPlanPartition, os.str(), static_cast<std::int64_t>(i));
    }
    std::vector<Diagnostic> region_diags = validate_against(
        *part.crsd, a.row_slice(r.row_begin, r.row_end));
    for (Diagnostic& d : region_diags) {
      d.message = "region " + std::to_string(i) + ": " + d.message;
      diags.push_back(std::move(d));
    }
    nnz_seen += part.crsd->nnz();
  }
  if (diags.empty() && nnz_seen != a.nnz()) {
    std::ostringstream os;
    os << "regions store " << nnz_seen << " nonzeros of " << a.nnz();
    fail(Code::kNnzMismatch, os.str(), -1);
  }
  return diags;
}

}  // namespace check

}  // namespace crsd
