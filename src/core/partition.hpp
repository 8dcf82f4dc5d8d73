// Row-region container: a matrix stored as CRSD containers over ordered,
// disjoint row regions, each with its own `mrows` in place of the
// container-global constant. crsd::build_partitioned
// (kernels/partitioned_spmv.hpp) stores a matrix as one region, [0, n), at
// the autotuner's measured-fastest mrows; PartitionedMatrix::build takes
// any region list, which validate_partition, check::validate_against and
// the analyzer's per-region launch model check.
#pragma once

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/cover.hpp"
#include "check/diagnostics.hpp"
#include "check/validate.hpp"
#include "common/types.hpp"
#include "core/builder.hpp"
#include "core/crsd_matrix.hpp"
#include "matrix/coo.hpp"
#include "obs/trace.hpp"

namespace crsd {

/// One contiguous run of rows and the CRSD configuration it is stored in;
/// `config` carries the region's own mrows.
struct RowRegion {
  index_t row_begin = 0;
  index_t row_end = 0;
  CrsdConfig config;
};

/// An ordered, disjoint, covering region list.
struct PartitionPlan {
  std::vector<RowRegion> regions;

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
