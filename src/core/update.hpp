// In-place value refresh for a built CRSD matrix — the inspector/executor
// workflow of time-dependent PDE solvers: the discretization's sparsity is
// fixed across time steps, only coefficients change, so pattern discovery
// runs once and each step only rewrites the value stream (and keeps any
// compiled codelet valid, since codelets are specialized to structure).
#pragma once

#include "common/error.hpp"
#include "core/crsd_matrix.hpp"
#include "matrix/coo.hpp"

namespace crsd {

/// Overwrites `m`'s values with those of `a`, which must have exactly the
/// sparsity structure `m` was built from (same dimensions and the same
/// nonzero positions). Filled-zero slots stay zero. Throws crsd::Error if
/// any entry of `a` has no slot in `m` or the entry counts disagree; `m` is
/// then unchanged, since the new values go into fresh streams that replace
/// the old ones only once every entry has found its slot.
///
/// One forward walk over the triplets, O(nnz) with no search. Canonical
/// triplets come row by row with ascending columns; scatter rows and
/// patterns are stored in ascending row order and a pattern's offsets
/// ascend. So the scatter-row and pattern cursors only move forward, and
/// each row's columns merge against its pattern's offsets.
template <Real T>
void update_values(CrsdMatrix<T>& m, const Coo<T>& a) {
  CRSD_CHECK_MSG(a.is_canonical(), "update_values requires canonical COO");
  CRSD_CHECK_MSG(a.num_rows() == m.num_rows() && a.num_cols() == m.num_cols(),
                 "dimension mismatch");
  CRSD_CHECK_MSG(a.nnz() == m.nnz(),
                 "nonzero count mismatch: matrix was built with "
                     << m.nnz() << " entries, update carries " << a.nnz());

  std::vector<T> dia_val(m.dia_slot_count(), T(0));
  std::vector<T> scatter_val(m.scatter_slot_count(), T(0));
  // Mode-agnostic column view (u16 storage decodes to i32 ELL).
  const std::vector<index_t> scatter_cols = m.decoded_scatter_col();

  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  const auto& scatter_rows = m.scatter_rows();
  const auto& cum_segments = m.cum_segments();
  const size64_t nnz = a.nnz();
  const size64_t nsr = scatter_rows.size();
  const index_t mrows = m.mrows();

  std::size_t sr = 0;  // first scatter row at or after the current row
  std::size_t p = 0;   // pattern owning the current row's segment
  index_t prev_row = -1;
  for (size64_t k = 0; k < nnz;) {
    const index_t r = rows[k];
    // The cursors rely on ascending rows: refuse triplets that only claim
    // to be canonical.
    CRSD_CHECK_MSG(r > prev_row && r < m.num_rows(),
                   "update_values requires canonical COO");
    prev_row = r;

    while (sr < nsr && scatter_rows[sr] < r) ++sr;
    if (sr < nsr && scatter_rows[sr] == r) {
      // Scatter row: the whole row lives in the ELL side matrix, whose
      // slots hold its columns in ascending order.
      for (index_t fill = 0; k < nnz && rows[k] == r; ++k, ++fill) {
        CRSD_CHECK_MSG(fill < m.scatter_width(),
                       "row " << r << " has more entries than the built "
                                 "scatter width");
        const size64_t slot = static_cast<size64_t>(fill) * nsr + sr;
        CRSD_CHECK_MSG(scatter_cols[slot] == cols[k],
                       "structure mismatch at (" << r << ", " << cols[k]
                           << "): scatter column differs");
        scatter_val[slot] = vals[k];
      }
      continue;
    }

    const index_t seg = r / mrows;
    while (cum_segments[p + 1] <= seg) ++p;
    const DiagonalPattern& pat = m.patterns()[p];
    // The row's slot on diagonal 0 (CrsdMatrix::slot's layout); diagonal d
    // lies d * mrows further on.
    const size64_t row_slot =
        m.pattern_value_offsets()[p] +
        static_cast<size64_t>(seg - cum_segments[p]) *
            pat.slots_per_segment(mrows) +
        static_cast<size64_t>(r - seg * mrows);
    const std::size_t nd = pat.offsets.size();
    std::size_t d = 0;
    for (; k < nnz && rows[k] == r; ++k) {
      const diag_offset_t off = cols[k] - r;
      while (d < nd && pat.offsets[d] < off) ++d;
      CRSD_CHECK_MSG(d < nd && pat.offsets[d] == off,
                     "structure mismatch at (" << r << ", " << cols[k]
                         << "): no diagonal slot and not a scatter row");
      dia_val[row_slot + d * static_cast<size64_t>(mrows)] = vals[k];
    }
  }

  m.replace_values(std::move(dia_val), std::move(scatter_val));
}

}  // namespace crsd
