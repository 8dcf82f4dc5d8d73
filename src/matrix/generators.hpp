// Synthetic sparse-matrix generators. These replace the paper's test
// matrices (NIST Matrix Market + astrophysics application): each generator
// reproduces a *structure family* — grid stencils, dense bands, FEM-style
// per-row-block diagonal sets, broken diagonals with idle sections, scatter
// points — so that the format comparison (DIA/ELL/CSR/HYB/CRSD) sees the
// same storage trade-offs the paper measured. All generators are
// deterministic given the Rng.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "matrix/coo.hpp"

namespace crsd {

/// 2D 5-point Poisson stencil on an nx-by-ny grid (row-major numbering).
/// Diagonals: {0, ±1, ±nx}. Center 4, neighbors -1 (SPD M-matrix).
Coo<double> stencil_5pt_2d(index_t nx, index_t ny);

/// 2D 9-point stencil (Moore neighborhood). Diagonals {0,±1,±(nx-1),±nx,±(nx+1)}.
Coo<double> stencil_9pt_2d(index_t nx, index_t ny);

/// 3D 7-point stencil on nx-by-ny-by-nz. Diagonals {0, ±1, ±nx, ±nx*ny}.
Coo<double> stencil_7pt_3d(index_t nx, index_t ny, index_t nz);

/// 3D 27-point stencil (the diagonal workload of Bell & Garland's DIA study).
Coo<double> stencil_27pt_3d(index_t nx, index_t ny, index_t nz);

/// 3D 7-point stencil on a nonuniform device grid (wang3/wang4 structure):
/// the z-coupling stride varies per z-slab, so almost every slab contributes
/// its own pair of far diagonals — per-row width stays 7, but the union of
/// offsets grows with nz and DIA storage blows up (the paper: "the DIA
/// format still performs very poor, like s3dkt3m2").
Coo<double> stencil_7pt_irregular(index_t nx, index_t ny, index_t nz,
                                  Rng& rng);

/// 2D (2k+1)x(2k+1) square stencil: (2k+1)^2 diagonals. k=2 gives the
/// 25-diagonal structure of kim1/kim2 in the paper.
Coo<double> stencil_square_2d(index_t nx, index_t ny, index_t k);

/// Dense band: all diagonals with offset in [-half_bandwidth, half_bandwidth]
/// fully populated (nemeth-family structure: one big adjacent group).
Coo<double> dense_band(index_t n, index_t half_bandwidth);

/// Fully populated diagonals at the given offsets.
Coo<double> full_diagonals(index_t n, const std::vector<diag_offset_t>& offsets,
                           Rng& rng);

/// One row block of a patterned-diagonal matrix: within rows
/// [row_begin, row_begin+num_rows), exactly `offsets` are populated.
struct PatternBlock {
  index_t num_rows = 0;
  std::vector<diag_offset_t> offsets;
};

/// FEM-style matrix whose live diagonal set changes across contiguous row
/// blocks (the structure CRSD's diagonal patterns were designed for: the
/// union of offsets over all blocks is large — DIA pads every one full
/// length — while each row touches only its block's offsets).
/// `fill` is the within-block occupancy of each diagonal (1 = fully dense).
Coo<double> patterned_diagonals(index_t n, const std::vector<PatternBlock>& blocks,
                                double fill, Rng& rng);

/// Convenience builder for the s3dk/af families: `num_blocks` equal row
/// blocks; every block has a shared adjacent core {-core..+core} plus
/// `extra_per_block` block-private far offsets, drawn without collision, so
/// the total number of distinct diagonals is
/// (2*core+1) + num_blocks*extra_per_block.
Coo<double> fem_shell_like(index_t n, index_t num_blocks, index_t core,
                           index_t extra_per_block, double fill, Rng& rng);

/// Specification of one partially-populated diagonal: `coverage` fraction of
/// its length is live, split into `num_sections` contiguous runs separated by
/// idle sections (the paper's Fig. 1/Fig. 3 structure).
struct BrokenDiagonal {
  diag_offset_t offset = 0;
  double coverage = 1.0;
  index_t num_sections = 1;
};

/// Diagonal matrix with idle sections. The main diagonal is always fully
/// populated (keeps the matrix usable by solvers).
Coo<double> broken_diagonals(index_t n, const std::vector<BrokenDiagonal>& diags,
                             Rng& rng);

/// Astrophysics-like FDM core-convection matrix (paper's s* family):
/// 3D 7-point backbone + FEM coupling diagonals at ±(nx-1), ±(nx+1) broken by
/// idle sections, plus `scatter_rows` rows with `scatter_width` off-pattern
/// nonzeros each. `unstructured` (us* family) additionally breaks the far
/// stencil diagonals into many idle sections and adds more scatter.
Coo<double> astro_convection(index_t nx, index_t ny, index_t nz,
                             bool unstructured, Rng& rng);

/// Partially diagonal matrix (the shape Fukaya et al., arXiv 2105.04937,
/// split between CPU and GPU): a top stripe of `top_rows` rows on the
/// diagonals {0, ±1, ±band} over a bottom stripe of `bottom_rows` ragged
/// rows, each with 4 to max_row_nnz - 1 uniformly scattered nonzeros.
/// Square, n = top_rows + bottom_rows.
Coo<double> partially_diagonal(index_t top_rows, index_t bottom_rows,
                               index_t band, index_t max_row_nnz, Rng& rng);

/// Adds `count` uniformly random off-pattern nonzeros (scatter points).
void inject_scatter(Coo<double>& a, size64_t count, Rng& rng);

/// Rescales the main diagonal so each row is strictly diagonally dominant
/// (makes stencil-free generator output usable by CG/BiCGSTAB examples).
void make_diagonally_dominant(Coo<double>& a, double margin = 1.0);

}  // namespace crsd
