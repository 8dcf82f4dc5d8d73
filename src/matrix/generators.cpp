#include "matrix/generators.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "matrix/stats.hpp"

namespace crsd {
namespace {

/// Adds one full or partial grid-stencil entry with Poisson-style values:
/// off-diagonal entries are a small negative coupling, the center collects
/// the magnitude sum (keeps stencil matrices symmetric positive definite).
struct StencilAccum {
  Coo<double>& a;
  index_t row;
  double center = 0.0;

  void neighbor(index_t col, double w) {
    a.add(row, col, -w);
    center += w;
  }
  void finish(double shift = 1e-3) { a.add(row, row, center + shift); }
};

}  // namespace

Coo<double> stencil_5pt_2d(index_t nx, index_t ny) {
  CRSD_CHECK_MSG(nx >= 1 && ny >= 1, "grid dims must be >= 1");
  const index_t n = nx * ny;
  Coo<double> a(n, n);
  a.reserve(static_cast<size64_t>(n) * 5);
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t r = y * nx + x;
      StencilAccum acc{a, r};
      if (x > 0) acc.neighbor(r - 1, 1.0);
      if (x + 1 < nx) acc.neighbor(r + 1, 1.0);
      if (y > 0) acc.neighbor(r - nx, 1.0);
      if (y + 1 < ny) acc.neighbor(r + nx, 1.0);
      acc.finish();
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> stencil_9pt_2d(index_t nx, index_t ny) {
  return stencil_square_2d(nx, ny, 1);
}

Coo<double> stencil_7pt_3d(index_t nx, index_t ny, index_t nz) {
  CRSD_CHECK_MSG(nx >= 1 && ny >= 1 && nz >= 1, "grid dims must be >= 1");
  const index_t n = nx * ny * nz;
  Coo<double> a(n, n);
  a.reserve(static_cast<size64_t>(n) * 7);
  const index_t sxy = nx * ny;
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t r = (z * ny + y) * nx + x;
        StencilAccum acc{a, r};
        if (x > 0) acc.neighbor(r - 1, 1.0);
        if (x + 1 < nx) acc.neighbor(r + 1, 1.0);
        if (y > 0) acc.neighbor(r - nx, 1.0);
        if (y + 1 < ny) acc.neighbor(r + nx, 1.0);
        if (z > 0) acc.neighbor(r - sxy, 1.0);
        if (z + 1 < nz) acc.neighbor(r + sxy, 1.0);
        acc.finish();
      }
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> stencil_27pt_3d(index_t nx, index_t ny, index_t nz) {
  CRSD_CHECK_MSG(nx >= 1 && ny >= 1 && nz >= 1, "grid dims must be >= 1");
  const index_t n = nx * ny * nz;
  Coo<double> a(n, n);
  a.reserve(static_cast<size64_t>(n) * 27);
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t r = (z * ny + y) * nx + x;
        StencilAccum acc{a, r};
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              const index_t xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 ||
                  zz >= nz) {
                continue;
              }
              acc.neighbor((zz * ny + yy) * nx + xx, 1.0);
            }
          }
        }
        acc.finish();
      }
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> stencil_7pt_irregular(index_t nx, index_t ny, index_t nz,
                                  Rng& rng) {
  CRSD_CHECK_MSG(nx >= 2 && ny >= 1 && nz >= 1, "grid too small");
  const index_t n = nx * ny * nz;
  const index_t sxy = nx * ny;
  // Per-slab z-coupling stride: the nominal nx*ny plus a slab-specific
  // perturbation (nonuniform tensor grid / interface renumbering).
  std::vector<index_t> stride(static_cast<std::size_t>(nz));
  for (auto& s : stride) {
    s = sxy + rng.next_index(-(sxy / 4), sxy / 4);
  }
  Coo<double> a(n, n);
  a.reserve(static_cast<size64_t>(n) * 7);
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t r = (z * ny + y) * nx + x;
        StencilAccum acc{a, r};
        if (x > 0) acc.neighbor(r - 1, 1.0);
        if (x + 1 < nx) acc.neighbor(r + 1, 1.0);
        if (y > 0) acc.neighbor(r - nx, 1.0);
        if (y + 1 < ny) acc.neighbor(r + nx, 1.0);
        // Down-coupling uses the slab-below's stride, up-coupling this
        // slab's stride; both clamped to the matrix.
        if (z > 0) {
          const index_t c = r - stride[static_cast<std::size_t>(z - 1)];
          if (c >= 0) acc.neighbor(c, 1.0);
        }
        if (z + 1 < nz) {
          const index_t c = r + stride[static_cast<std::size_t>(z)];
          if (c < n) acc.neighbor(c, 1.0);
        }
        acc.finish();
      }
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> stencil_square_2d(index_t nx, index_t ny, index_t k) {
  CRSD_CHECK_MSG(nx >= 1 && ny >= 1 && k >= 1, "bad stencil parameters");
  const index_t n = nx * ny;
  const size64_t pts = static_cast<size64_t>(2 * k + 1) * (2 * k + 1);
  Coo<double> a(n, n);
  a.reserve(static_cast<size64_t>(n) * pts);
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t r = y * nx + x;
      StencilAccum acc{a, r};
      for (index_t dy = -k; dy <= k; ++dy) {
        for (index_t dx = -k; dx <= k; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const index_t xx = x + dx, yy = y + dy;
          if (xx < 0 || xx >= nx || yy < 0 || yy >= ny) continue;
          // Inverse-distance coupling; exact values are irrelevant to the
          // storage formats but keep the operator SPD.
          acc.neighbor(yy * nx + xx, 1.0 / (std::abs(dx) + std::abs(dy)));
        }
      }
      acc.finish();
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> dense_band(index_t n, index_t half_bandwidth) {
  CRSD_CHECK_MSG(n >= 1 && half_bandwidth >= 0, "bad band parameters");
  Coo<double> a(n, n);
  a.reserve(static_cast<size64_t>(n) * (2 * half_bandwidth + 1));
  for (index_t r = 0; r < n; ++r) {
    StencilAccum acc{a, r};
    const index_t lo = std::max<index_t>(0, r - half_bandwidth);
    const index_t hi = std::min<index_t>(n - 1, r + half_bandwidth);
    for (index_t c = lo; c <= hi; ++c) {
      if (c != r) acc.neighbor(c, 1.0 / (1.0 + std::abs(c - r)));
    }
    acc.finish();
  }
  a.canonicalize();
  return a;
}

Coo<double> full_diagonals(index_t n, const std::vector<diag_offset_t>& offsets,
                           Rng& rng) {
  CRSD_CHECK_MSG(n >= 1, "matrix must be non-empty");
  Coo<double> a(n, n);
  for (diag_offset_t off : offsets) {
    CRSD_CHECK_MSG(off > -n && off < n, "offset out of range: " << off);
    const index_t r0 = off < 0 ? -off : 0;
    const index_t r1 =
        off < 0 ? n : static_cast<index_t>(n - off);
    for (index_t r = r0; r < r1; ++r) {
      a.add(r, r + off, off == 0 ? 4.0 : rng.next_double(-1.0, -0.1));
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> patterned_diagonals(index_t n, const std::vector<PatternBlock>& blocks,
                                double fill, Rng& rng) {
  CRSD_CHECK_MSG(n >= 1, "matrix must be non-empty");
  CRSD_CHECK_MSG(fill > 0.0 && fill <= 1.0, "fill must be in (0,1]");
  Coo<double> a(n, n);
  index_t row = 0;
  for (const auto& block : blocks) {
    const index_t row_end = std::min<index_t>(n, row + block.num_rows);
    for (index_t r = row; r < row_end; ++r) {
      for (diag_offset_t off : block.offsets) {
        const std::int64_t c = static_cast<std::int64_t>(r) + off;
        if (c < 0 || c >= n) continue;
        if (fill < 1.0 && !rng.next_bool(fill)) continue;
        a.add(r, static_cast<index_t>(c),
              off == 0 ? 4.0 : rng.next_double(-1.0, -0.1));
      }
    }
    row = row_end;
  }
  CRSD_CHECK_MSG(row == n, "pattern blocks must cover all " << n << " rows, got "
                                                            << row);
  a.canonicalize();
  return a;
}

Coo<double> fem_shell_like(index_t n, index_t num_blocks, index_t core,
                           index_t extra_per_block, double fill, Rng& rng) {
  CRSD_CHECK_MSG(num_blocks >= 1, "need at least one block");
  std::vector<PatternBlock> blocks(static_cast<std::size_t>(num_blocks));
  const index_t rows_per_block = (n + num_blocks - 1) / num_blocks;

  // Far offsets must be unique across the whole matrix so the union of
  // diagonals grows linearly with the block count (the DIA killer), and each
  // must cover its entire block (offset +o needs o <= n - block_end, offset
  // -o needs o <= block_start) so the per-row width is uniform.
  std::set<diag_offset_t> used;
  for (diag_offset_t o = -core; o <= core; ++o) used.insert(o);

  for (index_t b = 0; b < num_blocks; ++b) {
    auto& block = blocks[static_cast<std::size_t>(b)];
    block.num_rows = b + 1 == num_blocks
                         ? n - rows_per_block * (num_blocks - 1)
                         : rows_per_block;
    const index_t row0 = b * rows_per_block;
    const index_t row1 = row0 + block.num_rows;
    const diag_offset_t pos_limit = n - row1;
    const diag_offset_t neg_limit = row0;
    for (diag_offset_t o = -core; o <= core; ++o) block.offsets.push_back(o);
    index_t added = 0;
    int attempts = 0;
    while (added < extra_per_block && attempts < 100000) {
      ++attempts;
      const bool positive_ok = pos_limit >= core + 2;
      const bool negative_ok = neg_limit >= core + 2;
      CRSD_CHECK_MSG(positive_ok || negative_ok,
                     "matrix too small for far diagonals covering block " << b);
      bool positive = positive_ok && (!negative_ok || rng.next_bool(0.5));
      diag_offset_t off = static_cast<diag_offset_t>(
          rng.next_index(core + 2, positive ? pos_limit : neg_limit));
      if (!positive) off = -off;
      if (used.insert(off).second) {
        block.offsets.push_back(off);
        ++added;
      }
    }
    CRSD_CHECK_MSG(added == extra_per_block,
                   "could not place " << extra_per_block
                                      << " unique far diagonals for block "
                                      << b << " of " << num_blocks);
    std::sort(block.offsets.begin(), block.offsets.end());
  }
  return patterned_diagonals(n, blocks, fill, rng);
}

Coo<double> broken_diagonals(index_t n, const std::vector<BrokenDiagonal>& diags,
                             Rng& rng) {
  CRSD_CHECK_MSG(n >= 1, "matrix must be non-empty");
  Coo<double> a(n, n);
  // Main diagonal first, always full.
  for (index_t r = 0; r < n; ++r) a.add(r, r, 4.0);

  for (const auto& d : diags) {
    if (d.offset == 0) continue;  // already emitted
    CRSD_CHECK_MSG(d.coverage > 0.0 && d.coverage <= 1.0,
                   "coverage must be in (0,1]");
    CRSD_CHECK_MSG(d.num_sections >= 1, "need at least one section");
    const size64_t len = diagonal_length(n, n, d.offset);
    if (len == 0) continue;
    const index_t r0 = d.offset < 0 ? -d.offset : 0;
    // Carve `num_sections` live runs of equal length, evenly spaced; the
    // gaps between them are the idle sections.
    const size64_t live = static_cast<size64_t>(double(len) * d.coverage);
    const size64_t run = std::max<size64_t>(1, live / d.num_sections);
    const size64_t stride = len / d.num_sections;
    for (index_t s = 0; s < d.num_sections; ++s) {
      const size64_t start = static_cast<size64_t>(s) * stride;
      const size64_t stop = std::min<size64_t>(len, start + run);
      for (size64_t i = start; i < stop; ++i) {
        const index_t r = r0 + static_cast<index_t>(i);
        a.add(r, r + d.offset, rng.next_double(-1.0, -0.1));
      }
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> partially_diagonal(index_t top_rows, index_t bottom_rows,
                               index_t band, index_t max_row_nnz, Rng& rng) {
  const index_t n = top_rows + bottom_rows;
  CRSD_CHECK_MSG(n >= 1, "matrix must be non-empty");
  Coo<double> a(n, n);
  for (index_t r = 0; r < top_rows; ++r) {
    for (diag_offset_t d : {-band, -1, 0, 1, band}) {
      const index_t c = r + d;
      if (c >= 0 && c < n) a.add(r, c, 1.0 + 0.001 * double(r % 89));
    }
  }
  for (index_t r = top_rows; r < n; ++r) {
    const index_t row_nnz =
        4 + (r * 37) % std::max<index_t>(1, max_row_nnz - 4);
    for (index_t k = 0; k < row_nnz; ++k) {
      const index_t c =
          static_cast<index_t>(rng.next_u64() % static_cast<std::uint64_t>(n));
      a.add(r, c, 0.5 + 0.001 * double(k));
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> astro_convection(index_t nx, index_t ny, index_t nz,
                             bool unstructured, Rng& rng) {
  // 7-point FDM backbone.
  Coo<double> a = stencil_7pt_3d(nx, ny, nz);
  const index_t n = a.num_rows();

  // FEM coupling diagonals at ±(nx-1) and ±(nx+1), broken by idle sections
  // (the red-dotted structure of the paper's Fig. 1). The structured family
  // has a few long live runs; the unstructured family shatters them.
  const index_t sections = unstructured ? std::max<index_t>(8, n / 4000)
                                        : std::max<index_t>(2, n / 40000);
  std::vector<BrokenDiagonal> extra;
  for (diag_offset_t base : {nx - 1, nx + 1}) {
    extra.push_back({base, 0.45, sections});
    extra.push_back({-base, 0.45, sections});
  }
  Coo<double> coupling = broken_diagonals(n, extra, rng);

  Coo<double> merged(n, n);
  merged.reserve(a.nnz() + coupling.nnz());
  auto append = [&merged](const Coo<double>& src, bool skip_main) {
    const auto& rows = src.row_indices();
    const auto& cols = src.col_indices();
    const auto& vals = src.values();
    for (size64_t k = 0; k < src.nnz(); ++k) {
      if (skip_main && rows[k] == cols[k]) continue;
      merged.add(rows[k], cols[k], vals[k]);
    }
  };
  append(a, /*skip_main=*/false);
  append(coupling, /*skip_main=*/true);

  // Scatter points: boundary-condition rows coupling distant shells.
  const size64_t scatter =
      static_cast<size64_t>(n) / (unstructured ? 400 : 2000);
  merged.canonicalize();
  inject_scatter(merged, scatter, rng);
  return merged;
}

void inject_scatter(Coo<double>& a, size64_t count, Rng& rng) {
  if (count == 0) return;
  const index_t n_rows = a.num_rows();
  const index_t n_cols = a.num_cols();
  CRSD_CHECK_MSG(n_rows > 0 && n_cols > 0, "cannot scatter into empty matrix");
  Coo<double> out(n_rows, n_cols);
  out.reserve(a.nnz() + count);
  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  for (size64_t k = 0; k < a.nnz(); ++k) out.add(rows[k], cols[k], vals[k]);
  for (size64_t k = 0; k < count; ++k) {
    out.add(rng.next_index(0, n_rows - 1), rng.next_index(0, n_cols - 1),
            rng.next_double(-0.05, 0.05));
  }
  out.canonicalize();
  a = std::move(out);
}

void make_diagonally_dominant(Coo<double>& a, double margin) {
  CRSD_CHECK_MSG(a.num_rows() == a.num_cols(),
                 "diagonal dominance needs a square matrix");
  const index_t n = a.num_rows();
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  for (size64_t k = 0; k < a.nnz(); ++k) {
    if (rows[k] != cols[k]) {
      row_abs[static_cast<std::size_t>(rows[k])] += std::abs(vals[k]);
    }
  }
  Coo<double> out(n, n);
  out.reserve(a.nnz() + static_cast<size64_t>(n));
  std::vector<bool> has_diag(static_cast<std::size_t>(n), false);
  for (size64_t k = 0; k < a.nnz(); ++k) {
    if (rows[k] == cols[k]) {
      has_diag[static_cast<std::size_t>(rows[k])] = true;
      out.add(rows[k], cols[k],
              row_abs[static_cast<std::size_t>(rows[k])] + margin);
    } else {
      out.add(rows[k], cols[k], vals[k]);
    }
  }
  for (index_t r = 0; r < n; ++r) {
    if (!has_diag[static_cast<std::size_t>(r)]) {
      out.add(r, r, row_abs[static_cast<std::size_t>(r)] + margin);
    }
  }
  out.canonicalize();
  a = std::move(out);
}

}  // namespace crsd
