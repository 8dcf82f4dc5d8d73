// Coordinate (COO) sparse matrix — the library's exchange format. Matrix
// generators and the Matrix Market reader produce Coo; every storage format
// (CSR/DIA/ELL/HYB/CRSD) is built from a canonicalized Coo.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace crsd {

/// Struct-of-arrays triplet matrix. Invariant after canonicalize(): entries
/// sorted by (row, col), no duplicates, no explicit zeros unless
/// keep_zeros was requested, all indices in range.
template <Real T>
class Coo {
 public:
  Coo() = default;
  Coo(index_t num_rows, index_t num_cols)
      : rows_(num_rows), cols_(num_cols) {
    CRSD_CHECK_MSG(num_rows >= 0 && num_cols >= 0, "negative dimensions");
  }

  index_t num_rows() const { return rows_; }
  index_t num_cols() const { return cols_; }
  size64_t nnz() const { return row_.size(); }

  const std::vector<index_t>& row_indices() const { return row_; }
  const std::vector<index_t>& col_indices() const { return col_; }
  const std::vector<T>& values() const { return val_; }

  /// Appends one entry. Duplicates are allowed until canonicalize(), which
  /// sums them (a Matrix Market file may repeat an entry).
  void add(index_t r, index_t c, T v) {
    CRSD_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    row_.push_back(r);
    col_.push_back(c);
    val_.push_back(v);
  }

  void reserve(size64_t n) {
    row_.reserve(n);
    col_.reserve(n);
    val_.reserve(n);
  }

  /// Sorts by (row, col), merges duplicates by summation in input order,
  /// and drops explicit zeros (unless keep_zeros). Idempotent. Triplets that
  /// are already strictly ascending with nothing to drop, as in every file
  /// write_matrix_market writes, cost one O(nnz) scan.
  void canonicalize(bool keep_zeros = false) {
    if (strictly_ascending(keep_zeros)) {
      canonical_ = true;
      return;
    }
    const size64_t n = nnz();
    std::vector<size64_t> perm(n);
    std::iota(perm.begin(), perm.end(), size64_t{0});
    // Ties break on input position, so duplicates sum in input order.
    std::sort(perm.begin(), perm.end(), [this](size64_t a, size64_t b) {
      if (row_[a] != row_[b]) return row_[a] < row_[b];
      if (col_[a] != col_[b]) return col_[a] < col_[b];
      return a < b;
    });

    std::vector<index_t> new_row, new_col;
    std::vector<T> new_val;
    new_row.reserve(n);
    new_col.reserve(n);
    new_val.reserve(n);
    for (size64_t k = 0; k < n; ++k) {
      const size64_t i = perm[k];
      if (!new_row.empty() && new_row.back() == row_[i] &&
          new_col.back() == col_[i]) {
        new_val.back() += val_[i];
      } else {
        new_row.push_back(row_[i]);
        new_col.push_back(col_[i]);
        new_val.push_back(val_[i]);
      }
    }
    if (!keep_zeros) {
      size64_t w = 0;
      for (size64_t k = 0; k < new_row.size(); ++k) {
        if (new_val[k] != T(0)) {
          new_row[w] = new_row[k];
          new_col[w] = new_col[k];
          new_val[w] = new_val[k];
          ++w;
        }
      }
      new_row.resize(w);
      new_col.resize(w);
      new_val.resize(w);
    }
    row_ = std::move(new_row);
    col_ = std::move(new_col);
    val_ = std::move(new_val);
    canonical_ = true;
  }

  bool is_canonical() const { return canonical_; }

  /// Reference SpMV: y = A*x computed straight off the triplets. This is the
  /// ground truth every format's kernel is tested against.
  void spmv_reference(const T* x, T* y) const {
    CRSD_CHECK(x != nullptr && y != nullptr);
    std::fill(y, y + rows_, T(0));
    for (size64_t k = 0; k < nnz(); ++k) {
      y[row_[k]] += val_[k] * x[col_[k]];
    }
  }

  /// Converts the value type (used to derive the float suite from the
  /// double-precision generators).
  template <Real U>
  Coo<U> cast() const {
    Coo<U> out(rows_, cols_);
    out.reserve(nnz());
    for (size64_t k = 0; k < nnz(); ++k) {
      out.add(row_[k], col_[k], static_cast<U>(val_[k]));
    }
    if (canonical_) out.mark_canonical();
    return out;
  }

  /// Extracts rows [row_begin, row_end) as a standalone matrix with the
  /// same column space; row indices are rebased to 0. Used by the hybrid
  /// CPU+GPU splitter. Requires canonical input; the slice is canonical.
  Coo row_slice(index_t row_begin, index_t row_end) const {
    CRSD_CHECK_MSG(is_canonical(), "row_slice requires canonical COO");
    CRSD_CHECK_MSG(0 <= row_begin && row_begin <= row_end && row_end <= rows_,
                   "bad slice [" << row_begin << ", " << row_end << ")");
    Coo out(row_end - row_begin, cols_);
    const auto lo = std::lower_bound(row_.begin(), row_.end(), row_begin) -
                    row_.begin();
    const auto hi =
        std::lower_bound(row_.begin(), row_.end(), row_end) - row_.begin();
    out.reserve(static_cast<size64_t>(hi - lo));
    for (auto k = lo; k < hi; ++k) {
      out.add(row_[static_cast<std::size_t>(k)] - row_begin,
              col_[static_cast<std::size_t>(k)],
              val_[static_cast<std::size_t>(k)]);
    }
    out.mark_canonical();
    return out;
  }

  /// Internal: asserts canonical order was externally established (cast()).
  void mark_canonical() { canonical_ = true; }

 private:
  /// True when canonicalize() has nothing to do: entries strictly ascending
  /// by (row, col), hence no duplicates, and no zero it would drop.
  bool strictly_ascending(bool keep_zeros) const {
    for (size64_t k = 0; k < nnz(); ++k) {
      if (!keep_zeros && val_[k] == T(0)) return false;
      if (k > 0 && (row_[k - 1] > row_[k] ||
                    (row_[k - 1] == row_[k] && col_[k - 1] >= col_[k]))) {
        return false;
      }
    }
    return true;
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_;
  std::vector<index_t> col_;
  std::vector<T> val_;
  bool canonical_ = false;
};

}  // namespace crsd
