// Unit tests for COO canonicalization, reference SpMV, Matrix Market I/O,
// and structure statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "matrix/coo.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/stats.hpp"

namespace crsd {
namespace {

TEST(Coo, CanonicalizeSortsAndMergesDuplicates) {
  Coo<double> a(3, 3);
  a.add(2, 1, 1.0);
  a.add(0, 0, 2.0);
  a.add(2, 1, 3.0);
  a.add(1, 2, -1.0);
  a.canonicalize();
  ASSERT_EQ(a.nnz(), 3u);
  EXPECT_EQ(a.row_indices(), (std::vector<index_t>{0, 1, 2}));
  EXPECT_EQ(a.col_indices(), (std::vector<index_t>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(a.values()[2], 4.0);  // 1 + 3 merged
}

TEST(Coo, CanonicalizeDropsExplicitZeros) {
  Coo<double> a(2, 2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 1.0);
  a.add(0, 1, -1.0);  // cancels to zero
  a.canonicalize();
  EXPECT_EQ(a.nnz(), 1u);
  Coo<double> b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 1, -1.0);
  b.canonicalize(/*keep_zeros=*/true);
  EXPECT_EQ(b.nnz(), 1u);
  EXPECT_DOUBLE_EQ(b.values()[0], 0.0);
}

struct Triplet {
  index_t r = 0;
  index_t c = 0;
  double v = 0.0;
};

Coo<double> coo_from(index_t rows, index_t cols,
                     const std::vector<Triplet>& ts) {
  Coo<double> a(rows, cols);
  for (const Triplet& t : ts) a.add(t.r, t.c, t.v);
  return a;
}

void expect_bitwise(const Coo<double>& a, const std::vector<Triplet>& want) {
  ASSERT_EQ(a.nnz(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(a.row_indices()[k], want[k].r) << k;
    ASSERT_EQ(a.col_indices()[k], want[k].c) << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.values()[k]),
              std::bit_cast<std::uint64_t>(want[k].v))
        << k;
  }
}

TEST(Coo, CanonicalizeMatchesReferenceSortInEveryInputOrder) {
  // Distinct random cells with nonzero values: canonical form is exactly
  // the (row, col) sort, whichever order the triplets arrive in and
  // whichever of the scan-only or sorting paths runs.
  Rng rng(11);
  const index_t rows = 97, cols = 61;
  std::vector<Triplet> ts;
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.next_below(5) == 0) {
        ts.push_back({r, c, rng.next_double(0.5, 2.0)});
      }
    }
  }
  std::vector<Triplet> want = ts;
  std::sort(want.begin(), want.end(), [](const Triplet& x, const Triplet& y) {
    return std::tie(x.r, x.c) < std::tie(y.r, y.c);
  });

  std::vector<Triplet> shuffled = ts;
  for (std::size_t k = shuffled.size(); k > 1; --k) {
    std::swap(shuffled[k - 1], shuffled[rng.next_below(k)]);
  }
  std::vector<Triplet> row_sorted = shuffled;  // columns unordered in a row
  std::stable_sort(
      row_sorted.begin(), row_sorted.end(),
      [](const Triplet& x, const Triplet& y) { return x.r < y.r; });
  std::vector<Triplet> col_sorted = want;
  std::stable_sort(
      col_sorted.begin(), col_sorted.end(),
      [](const Triplet& x, const Triplet& y) { return x.c < y.c; });

  for (const auto* order : {&want, &shuffled, &row_sorted, &col_sorted}) {
    Coo<double> a = coo_from(rows, cols, *order);
    a.canonicalize();
    EXPECT_TRUE(a.is_canonical());
    expect_bitwise(a, want);
    a.canonicalize();  // idempotent
    expect_bitwise(a, want);
  }
}

TEST(Coo, CanonicalizeSumsDuplicatesInInputOrder) {
  // 1e16 + 1 rounds back to 1e16, so the three duplicates of (3, 4) sum to
  // 0 in this order and to 1 with the last two swapped. They are scattered
  // through enough other entries that an unstable sort would reorder them.
  Rng rng(5);
  for (const bool swap_last : {false, true}) {
    std::vector<Triplet> ts;
    for (index_t r = 0; r < 40; ++r) {
      for (index_t c = 0; c < 40; ++c) {
        if (!(r == 3 && c == 4)) ts.push_back({r, c, 1.0});
      }
    }
    for (std::size_t k = ts.size(); k > 1; --k) {
      std::swap(ts[k - 1], ts[rng.next_below(k)]);
    }
    const double third = swap_last ? 1.0 : -1e16;
    const double second = swap_last ? -1e16 : 1.0;
    ts.insert(ts.begin() + 1500, Triplet{3, 4, third});
    ts.insert(ts.begin() + 700, Triplet{3, 4, second});
    ts.insert(ts.begin() + 100, Triplet{3, 4, 1e16});
    const double sum = swap_last ? 1.0 : 0.0;

    Coo<double> kept = coo_from(40, 40, ts);
    kept.canonicalize(/*keep_zeros=*/true);
    ASSERT_EQ(kept.nnz(), 1600u);
    const std::size_t at = 3 * 40 + 4;
    EXPECT_EQ(kept.row_indices()[at], 3);
    EXPECT_EQ(kept.col_indices()[at], 4);
    EXPECT_EQ(kept.values()[at], sum) << "swap_last=" << swap_last;

    Coo<double> dropped = coo_from(40, 40, ts);
    dropped.canonicalize();
    EXPECT_EQ(dropped.nnz(), sum == 0.0 ? 1599u : 1600u);
  }
}

TEST(Coo, CanonicalizeKeepZerosOnAlreadySortedInput) {
  // Sorted, duplicate-free input with an explicit zero: the zero still goes
  // unless keep_zeros, and keep_zeros still keeps it.
  const std::vector<Triplet> ts = {{0, 0, 1.0}, {0, 2, 0.0}, {1, 1, -0.0},
                                   {2, 0, 3.0}};
  Coo<double> kept = coo_from(3, 3, ts);
  kept.canonicalize(/*keep_zeros=*/true);
  expect_bitwise(kept, ts);
  Coo<double> dropped = coo_from(3, 3, ts);
  dropped.canonicalize();
  expect_bitwise(dropped, {{0, 0, 1.0}, {2, 0, 3.0}});
}

TEST(Coo, ReferenceSpmvMatchesHandComputation) {
  // [2 0 1; 0 3 0] * [1 2 3]^T = [5, 6]
  Coo<double> a(2, 3);
  a.add(0, 0, 2.0);
  a.add(0, 2, 1.0);
  a.add(1, 1, 3.0);
  a.canonicalize();
  const double x[3] = {1, 2, 3};
  double y[2] = {-7, -7};
  a.spmv_reference(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Coo, CastPreservesStructure) {
  Coo<double> a(2, 2);
  a.add(0, 1, 1.25);
  a.add(1, 0, -2.5);
  a.canonicalize();
  Coo<float> f = a.cast<float>();
  EXPECT_TRUE(f.is_canonical());
  EXPECT_EQ(f.nnz(), 2u);
  EXPECT_FLOAT_EQ(f.values()[0], 1.25f);
}

TEST(MatrixMarket, RoundTripGeneralReal) {
  Coo<double> a(4, 5);
  a.add(0, 0, 1.5);
  a.add(3, 4, -2.25);
  a.add(1, 2, 1e-3);
  a.canonicalize();
  std::stringstream buf;
  write_matrix_market(buf, a);
  Coo<double> b = read_matrix_market(buf);
  EXPECT_EQ(b.num_rows(), 4);
  EXPECT_EQ(b.num_cols(), 5);
  ASSERT_EQ(b.nnz(), a.nnz());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(b.row_indices()[k], a.row_indices()[k]);
    EXPECT_EQ(b.col_indices()[k], a.col_indices()[k]);
    EXPECT_DOUBLE_EQ(b.values()[k], a.values()[k]);
  }
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 5.0\n"
      "3 3 1.0\n");
  Coo<double> a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 4u);  // (0,0), (1,0), (0,1), (2,2)
  double x[3] = {1, 1, 1};
  double y[3];
  a.spmv_reference(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(MatrixMarket, SkewSymmetricExpansion) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  Coo<double> a = read_matrix_market(in);
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.values()[0], -3.0);  // (0,1) mirrored with sign flip
  EXPECT_DOUBLE_EQ(a.values()[1], 3.0);
}

TEST(MatrixMarket, PatternFieldDefaultsToOnes) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 2\n");
  Coo<double> a = read_matrix_market(in);
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.values()[0], 1.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  std::stringstream bad1("not a banner\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad1), Error);
  std::stringstream bad2(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n");
  EXPECT_THROW(read_matrix_market(bad2), Error);  // index out of range
  std::stringstream bad3(
      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(bad3), Error);  // truncated
  std::stringstream bad4(
      "%%MatrixMarket matrix array real general\n2 2\n1.0\n");
  EXPECT_THROW(read_matrix_market(bad4), Error);  // dense unsupported
}

TEST(Stats, DiagonalHistogramAndPaddedSizes) {
  // 4x4 with main diagonal full and one superdiagonal with 2 entries.
  Coo<double> a(4, 4);
  for (index_t i = 0; i < 4; ++i) a.add(i, i, 1.0);
  a.add(0, 1, 1.0);
  a.add(2, 3, 1.0);
  a.canonicalize();
  const StructureStats s = compute_stats(a);
  EXPECT_EQ(s.nnz, 6u);
  ASSERT_EQ(s.num_diagonals(), 2u);
  EXPECT_EQ(s.diagonals[0].offset, 0);
  EXPECT_EQ(s.diagonals[0].nnz, 4u);
  EXPECT_EQ(s.diagonals[0].length, 4u);
  EXPECT_EQ(s.diagonals[1].offset, 1);
  EXPECT_EQ(s.diagonals[1].nnz, 2u);
  EXPECT_EQ(s.diagonals[1].length, 3u);
  EXPECT_EQ(s.dia_padded_elements(), 8u);
  EXPECT_EQ(s.max_nnz_per_row, 2);
  EXPECT_EQ(s.min_nnz_per_row, 1);
  EXPECT_EQ(s.ell_padded_elements(), 8u);
  EXPECT_NEAR(s.dia_efficiency(), 0.75, 1e-12);
}

TEST(Stats, DiagonalLengthRectangular) {
  EXPECT_EQ(diagonal_length(3, 5, 0), 3u);
  EXPECT_EQ(diagonal_length(3, 5, 2), 3u);
  EXPECT_EQ(diagonal_length(3, 5, 4), 1u);
  EXPECT_EQ(diagonal_length(3, 5, -2), 1u);
  EXPECT_EQ(diagonal_length(3, 5, -3), 0u);
  EXPECT_EQ(diagonal_length(5, 3, -4), 1u);
}

}  // namespace
}  // namespace crsd
