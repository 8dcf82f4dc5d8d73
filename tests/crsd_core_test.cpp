// Unit tests for the CRSD core: AD/NAD grouping, the paper's Fig. 2 worked
// example, idle-section fill/break behaviour, scatter extraction, SpMV
// correctness, stats/footprint accounting and the index_t overflow guard
// (with an injected limit, so the tests need no 2^31-entry matrices).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/dump.hpp"
#include "matrix/generators.hpp"

namespace crsd {
namespace {

// The matrix of the paper's Fig. 2 (6x9): rows 0-1 carry diagonals
// {0, 2, 3, 5, 7}; rows 2-5 carry {-2, -1, +2} with a hole at (4,3); (5,5)
// is the scatter point v55.
Coo<double> fig2_matrix() {
  Coo<double> a(6, 9);
  auto v = [](index_t r, index_t c) { return 10.0 * r + c + 1.0; };
  // Pattern 1 rows.
  for (index_t r : {0, 1}) {
    for (diag_offset_t off : {0, 2, 3, 5, 7}) a.add(r, r + off, v(r, r + off));
  }
  // Pattern 2 rows: offsets {-2,-1,+2}, (4,3) missing.
  for (index_t r : {2, 3, 4, 5}) {
    a.add(r, r - 2, v(r, r - 2));
    if (r != 4) a.add(r, r - 1, v(r, r - 1));
    a.add(r, r + 2, v(r, r + 2));
  }
  a.add(5, 5, v(5, 5));  // scatter point
  a.canonicalize();
  return a;
}

TEST(GroupDiagonals, PaperExample) {
  // {0,2,3,5,7} -> {(NAD,1),(AD,2),(NAD,2)}  (§II-B worked example)
  const auto groups = group_diagonals({0, 2, 3, 5, 7});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (DiagonalGroup{GroupType::kNonAdjacent, 1, 0}));
  EXPECT_EQ(groups[1], (DiagonalGroup{GroupType::kAdjacent, 2, 1}));
  EXPECT_EQ(groups[2], (DiagonalGroup{GroupType::kNonAdjacent, 2, 3}));
}

TEST(GroupDiagonals, EdgeCases) {
  EXPECT_TRUE(group_diagonals({}).empty());
  auto one = group_diagonals({5});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].type, GroupType::kNonAdjacent);
  // Fully adjacent run -> single AD group.
  auto band = group_diagonals({-2, -1, 0, 1, 2});
  ASSERT_EQ(band.size(), 1u);
  EXPECT_EQ(band[0], (DiagonalGroup{GroupType::kAdjacent, 5, 0}));
  // Two AD runs separated by one NAD diagonal.
  auto mixed = group_diagonals({0, 1, 5, 8, 9, 10});
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed[0], (DiagonalGroup{GroupType::kAdjacent, 2, 0}));
  EXPECT_EQ(mixed[1], (DiagonalGroup{GroupType::kNonAdjacent, 1, 2}));
  EXPECT_EQ(mixed[2], (DiagonalGroup{GroupType::kAdjacent, 3, 3}));
  // Negative-positive adjacency across zero.
  auto cross = group_diagonals({-1, 0, 3});
  ASSERT_EQ(cross.size(), 2u);
  EXPECT_EQ(cross[0].type, GroupType::kAdjacent);
}

TEST(GroupDiagonals, RejectsUnsortedInput) {
  EXPECT_THROW(group_diagonals({3, 1}), Error);
  EXPECT_THROW(group_diagonals({1, 1}), Error);
}

TEST(Pattern, HelpersAndToString) {
  DiagonalPattern p;
  p.offsets = {0, 2, 3, 5, 7};
  p.groups = group_diagonals(p.offsets);
  EXPECT_EQ(pattern_to_string(p), "{(NAD,1),(AD,2),(NAD,2)}");
  EXPECT_EQ(p.max_adjacent_width(), 2);
  EXPECT_NEAR(p.adjacent_fraction(), 2.0 / 5.0, 1e-12);
  EXPECT_EQ(p.slots_per_segment(4), 20u);
}

TEST(Builder, Fig2ReproducesPaperStructure) {
  const auto a = fig2_matrix();
  CrsdConfig cfg;
  cfg.mrows = 2;
  const auto m = build(a, cfg);

  ASSERT_EQ(m.num_patterns(), 2);
  const auto& p0 = m.patterns()[0];
  EXPECT_EQ(p0.start_row, 0);
  EXPECT_EQ(p0.num_segments, 1);
  EXPECT_EQ(p0.offsets, (std::vector<diag_offset_t>{0, 2, 3, 5, 7}));
  EXPECT_EQ(pattern_to_string(p0), "{(NAD,1),(AD,2),(NAD,2)}");

  const auto& p1 = m.patterns()[1];
  EXPECT_EQ(p1.start_row, 2);
  EXPECT_EQ(p1.num_segments, 2);
  EXPECT_EQ(p1.offsets, (std::vector<diag_offset_t>{-2, -1, 2}));
  EXPECT_EQ(pattern_to_string(p1), "{(AD,2),(NAD,1)}");

  // Scatter: exactly row 5, whole row, width 4 (paper's num_scatter_width).
  EXPECT_EQ(m.scatter_rows(), (std::vector<index_t>{5}));
  EXPECT_EQ(m.scatter_width(), 4);
}

TEST(Builder, Fig2InferredTableIII) {
  // Table III of the paper: NRS = {1,2}, NNzRS = {10,6}, SR = {0,2},
  // NDias = {5,3}.
  const auto m = build(fig2_matrix(), CrsdConfig{.mrows = 2});
  ASSERT_EQ(m.num_patterns(), 2);
  EXPECT_EQ(m.patterns()[0].num_segments, 1);
  EXPECT_EQ(m.patterns()[1].num_segments, 2);
  EXPECT_EQ(m.patterns()[0].slots_per_segment(2), 10u);
  EXPECT_EQ(m.patterns()[1].slots_per_segment(2), 6u);
  EXPECT_EQ(m.patterns()[0].start_row, 0);
  EXPECT_EQ(m.patterns()[1].start_row, 2);
  EXPECT_EQ(m.patterns()[0].num_diagonals(), 5);
  EXPECT_EQ(m.patterns()[1].num_diagonals(), 3);
  // Cumulative segment table used by the kernels' group_id search.
  EXPECT_EQ(m.cum_segments(), (std::vector<index_t>{0, 1, 3}));
  EXPECT_EQ(m.pattern_of_segment(0), 0);
  EXPECT_EQ(m.pattern_of_segment(1), 1);
  EXPECT_EQ(m.pattern_of_segment(2), 1);
}

TEST(Builder, Fig2ValueLayoutMatchesFig4) {
  // Keep scatter-row values in the diagonal part (as the paper's Fig. 4
  // does) to compare the value stream literally.
  CrsdConfig cfg;
  cfg.mrows = 2;
  cfg.zero_scatter_rows_in_dia = false;
  const auto m = build(fig2_matrix(), cfg);
  auto v = [](index_t r, index_t c) { return 10.0 * r + c + 1.0; };

  // Pattern 0, segment 0, diagonal-major lanes:
  // (v00,v11),(v02,v13,v03,v14),(v05,v16,v07,v18).
  const double want0[] = {v(0, 0), v(1, 1), v(0, 2), v(1, 3), v(0, 3),
                          v(1, 4), v(0, 5), v(1, 6), v(0, 7), v(1, 8)};
  for (index_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(m.dia_values()[static_cast<std::size_t>(i)], want0[i]);
  }
  // Pattern 1, segment 1 (rows 4-5): {(v42,v53,0,v54),(v46,v57)} — the zero
  // is the filled v43 hole of Fig. 2.
  EXPECT_DOUBLE_EQ(m.dia_values()[m.slot(1, 1, 0, 0)], v(4, 2));
  EXPECT_DOUBLE_EQ(m.dia_values()[m.slot(1, 1, 0, 1)], v(5, 3));
  EXPECT_DOUBLE_EQ(m.dia_values()[m.slot(1, 1, 1, 0)], 0.0);  // filled zero
  EXPECT_DOUBLE_EQ(m.dia_values()[m.slot(1, 1, 1, 1)], v(5, 4));
  EXPECT_DOUBLE_EQ(m.dia_values()[m.slot(1, 1, 2, 0)], v(4, 6));
  EXPECT_DOUBLE_EQ(m.dia_values()[m.slot(1, 1, 2, 1)], v(5, 7));
}

TEST(Builder, Fig2SpmvMatchesReference) {
  const auto a = fig2_matrix();
  for (bool zero_scatter : {true, false}) {
    CrsdConfig cfg;
    cfg.mrows = 2;
    cfg.zero_scatter_rows_in_dia = zero_scatter;
    const auto m = build(a, cfg);
    std::vector<double> x(9);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.1 * double(i) - 0.3;
    std::vector<double> want(6), got(6, -1.0);
    a.spmv_reference(x.data(), want.data());
    m.spmv(x.data(), got.data());
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

TEST(Builder, Fig4DumpNotation) {
  CrsdConfig cfg;
  cfg.mrows = 2;
  cfg.zero_scatter_rows_in_dia = false;
  const auto m = build(fig2_matrix(), cfg);
  std::ostringstream os;
  dump_crsd(os, m);
  const std::string s = os.str();
  EXPECT_NE(s.find("num_scatter_rows = 1; num_dia_patterns = 2; "
                   "num_scatter_width = 4;"),
            std::string::npos);
  EXPECT_NE(s.find("{(NAD,1),(AD,2),(NAD,2)},{(AD,2),(NAD,1)}"),
            std::string::npos);
  // Index array: R0, 1 segment, C0 | C2 (AD first only) | C5, C7; then
  // R2, 2 segments, C0 (AD first) | C4.
  EXPECT_NE(s.find("crsd_dia_index = {R0, 1, C0, C2, C5, C7 | R2, 2, C0, C4}"),
            std::string::npos);
  EXPECT_NE(s.find("scatter_rowno = {R5}"), std::string::npos);
}

TEST(Builder, IdleSectionBreaksDiagonal) {
  // A far diagonal live only in the first and last quarters of the matrix:
  // the dead middle must break it into separate patterns, not be filled.
  Coo<double> a(512, 512);
  for (index_t r = 0; r < 512; ++r) a.add(r, r, 2.0);
  for (index_t r = 0; r < 128; ++r) a.add(r, r + 100, 1.0);
  for (index_t r = 384; r < 412; ++r) a.add(r, r + 100, 1.0);
  a.canonicalize();
  CrsdConfig cfg;
  cfg.mrows = 32;
  const auto m = build(a, cfg);
  // Patterns: {0,100} rows 0..127, {0} rows 128..383, {0,100} rows 384..,
  // then possibly {0} tail.
  ASSERT_GE(m.num_patterns(), 3);
  EXPECT_EQ(m.patterns()[0].offsets, (std::vector<diag_offset_t>{0, 100}));
  EXPECT_EQ(m.patterns()[1].offsets, (std::vector<diag_offset_t>{0}));
  EXPECT_EQ(m.patterns()[2].offsets, (std::vector<diag_offset_t>{0, 100}));
  EXPECT_EQ(m.num_scatter_rows(), 0);
}

TEST(Builder, ShortGapIsBridgedWithZeroFill) {
  // One dead segment between two live runs: with fill_max_gap_segments=1
  // the diagonal stays unbroken (a single pattern), with 0 it breaks.
  Coo<double> a(96, 96);
  for (index_t r = 0; r < 96; ++r) a.add(r, r, 2.0);
  for (index_t r = 0; r < 96; ++r) {
    if (r + 3 < 96 && (r < 32 || r >= 64)) a.add(r, r + 3, 1.0);
  }
  a.canonicalize();
  CrsdConfig bridged;
  bridged.mrows = 32;
  bridged.fill_max_gap_segments = 1;
  EXPECT_EQ(build(a, bridged).num_patterns(), 1);
  CrsdConfig broken = bridged;
  broken.fill_max_gap_segments = 0;
  EXPECT_EQ(build(a, broken).num_patterns(), 3);
  // Both must compute the same product.
  std::vector<double> x(96, 1.0), y1(96), y2(96), want(96);
  a.spmv_reference(x.data(), want.data());
  build(a, bridged).spmv(x.data(), y1.data());
  build(a, broken).spmv(x.data(), y2.data());
  for (int i = 0; i < 96; ++i) {
    EXPECT_NEAR(y1[i], want[i], 1e-12);
    EXPECT_NEAR(y2[i], want[i], 1e-12);
  }
}

TEST(Builder, LoneNonzeroBecomesScatterPoint) {
  Coo<double> a(64, 64);
  for (index_t r = 0; r < 64; ++r) a.add(r, r, 2.0);
  a.add(10, 40, 7.0);  // single nonzero on offset 30
  a.canonicalize();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  EXPECT_EQ(m.scatter_rows(), (std::vector<index_t>{10}));
  EXPECT_EQ(m.scatter_width(), 2);  // row 10 = diagonal + scatter point
  ASSERT_EQ(m.num_patterns(), 1);
  EXPECT_EQ(m.patterns()[0].offsets, (std::vector<diag_offset_t>{0}));
}

TEST(Builder, AllScatterMatrixStillCorrect) {
  // Uniform random sparse: essentially nothing is diagonal-structured, so
  // CRSD degenerates to the scatter ELL — and must stay correct.
  Rng rng(31);
  Coo<double> a(128, 128);
  for (int k = 0; k < 400; ++k) {
    a.add(rng.next_index(0, 127), rng.next_index(0, 127),
          rng.next_double(-1, 1));
  }
  a.canonicalize();
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::vector<double> x(128), want(128), got(128);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(double(i));
  a.spmv_reference(x.data(), want.data());
  m.spmv(x.data(), got.data());
  for (int i = 0; i < 128; ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(Builder, PartialTailSegment) {
  // n not a multiple of mrows: the last segment has fewer lanes.
  const auto a = stencil_5pt_2d(7, 9);  // 63 rows
  const auto m = build(a, CrsdConfig{.mrows = 16});
  EXPECT_EQ(m.num_segments_total(), 4);
  std::vector<double> x(63, 1.0), want(63), got(63, -5.0);
  a.spmv_reference(x.data(), want.data());
  m.spmv(x.data(), got.data());
  for (int i = 0; i < 63; ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(Builder, ParallelSpmvMatchesSerial) {
  Rng rng(32);
  const auto a = astro_convection(8, 8, 6, true, rng);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.next_double(-1, 1);
  std::vector<double> serial(x.size()), parallel(x.size(), -1.0);
  m.spmv(x.data(), serial.data());
  ThreadPool pool(4);
  m.spmv_parallel(pool, x.data(), parallel.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i], serial[i]);  // identical op order per row
  }
}

TEST(Builder, StatsAccounting) {
  const auto m = build(fig2_matrix(), CrsdConfig{.mrows = 2});
  const CrsdStats st = m.stats();
  EXPECT_EQ(st.num_patterns, 2);
  EXPECT_EQ(st.num_segments, 3);
  EXPECT_EQ(st.dia_slots, 10u + 2u * 6u);
  EXPECT_EQ(st.num_scatter_rows, 1);
  EXPECT_EQ(st.scatter_width, 4);
  EXPECT_EQ(st.scatter_nnz, 4u);
  // Diagonal part holds everything except row 5's entries (zeroed because
  // row 5 is a scatter row): 22 nnz total - 4 scatter-row nnz = 18.
  EXPECT_EQ(st.dia_nnz, 18u);
  EXPECT_GT(st.ad_diag_fraction, 0.0);
  EXPECT_GT(st.fill_ratio(), 0.0);
}

TEST(Builder, FootprintBeatsDiaOnPatternedMatrix) {
  Rng rng(33);
  const auto a = fem_shell_like(4096, 8, 2, 6, 1.0, rng);
  const auto m = build(a, CrsdConfig{.mrows = 64});
  // DIA would pad 53 diagonals to full length; CRSD stores ~nnz values.
  const size64_t dia_bytes = 53u * 4096u * sizeof(double);
  EXPECT_LT(m.footprint_bytes(), dia_bytes / 3);
}

TEST(Builder, MrowsOneAndWholeMatrixSegment) {
  const auto a = fig2_matrix();
  for (index_t mrows : {1, 6, 100}) {
    CrsdConfig cfg;
    cfg.mrows = mrows;
    const auto m = build(a, cfg);
    std::vector<double> x(9, 0.5), want(6), got(6, -1);
    a.spmv_reference(x.data(), want.data());
    m.spmv(x.data(), got.data());
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(got[i], want[i], 1e-12) << mrows;
  }
}

TEST(Builder, RejectsBadConfig) {
  const auto a = fig2_matrix();
  EXPECT_THROW(build(a, CrsdConfig{.mrows = 0}), Error);
  EXPECT_THROW(build(a, CrsdConfig{.live_min_nnz = 0}), Error);
  CrsdConfig bad_fill;
  bad_fill.live_min_fill = 1.5;
  EXPECT_THROW(build(a, bad_fill), Error);
}

// --- Overflow guard -------------------------------------------------------

TEST(Builder, OverflowGuardFlagsNnz) {
  const auto diags =
      detail::check_build_limits(/*nnz=*/1001, /*mrows=*/64,
                                 /*patterns=*/nullptr, 0, 0,
                                 /*max_index=*/1000);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, check::Code::kIndexOverflow);
  EXPECT_THROW(detail::throw_on_limit_overflow(diags), check::DiagnosticError);
  try {
    detail::throw_on_limit_overflow(diags);
  } catch (const check::DiagnosticError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].code, check::Code::kIndexOverflow);
  }
}

TEST(Builder, OverflowGuardFlagsPatternAndScatterSlots) {
  std::vector<DiagonalPattern> patterns(1);
  patterns[0].num_segments = 1;
  patterns[0].offsets.assign(10, 0);  // 10 diagonals x mrows 100 = 1000 slots
  for (std::size_t i = 0; i < patterns[0].offsets.size(); ++i) {
    patterns[0].offsets[i] = static_cast<diag_offset_t>(i);
  }
  const auto pattern_diags = detail::check_build_limits(
      /*nnz=*/10, /*mrows=*/100, &patterns, 0, 0, /*max_index=*/999);
  ASSERT_EQ(pattern_diags.size(), 1u);
  EXPECT_EQ(pattern_diags[0].code, check::Code::kIndexOverflow);
  EXPECT_EQ(pattern_diags[0].offset, 0);  // names the offending pattern

  const auto ell_diags = detail::check_build_limits(
      /*nnz=*/10, /*mrows=*/100, &patterns,
      /*num_scatter_rows=*/50, /*scatter_width=*/20, /*max_index=*/999);
  ASSERT_EQ(ell_diags.size(), 2u);  // pattern slots + 50*20 ELL slots
  EXPECT_EQ(ell_diags[1].code, check::Code::kIndexOverflow);
}

TEST(Builder, OverflowGuardPassesNormalMatrices) {
  EXPECT_NO_THROW(build(dense_band(200, 2), CrsdConfig{.mrows = 32}));
  EXPECT_TRUE(detail::check_build_limits(
                  /*nnz=*/std::numeric_limits<index_t>::max(), 64, nullptr, 0,
                  0)
                  .empty());
}

}  // namespace
}  // namespace crsd
