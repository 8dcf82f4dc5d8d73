// Mutation-fixture tests for the CRSD invariant validator: every diagnostic
// class fires on a hand-broken container and stays silent on builder output.
// CRSD_VALIDATE_BUILD turns on the builder's own validation pass (normally
// debug-only) so the builder → validate_or_throw wiring is exercised even in
// a Release test binary.
#define CRSD_VALIDATE_BUILD 1

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "check/validate.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"

namespace crsd::check {
namespace {

/// 8x8, mrows 4, one pattern {-1, 0, 1} over both segments: the smallest
/// container with padding slots at both corners. Values are nonzero exactly
/// on the in-range slots.
CrsdStorage<double> tri_fixture() {
  CrsdStorage<double> s;
  s.num_rows = 8;
  s.num_cols = 8;
  s.mrows = 4;
  DiagonalPattern pat;
  pat.start_row = 0;
  pat.num_segments = 2;
  pat.offsets = {-1, 0, 1};
  pat.groups = group_diagonals(pat.offsets);
  s.patterns.push_back(pat);
  s.dia_val.assign(2 * 3 * 4, 0.0);
  for (index_t seg = 0; seg < 2; ++seg) {
    for (index_t d = 0; d < 3; ++d) {
      for (index_t lane = 0; lane < 4; ++lane) {
        const index_t r = seg * 4 + lane;
        const index_t c = r + pat.offsets[static_cast<std::size_t>(d)];
        if (c < 0 || c >= s.num_cols) continue;
        s.dia_val[static_cast<std::size_t>(seg * 12 + d * 4 + lane)] =
            1.0 + 10.0 * r + c;
        ++s.nnz;
      }
    }
  }
  return s;
}

/// tri_fixture plus one scatter row (row 5, one entry), with row 5's
/// diagonal slots zeroed — the disjointness the builder guarantees.
CrsdStorage<double> scatter_fixture() {
  CrsdStorage<double> s = tri_fixture();
  for (index_t d = 0; d < 3; ++d) {
    // Row 5 lives in segment 1, lane 1.
    auto& v = s.dia_val[static_cast<std::size_t>(12 + d * 4 + 1)];
    if (v != 0.0) --s.nnz;
    v = 0.0;
  }
  s.scatter_rowno = {5};
  s.scatter_width = 2;
  s.scatter_col = {2, kInvalidIndex};
  s.scatter_val = {3.5, 0.0};
  ++s.nnz;
  return s;
}

TEST(Validate, CleanOnHandFixtures) {
  EXPECT_TRUE(validate(tri_fixture()).empty());
  EXPECT_TRUE(validate(scatter_fixture()).empty());
}

TEST(Validate, FlagsDegenerateDimensions) {
  CrsdStorage<double> s = tri_fixture();
  s.mrows = 0;
  EXPECT_TRUE(has_code(validate(s), Code::kSegmentCoverage));
}

TEST(Validate, FlagsWrongPatternStartRow) {
  CrsdStorage<double> s = tri_fixture();
  s.patterns[0].start_row = 4;
  EXPECT_TRUE(has_code(validate(s), Code::kSegmentCoverage));
}

TEST(Validate, FlagsSegmentUndercoverage) {
  CrsdStorage<double> s = tri_fixture();
  s.patterns[0].num_segments = 1;
  const auto diags = validate(s);
  EXPECT_TRUE(has_code(diags, Code::kSegmentCoverage));
  // The value stream no longer matches the shrunk pattern either.
  EXPECT_TRUE(has_code(diags, Code::kValueStreamLength));
}

TEST(Validate, FlagsUnsortedOffsets) {
  CrsdStorage<double> s = tri_fixture();
  std::swap(s.patterns[0].offsets[0], s.patterns[0].offsets[1]);
  EXPECT_TRUE(has_code(validate(s), Code::kOffsetOrder));
}

TEST(Validate, FlagsOffsetOutsideTheMatrix) {
  // A diagonal with no in-range slot holds only zeros, so the padding
  // check passes it; row + offset on it can still leave the index range.
  for (const std::size_t d : {std::size_t{0}, std::size_t{2}}) {
    CrsdStorage<double> s = tri_fixture();
    for (index_t seg = 0; seg < 2; ++seg) {
      for (index_t lane = 0; lane < 4; ++lane) {
        s.dia_val[static_cast<std::size_t>(seg * 12) + d * 4 +
                  static_cast<std::size_t>(lane)] = 0.0;
      }
    }
    s.patterns[0].offsets[d] = d == 0
                                   ? -s.num_rows
                                   : std::numeric_limits<diag_offset_t>::max();
    s.patterns[0].groups = group_diagonals(s.patterns[0].offsets);
    EXPECT_TRUE(has_code(validate(s), Code::kOffsetOrder)) << "diagonal " << d;
  }
}

TEST(Validate, FlagsCountsThatOverflowTheSegmentArithmetic) {
  // Loaded streams carry these counts unchecked; the validator must flag
  // them without overflowing its own arithmetic.
  CrsdStorage<double> s = tri_fixture();
  s.patterns[0].num_segments = std::numeric_limits<index_t>::max();
  s.patterns.push_back(s.patterns[0]);
  EXPECT_TRUE(has_code(validate(s), Code::kSegmentCoverage));

  s = tri_fixture();
  s.num_rows = std::numeric_limits<index_t>::max();
  EXPECT_TRUE(has_code(validate(s), Code::kIndexOverflow));
}

TEST(Validate, FlagsGroupingDisagreement) {
  CrsdStorage<double> s = tri_fixture();
  // {-1, 0, 1} is one AD group of 3; store it as a NAD group instead.
  s.patterns[0].groups = {
      DiagonalGroup{GroupType::kNonAdjacent, 3, 0}};
  EXPECT_TRUE(has_code(validate(s), Code::kGroupMismatch));
}

TEST(Validate, FlagsValueStreamLengthMismatch) {
  CrsdStorage<double> s = tri_fixture();
  s.dia_val.pop_back();
  EXPECT_TRUE(has_code(validate(s), Code::kValueStreamLength));
}

TEST(Validate, FlagsNonzeroInPaddingSlot) {
  CrsdStorage<double> s = tri_fixture();
  // Slot 0 is (row 0, offset -1): column -1, a clamped padding slot.
  ASSERT_EQ(s.dia_val[0], 0.0);
  s.dia_val[0] = 7.0;
  const auto diags = validate(s);
  ASSERT_TRUE(has_code(diags, Code::kValueStreamLength));
  EXPECT_EQ(diags.front().offset, 0);  // names the exact slot
}

TEST(Validate, FlagsScatterRowOwningDiagonalNonzeros) {
  CrsdStorage<double> s = scatter_fixture();
  // Resurrect a diagonal nonzero in scatter row 5 (segment 1, lane 1,
  // main diagonal).
  s.dia_val[static_cast<std::size_t>(12 + 1 * 4 + 1)] = 2.0;
  EXPECT_TRUE(has_code(validate(s), Code::kScatterOverlap));
  // The builder knob zero_scatter_rows_in_dia=false makes this layout
  // legitimate; the matching validator option accepts it.
  ValidateOptions opts;
  opts.require_scatter_disjoint = false;
  EXPECT_FALSE(has_code(validate(s, opts), Code::kScatterOverlap));
}

TEST(Validate, FlagsScatterRowNumberOutOfRange) {
  CrsdStorage<double> s = scatter_fixture();
  s.scatter_rowno[0] = 99;
  EXPECT_TRUE(has_code(validate(s), Code::kScatterLayout));
}

TEST(Validate, FlagsUnsortedScatterRows) {
  CrsdStorage<double> s = tri_fixture();
  s.scatter_rowno = {5, 3};
  s.scatter_width = 1;
  s.scatter_col = {2, 4};
  s.scatter_val = {1.0, 1.0};
  EXPECT_TRUE(has_code(validate(s), Code::kScatterLayout));
}

TEST(Validate, FlagsScatterEllSizeMismatch) {
  CrsdStorage<double> s = scatter_fixture();
  s.scatter_val.pop_back();
  EXPECT_TRUE(has_code(validate(s), Code::kScatterLayout));
}

TEST(Validate, FlagsScatterColumnOutOfRange) {
  CrsdStorage<double> s = scatter_fixture();
  s.scatter_col[0] = 8;  // num_cols is 8
  EXPECT_TRUE(has_code(validate(s), Code::kScatterLayout));
}

TEST(Validate, FlagsNonzeroScatterPaddingSlot) {
  CrsdStorage<double> s = scatter_fixture();
  s.scatter_val[1] = 1.0;  // slot 1 is kInvalidIndex padding
  EXPECT_TRUE(has_code(validate(s), Code::kScatterLayout));
}

TEST(Validate, CleanOnBuilderOutput) {
  Rng rng(42);
  Coo<double> a = astro_convection(24, 8, 8, /*unstructured=*/true, rng);
  inject_scatter(a, 40, rng);
  CrsdConfig cfg;
  cfg.mrows = 16;
  // CRSD_VALIDATE_BUILD already ran validate_or_throw inside build_crsd;
  // re-run both validators explicitly to assert zero diagnostics.
  const CrsdMatrix<double> m = build(a, cfg);
  EXPECT_TRUE(validate(m).empty());
  EXPECT_TRUE(validate_against(m, a).empty());

  const Coo<double> b = stencil_5pt_2d(20, 12);
  const CrsdMatrix<double> mb = build(b, cfg);
  EXPECT_TRUE(validate(mb).empty());
  EXPECT_TRUE(validate_against(mb, b).empty());
}

TEST(Validate, AgainstSourceCatchesValueDrift) {
  const Coo<double> a = stencil_5pt_2d(16, 8);
  CrsdConfig cfg;
  cfg.mrows = 16;
  CrsdMatrix<double> m = build(a, cfg);

  std::vector<double> dia = m.dia_values();
  std::vector<double> sv = m.scatter_val();
  std::size_t hit = dia.size();
  for (std::size_t i = 0; i < dia.size(); ++i) {
    if (dia[i] != 0.0) { hit = i; break; }
  }
  ASSERT_LT(hit, dia.size());
  dia[hit] += 0.5;  // keeps the slot nonzero, so only the value drifts
  m.replace_values(dia, sv);
  const auto diags = validate_against(m, a);
  ASSERT_TRUE(has_code(diags, Code::kNnzMismatch));
  EXPECT_EQ(diags.front().offset, static_cast<std::int64_t>(hit));
}

TEST(Validate, AgainstSourceCatchesDroppedEntry) {
  const Coo<double> a = stencil_5pt_2d(16, 8);
  CrsdConfig cfg;
  cfg.mrows = 16;
  CrsdMatrix<double> m = build(a, cfg);

  std::vector<double> dia = m.dia_values();
  for (std::size_t i = 0; i < dia.size(); ++i) {
    if (dia[i] != 0.0) { dia[i] = 0.0; break; }
  }
  m.replace_values(dia, m.scatter_val());
  // A zeroed slot is indistinguishable from fill, so the entry is simply
  // "stored nowhere" from the source's point of view.
  EXPECT_TRUE(has_code(validate_against(m, a), Code::kNnzMismatch));
}

TEST(Validate, OrThrowRaisesOnBrokenContainer) {
  CrsdStorage<double> s = tri_fixture();
  s.dia_val[0] = 7.0;  // nonzero padding: passes the ctor, fails validation
  const CrsdMatrix<double> m(std::move(s));
  EXPECT_THROW(validate_or_throw(m), Error);
  const CrsdMatrix<double> ok(tri_fixture());
  EXPECT_NO_THROW(validate_or_throw(ok));
}

TEST(Validate, DiagnosticsFormatNamesTheCheck) {
  CrsdStorage<double> s = tri_fixture();
  s.dia_val.pop_back();
  const auto diags = validate(s);
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(format_diagnostics(diags).find("value-stream-length"),
            std::string::npos);
}

TEST(Validate, SameStorageOracleDetectsDifferences) {
  const auto a = dense_band(128, 2);
  const auto m1 = build(a, CrsdConfig{.mrows = 32});
  const auto m2 = build(a, CrsdConfig{.mrows = 64});
  const auto diags = check::validate_same_storage(m1, m2);
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(check::has_code(diags, check::Code::kStorageMismatch));
  // Identity holds reflexively.
  EXPECT_TRUE(check::validate_same_storage(m1, m1).empty());
}

}  // namespace
}  // namespace crsd::check
