// Tests for the JIT codelet lint: generated source passes clean; textual
// mutations of the baked constants (trip counts, clamp bounds, offsets,
// interior split, pattern dispatch) are each caught by the matching
// diagnostic code; and the lint-gated factory compiles clean source but
// refuses mutated source, falling back to the interpreted kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "temp_cache_dir.hpp"

namespace crsd::codegen {
namespace {

using check::Code;
using check::has_code;

JitCompiler fresh_compiler() {
  static const TempCacheDir dir("lint-cache");
  JitCompiler::Options opts;
  opts.cache_dir = dir.str();
  return JitCompiler(opts);
}

/// 5-point stencil: one pattern {-16, -1, 0, 1, 16} with a real interior
/// range, an AD group, clamped edge offsets — every lint check has a
/// matching construct in its generated source.
CrsdMatrix<double> stencil_matrix() {
  return build(stencil_5pt_2d(16, 8), CrsdConfig{.mrows = 16});
}

/// Replaces the first occurrence of `from`; the mutation must exist in the
/// source or the fixture itself is stale.
std::string mutated(std::string src, const std::string& from,
                    const std::string& to) {
  const auto pos = src.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation anchor not found: " << from;
  if (pos == std::string::npos) return src;
  return src.replace(pos, from.size(), to);
}

/// 1-based line of the first occurrence of `anchor` in `src`.
std::int64_t line_of(const std::string& src, const std::string& anchor) {
  const auto pos = src.find(anchor);
  EXPECT_NE(pos, std::string::npos) << "anchor not found: " << anchor;
  return 1 + std::count(src.begin(),
                        src.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(pos, src.size())),
                        '\n');
}

/// Applies the mutation and expects `code` reported on the mutated line
/// (with `needle` in its message, when given): the per-regex fixtures pin
/// each literal-prefiltered search to the finding it must still produce.
void expect_flagged_at(
    const std::string& clean, const std::string& from, const std::string& to,
    Code code,
    const std::function<std::vector<check::Diagnostic>(const std::string&)>&
        lint,
    const std::string& needle = "") {
  const std::int64_t line = line_of(clean, from);
  const auto diags = lint(mutated(clean, from, to));
  const bool found = std::any_of(
      diags.begin(), diags.end(), [&](const check::Diagnostic& d) {
        return d.code == code && d.offset == line &&
               d.message.find(needle) != std::string::npos;
      });
  EXPECT_TRUE(found) << from << " -> " << to << " at line " << line << ":\n"
                     << check::format_diagnostics(diags);
}

TEST(CodeletLint, CleanOnGeneratedCpuSource) {
  const auto m = stencil_matrix();
  EXPECT_TRUE(lint_cpu_codelet_source(m, generate_cpu_codelet_source(m))
                  .empty());

  Rng rng(3);
  Coo<double> a = astro_convection(24, 8, 8, /*unstructured=*/false, rng);
  inject_scatter(a, 25, rng);
  const auto ms = build(a, CrsdConfig{.mrows = 16});
  EXPECT_TRUE(lint_cpu_codelet_source(ms, generate_cpu_codelet_source(ms))
                  .empty());

  const auto mf =
      build(dense_band(96, 3).cast<float>(), CrsdConfig{.mrows = 16});
  EXPECT_TRUE(lint_cpu_codelet_source(mf, generate_cpu_codelet_source(mf))
                  .empty());
}

TEST(CodeletLint, FlagsMissingEntryPoint) {
  const auto m = stencil_matrix();
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "extern \"C\" void crsd_codelet_scatter(",
              "extern \"C\" void crsd_codelet_scatter2(");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintMissingSymbol));
}

TEST(CodeletLint, FlagsWrongLaneTripCount) {
  const auto m = stencil_matrix();
  // Interior lane loops bake mrows (16) as the literal trip count.
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "for (std::int32_t lane = 0; lane < 16; ++lane)",
              "for (std::int32_t lane = 0; lane < 15; ++lane)");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintTripCount));
}

TEST(CodeletLint, FlagsWrongColumnClampBound) {
  const auto m = stencil_matrix();  // num_cols 128 -> clamp hi 127
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  ", 0, 127)", ", 0, 126)");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintBakedOffset));
}

TEST(CodeletLint, FlagsBakedOffsetThatIsNoLiveDiagonal) {
  const auto m = stencil_matrix();
  // The NAD diagonal at -16 appears unclamped in the interior as
  // xx[lane - 16]; shifting it to -17 reads a diagonal the pattern does
  // not own.
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "xx[lane - 16]", "xx[lane - 17]");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintBakedOffset));
}

TEST(CodeletLint, FlagsStagedWindowStartingOffALiveDiagonal) {
  const auto m = stencil_matrix();
  // AD group {-1, 0, 1}: the staged window copy starts at the group's
  // first offset, xbuf[i] = xx[i + -1].
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "xx[i + -1]", "xx[i + -3]");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintBakedOffset));
}

TEST(CodeletLint, FlagsWrongInteriorSplit) {
  const auto m = stencil_matrix();
  // Pattern 1 is the interior pattern; the edge patterns have empty
  // interiors and emit no split at all.
  const SegmentInterior in = m.interior_segments(1);
  ASSERT_LT(in.begin, in.end) << "fixture needs a non-empty interior";
  const std::string anchor =
      "i0 = crsd_clampi(" + std::to_string(in.begin) + ", g0, g1)";
  const std::string wrong =
      "i0 = crsd_clampi(" + std::to_string(in.begin + 1) + ", g0, g1)";
  const std::string src =
      mutated(generate_cpu_codelet_source(m), anchor, wrong);
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintInteriorSplit));
}

TEST(CodeletLint, FlagsWrongSegmentBound) {
  const auto m = stencil_matrix();  // 8 segments, one pattern
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "g1 = seg_end < 8", "g1 = seg_end < 9");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintPatternDispatch));
}

TEST(CodeletLint, FlagsWrongSegmentLowerBound) {
  const auto m = stencil_matrix();  // pattern 1 covers segments [1, 7)
  expect_flagged_at(generate_cpu_codelet_source(m), "g0 = seg_begin > 1 ",
                    "g0 = seg_begin > 2 ", Code::kLintPatternDispatch,
                    [&](const std::string& src) {
                      return lint_cpu_codelet_source(m, src);
                    });
}

TEST(CodeletLint, FlagsWrongInteriorEnd) {
  const auto m = stencil_matrix();
  const SegmentInterior in = m.interior_segments(1);
  ASSERT_LT(in.begin, in.end) << "fixture needs a non-empty interior";
  expect_flagged_at(
      generate_cpu_codelet_source(m),
      "i1 = crsd_clampi(" + std::to_string(in.end) + ", i0, g1)",
      "i1 = crsd_clampi(" + std::to_string(in.end - 1) + ", i0, g1)",
      Code::kLintInteriorSplit,
      [&](const std::string& src) { return lint_cpu_codelet_source(m, src); });
}

TEST(CodeletLint, FlagsWrongMarkerSegmentAndInteriorRanges) {
  const auto m = stencil_matrix();
  const std::string src = generate_cpu_codelet_source(m);
  const auto lint = [&](const std::string& s) {
    return lint_cpu_codelet_source(m, s);
  };
  expect_flagged_at(src, "segments [1, 7), interior",
                    "segments [1, 6), interior", Code::kLintPatternDispatch,
                    lint, "marker segment range");
  expect_flagged_at(src, "), interior [1, 7)", "), interior [2, 7)",
                    Code::kLintInteriorSplit, lint, "marker interior");
}

// The edge-path fixture also rewrites the line so that the x access is its
// only x-access prefilter literal: generated lines always carry `[lane`
// too (`unit[lane + k]`), which would mask a broken `[r` guard.

TEST(CodeletLint, FlagsUnclampedCpuEdgeAccess) {
  const auto m = stencil_matrix();
  const auto lint = [&](const std::string& src) {
    return lint_cpu_codelet_source(m, src);
  };
  // Pattern 0 starts at row 0, so its -1 diagonal must stay clamped on the
  // edge path.
  const std::string src = generate_cpu_codelet_source(m);
  expect_flagged_at(src, "x[crsd_clampi(r - 1, 0, 127)]", "x[r - 1]",
                    Code::kLintBakedOffset, lint, "unclamped x access");
  expect_flagged_at(src, "unit[lane + 0] * x[crsd_clampi(r - 1, 0, 127)]",
                    "x[r - 1] * unit[0 + lane]", Code::kLintBakedOffset, lint,
                    "unclamped x access");
}

TEST(CodeletLint, FlagsNumbersTooWideForTheirType) {
  const auto m = stencil_matrix();
  const auto lint = [&](const std::string& src) {
    return lint_cpu_codelet_source(m, src);
  };
  const std::string src = generate_cpu_codelet_source(m);
  // 2^32 is the live offset 0 once cut to 32 bits; 10^20 overflows int64.
  expect_flagged_at(src, "xx[lane - 16]", "xx[lane + 4294967296]",
                    Code::kLintBakedOffset, lint, "not a live diagonal");
  expect_flagged_at(src, "xx[lane - 16]", "xx[lane - 100000000000000000000]",
                    Code::kLintBakedOffset, lint, "not a live diagonal");
  expect_flagged_at(src, "lane < 16; ++lane)",
                    "lane < 100000000000000000000; ++lane)",
                    Code::kLintTripCount, lint);
}

TEST(CodeletLint, FlagsMissingPatternMarker) {
  const auto m = stencil_matrix();
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "// pattern 0:", "// pattern zero:");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintPatternDispatch));
}

TEST(CodeletLint, DiagnosticsCarrySourceLineNumbers) {
  const auto m = stencil_matrix();
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  ", 0, 127)", ", 0, 126)");
  const auto diags = lint_cpu_codelet_source(m, src);
  ASSERT_FALSE(diags.empty());
  EXPECT_GT(diags.front().offset, 0);  // 1-based line of the finding
}

TEST(CheckedJit, RejectsMutatedSourceWithoutCompiling) {
  const auto m = stencil_matrix();
  JitCompiler compiler = fresh_compiler();
  // Lint rejection happens before any compiler invocation, so this path
  // needs no working toolchain.
  const std::string bad = mutated(generate_cpu_codelet_source(m),
                                  ", 0, 127)", ", 0, 126)");
  EXPECT_FALSE(make_jit_kernel(m, compiler, Checked::kYes, &bad).has_value());
  EXPECT_EQ(compiler.compilations(), 0);
}

TEST(CheckedJit, CleanSourceCompilesAndMatchesScalar) {
  if (!JitCompiler::compiler_available()) GTEST_SKIP();
  const auto m = stencil_matrix();
  JitCompiler compiler = fresh_compiler();
  auto kernel = make_jit_kernel(m, compiler);
  ASSERT_TRUE(kernel.has_value());

  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(m.num_rows()), 0.0);
  std::vector<double> got = want;
  m.spmv_scalar(x.data(), want.data());
  kernel->spmv(m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

// --- Compact storage: the raw-ABI codelets lint clean and stay gated. ----

CrsdMatrix<double> compact_matrix(ValuePrecision vp, bool narrow) {
  Rng rng(3);
  Coo<double> a = astro_convection(24, 8, 8, /*unstructured=*/false, rng);
  inject_scatter(a, 25, rng);
  CrsdConfig cfg;
  cfg.mrows = 16;
  cfg.storage = {vp, narrow};
  return build(a, cfg);
}

TEST(CodeletLint, CleanOnCompactStorageModes) {
  for (const StorageOptions s :
       {StorageOptions{ValuePrecision::kNative, true},
        StorageOptions{ValuePrecision::kFloat32, false},
        StorageOptions{ValuePrecision::kFloat32, true}}) {
    const auto m = compact_matrix(s.value_precision, s.narrow_scatter_indices);
    const auto diags =
        lint_cpu_codelet_source(m, generate_cpu_codelet_source(m));
    EXPECT_TRUE(diags.empty()) << check::format_diagnostics(diags);
  }
}

TEST(CheckedJit, RejectsMutatedCompactSourceWithoutCompiling) {
  const auto m = compact_matrix(ValuePrecision::kFloat32, true);
  JitCompiler compiler = fresh_compiler();
  const std::string bad = mutated(generate_cpu_codelet_source(m),
                                  "lane < 16", "lane < 15");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, bad), Code::kLintTripCount));
  EXPECT_FALSE(make_jit_kernel(m, compiler, Checked::kYes, &bad).has_value());
  EXPECT_EQ(compiler.compilations(), 0);
}

TEST(CheckedJit, CleanCompactSourceCompilesAndMatchesScalar) {
  if (!JitCompiler::compiler_available()) GTEST_SKIP();
  const auto m = compact_matrix(ValuePrecision::kFloat32, true);
  JitCompiler compiler = fresh_compiler();
  auto kernel = make_jit_kernel(m, compiler);
  ASSERT_TRUE(kernel.has_value());

  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(m.num_rows()), 0.0);
  std::vector<double> got = want;
  m.spmv_scalar(x.data(), want.data());
  kernel->spmv(m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

// --- The scatter function's baked constants. -------------------------------

/// One mutation of a scatter constant, as (from, to) text for a matrix.
using ScatterMutation = std::function<std::pair<std::string, std::string>(
    const CrsdMatrix<double>&)>;

/// Applies the mutation to the native and to the f32+u16 codelet of a matrix
/// with scatter rows: the lint flags the mutated line, and the checked
/// factory refuses the source without compiling it.
void expect_scatter_mutation_flagged(const ScatterMutation& mutation) {
  for (const auto& [vp, narrow] : {std::pair{ValuePrecision::kNative, false},
                                   std::pair{ValuePrecision::kFloat32, true}}) {
    const auto m = compact_matrix(vp, narrow);
    ASSERT_GT(m.num_scatter_rows(), 0);
    const std::string src = generate_cpu_codelet_source(m);
    const auto [from, to] = mutation(m);
    SCOPED_TRACE(from + " -> " + to);
    expect_flagged_at(src, from, to, Code::kLintScatterLayout,
                      [&](const std::string& s) {
                        return lint_cpu_codelet_source(m, s);
                      });
    JitCompiler compiler = fresh_compiler();
    const std::string bad = mutated(src, from, to);
    EXPECT_FALSE(make_jit_kernel(m, compiler, Checked::kYes, &bad).has_value());
    EXPECT_EQ(compiler.compilations(), 0);
  }
}

TEST(CodeletLint, FlagsWrongScatterRowClamp) {
  expect_scatter_mutation_flagged([](const CrsdMatrix<double>& m) {
    const std::string n = std::to_string(m.num_scatter_rows());
    const std::string n1 = std::to_string(m.num_scatter_rows() + 1);
    return std::pair{"row_end > " + n + " ? " + n + " :",
                     "row_end > " + n1 + " ? " + n1 + " :"};
  });
}

TEST(CodeletLint, FlagsWrongScatterSlotStride) {
  expect_scatter_mutation_flagged([](const CrsdMatrix<double>& m) {
    return std::pair{
        "static_cast<std::int64_t>(k) * " +
            std::to_string(m.num_scatter_rows()) + " + b",
        "static_cast<std::int64_t>(k) * " +
            std::to_string(m.num_scatter_rows() - 1) + " + b"};
  });
}

TEST(CodeletLint, FlagsWrongScatterSlotCount) {
  expect_scatter_mutation_flagged([](const CrsdMatrix<double>& m) {
    return std::pair{"k < " + std::to_string(m.scatter_width()) + "; ++k",
                     "k < " + std::to_string(m.scatter_width() + 1) + "; ++k"};
  });
  // A slot loop whose count the lint cannot read counts as missing.
  const auto m = compact_matrix(ValuePrecision::kNative, false);
  const std::string w = std::to_string(m.scatter_width());
  const std::string src =
      mutated(generate_cpu_codelet_source(m), "k < " + w + "; ++k",
              "k <= " + w + " - 1; ++k");
  EXPECT_TRUE(
      has_code(lint_cpu_codelet_source(m, src), Code::kLintScatterLayout));
}

TEST(CodeletLint, FlagsWrongScatterAccumulatorExtent) {
  expect_scatter_mutation_flagged([](const CrsdMatrix<double>&) {
    return std::pair{std::string("acc[1024];"), std::string("acc[512];")};
  });
  // A block row clamp above the extent would write past the accumulators.
  expect_scatter_mutation_flagged([](const CrsdMatrix<double>&) {
    return std::pair{std::string("i1 - b < 1024 ? i1 - b : 1024;"),
                     std::string("i1 - b < 2048 ? i1 - b : 2048;")};
  });
}

// --- Every paper-suite codelet, and every baked offset and clamp bound. ----

TEST(CodeletLint, CleanOnEveryPaperSuiteCodelet) {
  for (const MatrixSpec& spec : paper_suite()) {
    const auto m = build(spec.generate(0.02));
    const auto diags =
        lint_cpu_codelet_source(m, generate_cpu_codelet_source(m));
    EXPECT_TRUE(diags.empty()) << spec.name << ":\n"
                               << check::format_diagnostics(diags);
  }
}

/// Smallest d >= 1 such that sign * d is a diagonal of no pattern of `m`, so
/// every pattern must reject it as a baked offset.
std::int64_t dead_offset(const CrsdMatrix<double>& m, int sign) {
  for (std::int64_t d = 1;; ++d) {
    const auto off = static_cast<diag_offset_t>(sign * d);
    if (std::none_of(m.patterns().begin(), m.patterns().end(),
                     [&](const DiagonalPattern& p) {
                       return std::binary_search(p.offsets.begin(),
                                                 p.offsets.end(), off);
                     })) {
      return d;
    }
  }
}

/// 1-based line of byte `pos` of `src`.
std::int64_t line_at(const std::string& src, std::size_t pos) {
  return 1 + std::count(src.begin(),
                        src.begin() + static_cast<std::ptrdiff_t>(pos), '\n');
}

/// One emitted construct: `anchor`, a number (an optional '-', then
/// digits) at [num, end), then `closer`.
struct Site {
  std::size_t at, num, end;
};

std::vector<Site> sites(const std::string& src, const std::string& anchor,
                        const std::string& closer) {
  std::vector<Site> out;
  for (std::size_t at = src.find(anchor); at != std::string::npos;
       at = src.find(anchor, at + 1)) {
    const std::size_t num = at + anchor.size();
    std::size_t end = num + (num < src.size() && src[num] == '-' ? 1 : 0);
    while (end < src.size() && src[end] >= '0' && src[end] <= '9') ++end;
    if (end > num && src.compare(end, closer.size(), closer) == 0) {
      out.push_back({at, num, end});
    }
  }
  return out;
}

/// Breaks every `anchor` number `closer` construct of `src` in turn, each
/// time in two ways: its number replaced by `bad`, and `broken` appended
/// after the clean construct on the same line, which a matcher that stops
/// at a line's first match misses. Each mutant must get kLintBakedOffset
/// with `needle` on that line. Returns the sites swept.
std::size_t sweep_form(const CrsdMatrix<double>& m, const std::string& src,
                       const std::string& anchor, const std::string& closer,
                       const std::string& bad, const std::string& broken,
                       const std::string& needle) {
  const auto found = sites(src, anchor, closer);
  for (const Site& s : found) {
    const std::int64_t line = line_at(src, s.at);
    const std::string clean = src.substr(s.at, s.end + closer.size() - s.at);
    for (const std::string& mutant :
         {std::string(src).replace(s.num, s.end - s.num, bad),
          std::string(src).replace(s.at, clean.size(),
                                   clean + " + " + broken)}) {
      const auto diags = lint_cpu_codelet_source(m, mutant);
      EXPECT_TRUE(std::any_of(
          diags.begin(), diags.end(), [&](const check::Diagnostic& d) {
            return d.code == Code::kLintBakedOffset && d.offset == line &&
                   d.message.find(needle) != std::string::npos;
          }))
          << clean << " -> " << broken << " at line " << line << ":\n"
          << check::format_diagnostics(diags);
    }
  }
  return found.size();
}

/// Replaces every clamped x access in turn by its unclamped form, which the
/// generator emits only when the offset stays in range for every row.
std::size_t sweep_unclamped(const CrsdMatrix<double>& m,
                            const std::string& src) {
  const std::string anchor = "x[crsd_clampi(";
  std::size_t swept = 0;
  for (std::size_t at = src.find(anchor); at != std::string::npos;
       at = src.find(anchor, at + 1), ++swept) {
    const std::size_t expr = at + anchor.size();
    const std::size_t comma = src.find(", 0, ", expr);
    const std::size_t close = src.find(")]", expr);
    if (comma == std::string::npos || close == std::string::npos) {
      ADD_FAILURE() << "unexpected clamp form at byte " << at;
      break;
    }
    const std::string mutant = std::string(src).replace(
        at, close + 2 - at, "x[" + src.substr(expr, comma - expr) + "]");
    const std::int64_t line = line_at(src, at);
    const auto diags = lint_cpu_codelet_source(m, mutant);
    EXPECT_TRUE(std::any_of(
        diags.begin(), diags.end(), [&](const check::Diagnostic& d) {
          return d.code == Code::kLintBakedOffset && d.offset == line &&
                 d.message.find("unclamped x access") != std::string::npos;
        }))
        << src.substr(at, close + 2 - at) << " at line " << line << ":\n"
        << check::format_diagnostics(diags);
  }
  return swept;
}

TEST(CodeletLint, EveryBakedOffsetAndClampBoundIsChecked) {
  std::size_t plus = 0, minus = 0, lane = 0, staged = 0, clamps = 0,
              unclamped = 0;
  for (const auto& m :
       {stencil_matrix(), compact_matrix(ValuePrecision::kNative, false),
        compact_matrix(ValuePrecision::kFloat32, true)}) {
    const std::string src = generate_cpu_codelet_source(m);
    ASSERT_TRUE(lint_cpu_codelet_source(m, src).empty());
    const std::string up = std::to_string(dead_offset(m, 1));
    const std::string down = std::to_string(dead_offset(m, -1));
    const std::string live = "not a live diagonal";
    const auto form = [&](const std::string& anchor, const std::string& bad) {
      return sweep_form(m, src, anchor, "]", bad, anchor + bad + "]", live);
    };
    plus += form("x[r + ", up);
    minus += form("x[r - ", down);
    lane += form("xx[lane + ", up) + form("xx[lane - ", down);
    staged += form("xx[i + ", up) + form("xx[i + ", "-" + down);
    const std::string hi = std::to_string(m.num_cols());
    clamps += sweep_form(m, src, ", 0, ", ")", hi,
                         "crsd_clampi(r, 0, " + hi + ")",
                         "column clamp upper bound");
    unclamped += sweep_unclamped(m, src);
  }
  // Every form occurs, or the sweep went stale against the generator.
  EXPECT_GT(plus, 0u);
  EXPECT_GT(minus, 0u);
  EXPECT_GT(lane, 0u);
  EXPECT_GT(staged, 0u);
  EXPECT_GT(clamps, 0u);
  EXPECT_GT(unclamped, 0u);
}

}  // namespace
}  // namespace crsd::codegen
