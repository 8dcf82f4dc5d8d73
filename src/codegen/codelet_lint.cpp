#include "codegen/codelet_lint.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern.hpp"

namespace crsd::codegen {
namespace {

using check::Code;
using check::Diagnostic;

/// Precision-independent structural expectations, re-derived from the
/// container exactly the way the generators derive them.
struct LintMeta {
  index_t num_rows = 0;
  index_t num_cols = 0;
  index_t mrows = 0;
  const std::vector<DiagonalPattern>* patterns = nullptr;
  const std::vector<index_t>* cum_segments = nullptr;
  std::vector<SegmentInterior> interior;
  index_t num_scatter_rows = 0;
  index_t scatter_width = 0;
};

template <Real T>
LintMeta make_lint_meta(const CrsdMatrix<T>& m) {
  LintMeta meta;
  meta.num_rows = m.num_rows();
  meta.num_cols = m.num_cols();
  meta.mrows = m.mrows();
  meta.patterns = &m.patterns();
  meta.cum_segments = &m.cum_segments();
  meta.interior.reserve(m.patterns().size());
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    meta.interior.push_back(m.interior_segments(p));
  }
  meta.num_scatter_rows = m.num_scatter_rows();
  meta.scatter_width = m.scatter_width();
  return meta;
}

/// Mirror of the generator's offset_in_range: true when diagonal `off`
/// stays inside [0, num_cols) for every row the pattern covers, i.e. when
/// an unclamped x access is legal.
bool offset_in_range(const LintMeta& meta, const DiagonalPattern& p,
                     std::int64_t off) {
  const index_t first_row = p.start_row;
  const index_t last_row = std::min<index_t>(
      meta.num_rows, p.start_row + p.num_segments * meta.mrows) - 1;
  return first_row + off >= 0 &&
         static_cast<std::int64_t>(last_row) + off <= meta.num_cols - 1;
}

bool offset_is_live(const DiagonalPattern& p, std::int64_t off) {
  return std::binary_search(p.offsets.begin(), p.offsets.end(),
                            static_cast<diag_offset_t>(off));
}

void emit(std::vector<Diagnostic>& out, Code code, std::int64_t line_no,
          const std::string& message) {
  Diagnostic d;
  d.code = code;
  d.offset = line_no;  // 1-based source line of the finding
  d.message = message;
  out.push_back(std::move(d));
}

std::vector<std::string> split_lines(const std::string& source) {
  std::vector<std::string> lines;
  std::istringstream is(source);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

bool contains(const std::string& line, const char* literal) {
  return line.find(literal) != std::string::npos;
}

std::string ordinal(std::size_t pattern, std::int64_t value) {
  std::ostringstream os;
  os << "pattern " << pattern << ": " << value;
  return os.str();
}

/// Per-line checks of the CPU codelet: literal lane loops must use
/// mrows, column clamps must use num_cols-1, baked x offsets must be live
/// diagonals of the current pattern (and in range when unclamped).
///
/// Prefilter: every std::regex search here and in the lint functions below is
/// guarded by a plain substring test on a literal that occurs in every match
/// of that regex, so a line the guard skips is one the regex cannot match;
/// findings and their line numbers are those of the unguarded search. Most
/// codelet lines carry none of a regex's literals, so most of the costly
/// std::regex searches never run.
class LineChecker {
 public:
  LineChecker(const LintMeta& meta, std::vector<Diagnostic>& out)
      : meta_(meta), out_(out),
        lane_loop_(R"(for \(std::int32_t lane = 0; lane < (\d+); \+\+lane\))"),
        col_clamp_(R"(crsd_clampi\([^,]*, 0, (-?\d+)\))"),
        // x[r], x[r + 5], xx[lane + 2], xx[i + -4] — but not
        // x[crsd_clampi(...)] (handled by col_clamp_) or xbuf reads.
        x_access_(R"((?:^|[^a-zA-Z_])(x(?!buf)[a-z0-9]*)\[(r|i|lane)(?: ([+-]) (-?\d+))?\])") {}

  void check(const std::string& line, std::int64_t line_no,
             std::int64_t pattern, const DiagonalPattern* pat) {
    std::smatch sm;
    if (contains(line, "for (std::int32_t lane = 0; lane < ") &&
        std::regex_search(line, sm, lane_loop_)) {
      const std::int64_t trip = std::stoll(sm[1]);
      if (trip != meta_.mrows) {
        std::ostringstream os;
        os << "literal lane trip count " << trip << " != mrows ("
           << meta_.mrows << ")";
        emit(out_, Code::kLintTripCount, line_no, os.str());
      }
    }
    if (contains(line, "crsd_clampi(")) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), col_clamp_);
           it != std::sregex_iterator(); ++it) {
        const std::int64_t hi = std::stoll((*it)[1]);
        if (hi != meta_.num_cols - 1) {
          std::ostringstream os;
          os << "column clamp upper bound " << hi << " != num_cols-1 ("
             << meta_.num_cols - 1 << ")";
          emit(out_, Code::kLintBakedOffset, line_no, os.str());
        }
      }
    }
    if (pat == nullptr ||
        !(contains(line, "[r") || contains(line, "[i") ||
          contains(line, "[lane"))) {
      return;
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), x_access_);
         it != std::sregex_iterator(); ++it) {
      const std::smatch& xm = *it;
      std::int64_t off = 0;
      if (xm[4].matched) {
        off = std::stoll(xm[4]);
        if (xm[3] == "-") off = -off;
      }
      const std::string base = xm[2];
      if (base == "i") {
        // AD-group staging copy: xbuf[i] = xx[i + first]; `first` must be a
        // live diagonal (the group's first offset).
        if (!offset_is_live(*pat, off)) {
          emit(out_, Code::kLintBakedOffset, line_no,
               "staged x window starts at offset " + std::to_string(off) +
                   ", not a live diagonal of " +
                   ordinal(static_cast<std::size_t>(pattern), off));
        }
        continue;
      }
      if (!offset_is_live(*pat, off)) {
        emit(out_, Code::kLintBakedOffset, line_no,
             "baked x offset " + std::to_string(off) +
                 " is not a live diagonal of pattern " +
                 std::to_string(pattern));
      } else if (base == "r" && !offset_in_range(meta_, *pat, off)) {
        // Unclamped row-relative access: legal only when provably in range.
        emit(out_, Code::kLintBakedOffset, line_no,
             "unclamped x access at offset " + std::to_string(off) +
                 " can leave [0, num_cols) for pattern " +
                 std::to_string(pattern));
      }
    }
  }

 private:
  const LintMeta& meta_;
  std::vector<Diagnostic>& out_;
  std::regex lane_loop_;
  std::regex col_clamp_;
  std::regex x_access_;
};

/// Per-line structural checks of the CPU codelet: markers, segment/interior
/// bound clamps, trip counts, baked offsets. lint_cpu checks symbol presence
/// and the scatter function.
void lint_cpu_body(const LintMeta& meta, const std::string& source,
                   std::vector<Diagnostic>& out) {
  const auto& patterns = *meta.patterns;
  const auto& cum = *meta.cum_segments;
  const std::regex marker(
      R"(// pattern (\d+): .*segments \[(-?\d+), (-?\d+)\), interior \[(-?\d+), (-?\d+)\))");
  const std::regex g0_line(R"(g0 = seg_begin > (-?\d+))");
  const std::regex g1_line(R"(g1 = seg_end < (-?\d+))");
  const std::regex i0_line(R"(i0 = crsd_clampi\((-?\d+), g0, g1\))");
  const std::regex i1_line(R"(i1 = crsd_clampi\((-?\d+), i0, g1\))");

  LineChecker checker(meta, out);
  std::vector<bool> seen(patterns.size(), false);
  std::int64_t cur = -1;  // pattern the scanner is inside
  const std::vector<std::string> lines = split_lines(source);
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    const std::int64_t line_no = static_cast<std::int64_t>(li) + 1;
    std::smatch sm;
    if (contains(line, "// pattern ") && std::regex_search(line, sm, marker)) {
      cur = std::stoll(sm[1]);
      if (cur < 0 || cur >= static_cast<std::int64_t>(patterns.size())) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "marker names pattern " + std::to_string(cur) +
                 " but the container has " + std::to_string(patterns.size()));
        cur = -1;
        continue;
      }
      seen[static_cast<std::size_t>(cur)] = true;
      const std::size_t p = static_cast<std::size_t>(cur);
      if (std::stoll(sm[2]) != cum[p] || std::stoll(sm[3]) != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "marker segment range [" + sm[2].str() + ", " + sm[3].str() +
                 ") != container's [" + std::to_string(cum[p]) + ", " +
                 std::to_string(cum[p + 1]) + ") for pattern " +
                 std::to_string(cur));
      }
      if (std::stoll(sm[4]) != meta.interior[p].begin ||
          std::stoll(sm[5]) != meta.interior[p].end) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "marker interior [" + sm[4].str() + ", " + sm[5].str() +
                 ") != pattern_interior_segments' [" +
                 std::to_string(meta.interior[p].begin) + ", " +
                 std::to_string(meta.interior[p].end) + ") for pattern " +
                 std::to_string(cur));
      }
      continue;
    }
    const DiagonalPattern* pat =
        cur >= 0 ? &patterns[static_cast<std::size_t>(cur)] : nullptr;
    if (cur >= 0) {
      const std::size_t p = static_cast<std::size_t>(cur);
      if (contains(line, "g0 = seg_begin > ") &&
          std::regex_search(line, sm, g0_line) && std::stoll(sm[1]) != cum[p]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "segment lower bound is " + ordinal(p, std::stoll(sm[1])) +
                 ", container expects " + std::to_string(cum[p]));
      } else if (contains(line, "g1 = seg_end < ") &&
                 std::regex_search(line, sm, g1_line) &&
                 std::stoll(sm[1]) != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "segment upper bound is " + ordinal(p, std::stoll(sm[1])) +
                 ", container expects " + std::to_string(cum[p + 1]));
      } else if (contains(line, "i0 = crsd_clampi(") &&
                 std::regex_search(line, sm, i0_line) &&
                 std::stoll(sm[1]) != meta.interior[p].begin) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "interior begin is " + ordinal(p, std::stoll(sm[1])) +
                 ", pattern_interior_segments gives " +
                 std::to_string(meta.interior[p].begin));
      } else if (contains(line, "i1 = crsd_clampi(") &&
                 std::regex_search(line, sm, i1_line) &&
                 std::stoll(sm[1]) != meta.interior[p].end) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "interior end is " + ordinal(p, std::stoll(sm[1])) +
                 ", pattern_interior_segments gives " +
                 std::to_string(meta.interior[p].end));
      }
    }
    checker.check(line, line_no, cur, pat);
  }
  for (std::size_t p = 0; p < seen.size(); ++p) {
    if (!seen[p]) {
      emit(out, Code::kLintPatternDispatch, -1,
           "pattern " + std::to_string(p) +
               " is missing from the generated source");
    }
  }
}

/// SpMV scatter function: the block loop reads slot k of scatter row b + l
/// at k * nsr + b + l, so its row clamp and both slot strides must equal
/// num_scatter_rows, its slot loop must run scatter_width times, and its
/// accumulator array and block row clamp must hold one block step. With
/// scatter rows, each of these constructs must be present. The scan starts
/// at the function's declaration, the last one in the codelet. The regexes
/// are compiled once: compiling them costs more than scanning the function.
void lint_cpu_scatter(const LintMeta& meta, const std::string& source,
                      std::size_t decl_pos, std::vector<Diagnostic>& out) {
  static const std::regex row_clamp(
      R"(i1 = row_end > (-?\d+) \? (-?\d+) : row_end;)");
  static const std::regex acc_decl(R"((?:^|\s)acc\[(\d+)\];)");
  static const std::regex block_loop(R"(b < i1; b \+= (\d+)\))");
  static const std::regex block_rows(
      R"(nb = i1 - b < (\d+) \? i1 - b : (\d+);)");
  static const std::regex slot_loop(
      R"(for \(std::int32_t k = 0; k < (-?\d+); \+\+k\))");
  static const std::regex slot_run(
      R"((scatter_val|scatter_col) \+ static_cast<std::int64_t>\(k\) \* )"
      R"((-?\d+) \+ b;)");
  const std::int64_t nsr = meta.num_scatter_rows;
  const auto mismatch = [&](std::int64_t line_no, const std::string& what,
                            std::int64_t got, const char* expected,
                            std::int64_t want) {
    if (got == want) return;
    std::ostringstream os;
    os << "scatter " << what << " " << got << " != " << expected << " ("
       << want << ")";
    emit(out, Code::kLintScatterLayout, line_no, os.str());
  };
  // Lines of the constructs found (0: not found); the block-extent checks
  // run after the scan, once the block step is known.
  std::int64_t clamp_line = 0, acc_line = 0, step_line = 0, rows_line = 0,
               slot_line = 0, val_line = 0, col_line = 0;
  std::int64_t acc_extent = 0, step = 0, rows_lo = 0, rows_hi = 0;
  std::int64_t line_no =
      1 + std::count(source.begin(),
                     source.begin() + static_cast<std::ptrdiff_t>(decl_pos),
                     '\n');
  std::istringstream is(source.substr(decl_pos));
  std::string line;
  for (; std::getline(is, line); ++line_no) {
    std::smatch sm;
    if (contains(line, "i1 = row_end > ") &&
        std::regex_search(line, sm, row_clamp)) {
      clamp_line = line_no;
      mismatch(line_no, "row clamp", std::stoll(sm[1]),
               "num_scatter_rows", nsr);
      mismatch(line_no, "row clamp", std::stoll(sm[2]),
               "num_scatter_rows", nsr);
    } else if (contains(line, "acc[") &&
               std::regex_search(line, sm, acc_decl)) {
      acc_line = line_no;
      acc_extent = std::stoll(sm[1]);
    } else if (contains(line, "b += ") &&
               std::regex_search(line, sm, block_loop)) {
      step_line = line_no;
      step = std::stoll(sm[1]);
    } else if (contains(line, "nb = i1 - b < ") &&
               std::regex_search(line, sm, block_rows)) {
      rows_line = line_no;
      rows_lo = std::stoll(sm[1]);
      rows_hi = std::stoll(sm[2]);
    } else if (contains(line, "for (std::int32_t k = 0; k < ") &&
               std::regex_search(line, sm, slot_loop)) {
      slot_line = line_no;
      mismatch(line_no, "slot count", std::stoll(sm[1]), "scatter_width",
               meta.scatter_width);
    } else if (contains(line, "static_cast<std::int64_t>(k) * ") &&
               std::regex_search(line, sm, slot_run)) {
      (sm[1] == "scatter_val" ? val_line : col_line) = line_no;
      mismatch(line_no, "slot stride", std::stoll(sm[2]), "num_scatter_rows",
               nsr);
    }
  }
  if (acc_line > 0 && step_line > 0) {
    mismatch(acc_line, "accumulator extent", acc_extent, "block step", step);
  }
  if (rows_line > 0 && step_line > 0) {
    mismatch(rows_line, "block row clamp", rows_lo, "block step", step);
    mismatch(rows_line, "block row clamp", rows_hi, "block step", step);
  }
  if (nsr == 0) return;
  const std::pair<std::int64_t, const char*> required[] = {
      {clamp_line, "row clamp"},        {acc_line, "accumulator array"},
      {step_line, "block loop"},        {rows_line, "block row clamp"},
      {slot_line, "slot loop"},         {val_line, "value slot run"},
      {col_line, "column slot run"}};
  for (const auto& [found, what] : required) {
    if (found == 0) {
      emit(out, Code::kLintScatterLayout, -1,
           std::string("scatter function has no ") + what + " for its " +
               std::to_string(nsr) + " scatter rows");
    }
  }
}

std::vector<Diagnostic> lint_cpu(const LintMeta& meta,
                                 const std::string& source,
                                 const std::string& prefix) {
  std::vector<Diagnostic> out;
  for (const char* suffix : {"_diag", "_scatter"}) {
    const std::string decl = "extern \"C\" void " + prefix + suffix + "(";
    if (source.find(decl) == std::string::npos) {
      emit(out, Code::kLintMissingSymbol, -1,
           "expected entry point " + prefix + suffix + " not found");
    }
  }
  lint_cpu_body(meta, source, out);
  const std::size_t scatter =
      source.find("extern \"C\" void " + prefix + "_scatter(");
  if (scatter != std::string::npos) {
    lint_cpu_scatter(meta, source, scatter, out);
  }
  return out;
}

}  // namespace

template <Real T>
std::vector<Diagnostic> lint_cpu_codelet_source(
    const CrsdMatrix<T>& m, const std::string& source,
    const std::string& symbol_prefix) {
  return lint_cpu(make_lint_meta(m), source, symbol_prefix);
}

template std::vector<Diagnostic> lint_cpu_codelet_source<double>(
    const CrsdMatrix<double>&, const std::string&, const std::string&);
template std::vector<Diagnostic> lint_cpu_codelet_source<float>(
    const CrsdMatrix<float>&, const std::string&, const std::string&);

}  // namespace crsd::codegen
