#include "codegen/codelet_lint.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
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
  return off >= std::numeric_limits<diag_offset_t>::min() &&
         off <= std::numeric_limits<diag_offset_t>::max() &&
         std::binary_search(p.offsets.begin(), p.offsets.end(),
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

std::string ordinal(std::size_t pattern, std::int64_t value) {
  return "pattern " + std::to_string(pattern) + ": " + std::to_string(value);
}

// --- Literal-anchored matchers over one line of source. --------------------
//
// Each construct the lint reads starts with a literal anchor, so a matcher
// finds the anchor with a plain substring search and reads the rest of the
// construct in place: literals with take(), baked numbers with take_int().

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Moves `s` past `lit` if it starts with it.
bool take(std::string_view& s, std::string_view lit) {
  if (!s.starts_with(lit)) return false;
  s.remove_prefix(lit.size());
  return true;
}

/// Moves `s` past the decimal integer at its front (a leading '-' only when
/// `sign` is set) and reads it into `v`. A number too long for int64 reads
/// as +-INT64_MAX, which equals no baked constant and negates safely.
bool take_int(std::string_view& s, bool sign, std::int64_t& v) {
  if (s.empty() || (s.front() == '-' && !sign)) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc::invalid_argument) return false;
  if (ec == std::errc::result_out_of_range) {
    v = s.front() == '-' ? -std::numeric_limits<std::int64_t>::max()
                         : std::numeric_limits<std::int64_t>::max();
  }
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

/// Tries `tail(rest, at)` after each occurrence of `anchor` in `line`, left
/// to right: `rest` is the text after the occurrence at `at`, and a tail
/// that matches moves `rest` past the match and returns true. Unless
/// `every` is set, the first match ends the search; with it, the search
/// resumes after each match. Returns whether anything matched.
template <typename Tail>
bool match(std::string_view line, std::string_view anchor, bool every,
           Tail&& tail) {
  bool matched = false;
  std::size_t at = line.find(anchor);
  while (at != std::string_view::npos) {
    std::string_view rest = line.substr(at + anchor.size());
    if (tail(rest, at)) {
      if (!every) return true;
      matched = true;
      at = line.find(anchor, line.size() - rest.size());
    } else {
      at = line.find(anchor, at + 1);
    }
  }
  return matched;
}

/// The first `prefix`, integer, `suffix` in `line`.
bool find_int(std::string_view line, std::string_view prefix, bool sign,
              std::string_view suffix, std::int64_t& v) {
  return match(line, prefix, false, [&](std::string_view& rest, std::size_t) {
    return take_int(rest, sign, v) && take(rest, suffix);
  });
}

/// Calls `on_line(line, line_no)` for each line of `text`, without its
/// '\n', numbering from `line_no`.
template <typename OnLine>
void for_each_line(std::string_view text, std::int64_t line_no,
                   OnLine&& on_line) {
  for (; !text.empty(); ++line_no) {
    const std::size_t nl = text.find('\n');
    on_line(text.substr(0, nl), line_no);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
}

/// Reads the x access whose 'x' is at `at`, with `rest` the text after it:
/// an identifier that starts with 'x' (not after a letter or '_'), goes on
/// in [a-z0-9] and is no xbuf*, indexed by r, i or lane, bare or plus or
/// minus a literal: x[r], x[r + 5], xx[lane - 16], xx[i + -4]. Gives the
/// index variable's first letter and the offset.
bool take_x_access(std::string_view line, std::size_t at,
                   std::string_view& rest, char& base, std::int64_t& off) {
  const auto letter_or_underscore = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if ((at > 0 && letter_or_underscore(line[at - 1])) ||
      rest.starts_with("buf")) {
    return false;
  }
  while (!rest.empty() && ((rest.front() >= 'a' && rest.front() <= 'z') ||
                           (rest.front() >= '0' && rest.front() <= '9'))) {
    rest.remove_prefix(1);
  }
  if (!take(rest, "[")) return false;
  if (take(rest, "r")) {
    base = 'r';
  } else if (take(rest, "i")) {
    base = 'i';
  } else if (take(rest, "lane")) {
    base = 'l';
  } else {
    return false;
  }
  off = 0;
  if (take(rest, "]")) return true;
  const bool minus = take(rest, " - ");
  if (!(minus || take(rest, " + ")) || !take_int(rest, true, off) ||
      !take(rest, "]")) {
    return false;
  }
  if (minus) off = -off;
  return true;
}

/// Per-line checks of the CPU codelet: literal lane loops must use mrows,
/// column clamps must use num_cols-1, baked x offsets must be live diagonals
/// of the current pattern (and in range when unclamped).
void lint_line(const LintMeta& meta, std::string_view line,
               std::int64_t line_no, std::int64_t pattern,
               const DiagonalPattern* pat, std::vector<Diagnostic>& out) {
  std::int64_t trip = 0;
  if (find_int(line, "for (std::int32_t lane = 0; lane < ", false,
               "; ++lane)", trip) &&
      trip != meta.mrows) {
    emit(out, Code::kLintTripCount, line_no,
         "literal lane trip count " + std::to_string(trip) + " != mrows (" +
             std::to_string(meta.mrows) + ")");
  }
  // crsd_clampi(<no comma>, 0, hi)
  match(line, "crsd_clampi(", true, [&](std::string_view& rest, std::size_t) {
    std::int64_t hi = 0;
    rest.remove_prefix(std::min(rest.find(','), rest.size()));
    if (!(take(rest, ", 0, ") && take_int(rest, true, hi) &&
          take(rest, ")"))) {
      return false;
    }
    if (hi != meta.num_cols - 1) {
      emit(out, Code::kLintBakedOffset, line_no,
           "column clamp upper bound " + std::to_string(hi) +
               " != num_cols-1 (" + std::to_string(meta.num_cols - 1) + ")");
    }
    return true;
  });
  if (pat == nullptr) return;
  match(line, "x", true, [&](std::string_view& rest, std::size_t at) {
    char base = 0;
    std::int64_t off = 0;
    if (!take_x_access(line, at, rest, base, off)) return false;
    if (base == 'i') {
      // AD-group staging copy: xbuf[i] = xx[i + first]; `first` must be a
      // live diagonal (the group's first offset).
      if (!offset_is_live(*pat, off)) {
        emit(out, Code::kLintBakedOffset, line_no,
             "staged x window starts at offset " + std::to_string(off) +
                 ", not a live diagonal of " +
                 ordinal(static_cast<std::size_t>(pattern), off));
      }
    } else if (!offset_is_live(*pat, off)) {
      emit(out, Code::kLintBakedOffset, line_no,
           "baked x offset " + std::to_string(off) +
               " is not a live diagonal of pattern " +
               std::to_string(pattern));
    } else if (base == 'r' && !offset_in_range(meta, *pat, off)) {
      // Unclamped row-relative access: legal only when provably in range.
      emit(out, Code::kLintBakedOffset, line_no,
           "unclamped x access at offset " + std::to_string(off) +
               " can leave [0, num_cols) for pattern " +
               std::to_string(pattern));
    }
    return true;
  });
}

/// A pattern marker, "// pattern P: ..., segments [s0, s1), interior
/// [i0, i1)": P at the first "// pattern " that has one, the ranges at the
/// last "segments [" after it.
struct Marker {
  std::int64_t pattern = 0, seg0 = 0, seg1 = 0, in0 = 0, in1 = 0;
};

bool find_marker(std::string_view line, Marker& mk) {
  std::string_view rest;
  if (!match(line, "// pattern ", false, [&](std::string_view& r, std::size_t) {
        if (!(take_int(r, false, mk.pattern) && take(r, ": "))) return false;
        rest = r;
        return true;
      })) {
    return false;
  }
  constexpr std::string_view kSegments = "segments [";
  const std::size_t at = rest.rfind(kSegments);
  if (at == std::string_view::npos) return false;
  rest.remove_prefix(at + kSegments.size());
  return take_int(rest, true, mk.seg0) && take(rest, ", ") &&
         take_int(rest, true, mk.seg1) && take(rest, "), interior [") &&
         take_int(rest, true, mk.in0) && take(rest, ", ") &&
         take_int(rest, true, mk.in1) && take(rest, ")");
}

/// Per-line structural checks of the CPU codelet: markers, segment/interior
/// bound clamps, trip counts, baked offsets. lint_cpu checks symbol presence
/// and the scatter function.
void lint_cpu_body(const LintMeta& meta, std::string_view source,
                   std::vector<Diagnostic>& out) {
  const auto& patterns = *meta.patterns;
  const auto& cum = *meta.cum_segments;
  std::vector<bool> seen(patterns.size(), false);
  std::int64_t cur = -1;  // pattern the scanner is inside
  for_each_line(source, 1, [&](std::string_view line, std::int64_t line_no) {
    Marker mk;
    if (find_marker(line, mk)) {
      cur = mk.pattern;
      if (cur >= static_cast<std::int64_t>(patterns.size())) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "marker names pattern " + std::to_string(cur) +
                 " but the container has " + std::to_string(patterns.size()));
        cur = -1;
        return;
      }
      const std::size_t p = static_cast<std::size_t>(cur);
      seen[p] = true;
      if (mk.seg0 != cum[p] || mk.seg1 != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "marker segment range [" + std::to_string(mk.seg0) + ", " +
                 std::to_string(mk.seg1) + ") != container's [" +
                 std::to_string(cum[p]) + ", " + std::to_string(cum[p + 1]) +
                 ") for pattern " + std::to_string(cur));
      }
      if (mk.in0 != meta.interior[p].begin || mk.in1 != meta.interior[p].end) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "marker interior [" + std::to_string(mk.in0) + ", " +
                 std::to_string(mk.in1) + ") != pattern_interior_segments' [" +
                 std::to_string(meta.interior[p].begin) + ", " +
                 std::to_string(meta.interior[p].end) + ") for pattern " +
                 std::to_string(cur));
      }
      return;
    }
    const DiagonalPattern* pat =
        cur >= 0 ? &patterns[static_cast<std::size_t>(cur)] : nullptr;
    if (cur >= 0) {
      const std::size_t p = static_cast<std::size_t>(cur);
      std::int64_t v = 0;
      if (find_int(line, "g0 = seg_begin > ", true, "", v) && v != cum[p]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "segment lower bound is " + ordinal(p, v) +
                 ", container expects " + std::to_string(cum[p]));
      } else if (find_int(line, "g1 = seg_end < ", true, "", v) &&
                 v != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "segment upper bound is " + ordinal(p, v) +
                 ", container expects " + std::to_string(cum[p + 1]));
      } else if (find_int(line, "i0 = crsd_clampi(", true, ", g0, g1)", v) &&
                 v != meta.interior[p].begin) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "interior begin is " + ordinal(p, v) +
                 ", pattern_interior_segments gives " +
                 std::to_string(meta.interior[p].begin));
      } else if (find_int(line, "i1 = crsd_clampi(", true, ", i0, g1)", v) &&
                 v != meta.interior[p].end) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "interior end is " + ordinal(p, v) +
                 ", pattern_interior_segments gives " +
                 std::to_string(meta.interior[p].end));
      }
    }
    lint_line(meta, line, line_no, cur, pat, out);
  });
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
/// at the function's declaration, the last one in the codelet.
void lint_cpu_scatter(const LintMeta& meta, std::string_view source,
                      std::size_t decl_pos, std::vector<Diagnostic>& out) {
  const std::int64_t nsr = meta.num_scatter_rows;
  const auto mismatch = [&](std::int64_t line_no, const std::string& what,
                            std::int64_t got, const char* expected,
                            std::int64_t want) {
    if (got == want) return;
    emit(out, Code::kLintScatterLayout, line_no,
         "scatter " + what + " " + std::to_string(got) + " != " + expected +
             " (" + std::to_string(want) + ")");
  };
  // Lines of the constructs found (0: not found); the block-extent checks
  // run after the scan, once the block step is known.
  std::int64_t clamp_line = 0, acc_line = 0, step_line = 0, rows_line = 0,
               slot_line = 0, val_line = 0, col_line = 0;
  std::int64_t acc_extent = 0, step = 0, rows_lo = 0, rows_hi = 0;
  const std::int64_t decl_line_no =
      1 + std::count(source.begin(),
                     source.begin() + static_cast<std::ptrdiff_t>(decl_pos),
                     '\n');
  const auto on_line = [&](std::string_view line, std::int64_t line_no) {
    std::int64_t lo = 0, hi = 0;
    std::int64_t* run_line = nullptr;  // val_line or col_line
    if (match(line, "i1 = row_end > ", false,
              [&](std::string_view& rest, std::size_t) {
                return take_int(rest, true, lo) && take(rest, " ? ") &&
                       take_int(rest, true, hi) && take(rest, " : row_end;");
              })) {
      clamp_line = line_no;
      mismatch(line_no, "row clamp", lo, "num_scatter_rows", nsr);
      mismatch(line_no, "row clamp", hi, "num_scatter_rows", nsr);
    } else if (match(line, "acc[", false,
                     [&](std::string_view& rest, std::size_t at) {
                       return (at == 0 || is_space(line[at - 1])) &&
                              take_int(rest, false, acc_extent) &&
                              take(rest, "];");
                     })) {
      acc_line = line_no;
    } else if (find_int(line, "b < i1; b += ", false, ")", step)) {
      step_line = line_no;
    } else if (match(line, "nb = i1 - b < ", false,
                     [&](std::string_view& rest, std::size_t) {
                       return take_int(rest, false, rows_lo) &&
                              take(rest, " ? i1 - b : ") &&
                              take_int(rest, false, rows_hi) &&
                              take(rest, ";");
                     })) {
      rows_line = line_no;
    } else if (find_int(line, "for (std::int32_t k = 0; k < ", true,
                        "; ++k)", lo)) {
      slot_line = line_no;
      mismatch(line_no, "slot count", lo, "scatter_width", meta.scatter_width);
    } else if (match(line, "scatter_", false,
                     [&](std::string_view& rest, std::size_t) {
                       run_line = take(rest, "val")   ? &val_line
                                  : take(rest, "col") ? &col_line
                                                      : nullptr;
                       return run_line != nullptr &&
                              take(rest,
                                   " + static_cast<std::int64_t>(k) * ") &&
                              take_int(rest, true, lo) && take(rest, " + b;");
                     })) {
      *run_line = line_no;
      mismatch(line_no, "slot stride", lo, "num_scatter_rows", nsr);
    }
  };
  for_each_line(source.substr(decl_pos), decl_line_no, on_line);
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
