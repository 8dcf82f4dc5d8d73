#include "matrix/matrix_market.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/error.hpp"

namespace crsd {
namespace {

using check::Code;

/// Throws the reader's structured error. `entry` is the 1-based entry the
/// finding is about (it also lands in Diagnostic::offset), or -1 for the
/// banner and size line.
[[noreturn]] void reject(Code code, std::int64_t entry,
                         const std::string& message) {
  check::Diagnostic d;
  d.code = code;
  d.offset = entry;
  d.message = entry > 0 ? "entry " + std::to_string(entry) + ": " + message
                        : message;
  const std::string what = "Matrix Market input rejected:\n" + d.format();
  throw check::DiagnosticError(what, {std::move(d)});
}

/// Quotes a piece of the input for a message, cut to a readable length
/// (a hostile token can be the whole file).
std::string quoted(std::string_view s) {
  constexpr std::size_t kMax = 64;
  std::string out(1, '\'');
  out.append(s.substr(0, kMax));
  out.append(s.size() > kMax ? "...'" : "'");
  return out;
}

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Splits the next line (without its '\n') off the front of `text`.
std::string_view take_line(std::string_view& text) {
  const std::size_t end = text.find('\n');
  const std::string_view line = text.substr(0, end);
  text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  return line;
}

const char* skip_space(const char* p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  return p;
}

/// The token that starts at `p`: the text up to the next whitespace.
std::string_view token_at(const char* p, const char* end) {
  const char* e = p;
  while (e != end && !is_space(*e)) ++e;
  return {p, static_cast<std::size_t>(e - p)};
}

/// Splits the next whitespace-delimited token off the front of `text`;
/// empty once only whitespace is left.
std::string_view take_token(std::string_view& text) {
  const char* const end = text.data() + text.size();
  const std::string_view token = token_at(skip_space(text.data(), end), end);
  text.remove_prefix(
      static_cast<std::size_t>(token.data() + token.size() - text.data()));
  return token;
}

enum class Parsed : std::uint8_t { kOk, kMalformed, kOutOfRange };

/// Converts the token at `p` as one decimal number in the grammar the reader
/// has always accepted: an optional sign ('+' too, which from_chars alone
/// rejects), then digits; reals may also start with '.' and carry a
/// fraction and exponent. The number must end at whitespace or at `end`;
/// inf/nan/hex, which from_chars would take, are malformed. Out-of-range
/// covers overflow and a nonzero real that underflows to zero, even with
/// junk after the number. On kOk, `p` moves past the number.
template <typename V>
Parsed parse_number(const char*& p, const char* end, V& out) {
  const char* first = p;
  if (first != end && (*first == '+' || *first == '-')) ++first;
  if (first == end ||
      !(is_digit(*first) || (std::is_floating_point_v<V> && *first == '.'))) {
    return Parsed::kMalformed;
  }
  const auto [ptr, ec] = std::from_chars(*p == '+' ? p + 1 : p, end, out);
  if (ec == std::errc::result_out_of_range) return Parsed::kOutOfRange;
  if (ec != std::errc() || (ptr != end && !is_space(*ptr))) {
    return Parsed::kMalformed;
  }
  p = ptr;
  return Parsed::kOk;
}

/// parse_number over a whole token.
template <typename V>
Parsed parse_number(std::string_view token, V& out) {
  const char* p = token.data();
  return parse_number(p, p + token.size(), out);
}

/// One token of an entry and how it converted.
struct Token {
  std::string_view text;
  Parsed parsed;
};

/// Skips whitespace and converts the token there into `out`, moving `p`
/// past it; only a rejected token is measured out to be quoted.
template <typename V>
Token next_token(const char*& p, const char* end, V& out) {
  const char* const at = skip_space(p, end);
  p = at;
  const Parsed parsed = parse_number(p, end, out);
  if (parsed != Parsed::kOk) p = at + token_at(at, end).size();
  return {{at, static_cast<std::size_t>(p - at)}, parsed};
}

/// Case-insensitive match of a banner token against a lower-case `name`.
bool iequals(std::string_view token, std::string_view name) {
  return std::equal(token.begin(), token.end(), name.begin(), name.end(),
                    [](char t, char n) {
                      return t == n ||
                             (t >= 'A' && t <= 'Z' && t - 'A' + 'a' == n);
                    });
}

enum class Field { kReal, kInteger, kPattern };
enum class Symmetry { kGeneral, kSymmetric, kSkewSymmetric };

struct Banner {
  Field field = Field::kReal;
  Symmetry symmetry = Symmetry::kGeneral;
};

Banner parse_banner(std::string_view line) {
  const std::string_view tag = take_token(line);
  const std::string_view object = take_token(line);
  const std::string_view format = take_token(line);
  const std::string_view field = take_token(line);
  const std::string_view symmetry = take_token(line);
  if (tag != "%%MatrixMarket") {
    reject(Code::kMalformedInput, -1,
           "not a Matrix Market stream (missing banner)");
  }
  if (!iequals(object, "matrix")) {
    reject(Code::kMalformedInput, -1, "unsupported object: " + quoted(object));
  }
  if (!iequals(format, "coordinate")) {
    reject(Code::kMalformedInput, -1,
           "only coordinate format is supported, got: " + quoted(format));
  }
  Banner b;
  if (iequals(field, "real")) {
    b.field = Field::kReal;
  } else if (iequals(field, "integer")) {
    b.field = Field::kInteger;
  } else if (iequals(field, "pattern")) {
    b.field = Field::kPattern;
  } else {
    reject(Code::kMalformedInput, -1,
           "unsupported Matrix Market field: " + quoted(field));
  }
  if (iequals(symmetry, "general")) {
    b.symmetry = Symmetry::kGeneral;
  } else if (iequals(symmetry, "symmetric")) {
    b.symmetry = Symmetry::kSymmetric;
  } else if (iequals(symmetry, "skew-symmetric")) {
    b.symmetry = Symmetry::kSkewSymmetric;
  } else {
    reject(Code::kMalformedInput, -1,
           "unsupported Matrix Market symmetry: " + quoted(symmetry));
  }
  return b;
}

/// Parses a matrix dimension from the size line. A value past the index_t
/// range (int64 overflow included) is an index overflow, not a silent
/// narrowing.
index_t parse_dimension(std::string_view token, const char* what,
                        std::string_view line) {
  std::int64_t v = -1;
  const Parsed p = parse_number(token, v);
  if (p == Parsed::kOutOfRange ||
      (p == Parsed::kOk && v > std::numeric_limits<index_t>::max())) {
    reject(Code::kIndexOverflow, -1,
           std::string(what) + " " + quoted(token) +
               " is outside the index_t range [0, " +
               std::to_string(std::numeric_limits<index_t>::max()) + "]");
  }
  if (p != Parsed::kOk || v < 0) {
    reject(Code::kMalformedInput, -1, "malformed size line: " + quoted(line));
  }
  return static_cast<index_t>(v);
}

/// Checks the 1-based row or column index `v` of entry `k`, converted from
/// `token`, and returns it 0-based in [0, bound).
index_t check_index(const Token& token, std::int64_t v, index_t bound,
                    std::int64_t k, const char* what) {
  if (token.parsed == Parsed::kMalformed) {
    reject(Code::kMalformedInput, k,
           std::string("malformed ") + what + " index " + quoted(token.text));
  }
  if (v < 1 || v > bound) {
    reject(Code::kMalformedInput, k,
           std::string(what) + " index " + quoted(token.text) +
               " out of range [1, " + std::to_string(bound) + "]");
  }
  return static_cast<index_t>(v - 1);
}

/// The one parser behind both entry points: banner, comment lines, size
/// line, then whitespace-separated entries (line breaks carry no meaning
/// there; input after the declared entries is ignored).
Coo<double> parse_matrix_market(std::string_view text) {
  if (text.empty()) {
    reject(Code::kMalformedInput, -1, "empty Matrix Market stream");
  }
  const Banner banner = parse_banner(take_line(text));

  // Skip comment lines; the first non-empty, non-comment line is the size
  // header.
  std::string_view line;
  while (!text.empty()) {
    line = take_line(text);
    if (!line.empty() && line[0] != '%') break;
    line = {};
  }
  std::string_view size_tokens = line;
  const std::string_view rows_token = take_token(size_tokens);
  const std::string_view cols_token = take_token(size_tokens);
  const std::string_view entries_token = take_token(size_tokens);
  const index_t rows = parse_dimension(rows_token, "rows", line);
  const index_t cols = parse_dimension(cols_token, "cols", line);
  std::int64_t entries = -1;
  if (parse_number(entries_token, entries) != Parsed::kOk || entries < 0) {
    reject(Code::kMalformedInput, -1, "malformed size line: " + quoted(line));
  }

  const bool pattern = banner.field == Field::kPattern;
  const bool general = banner.symmetry == Symmetry::kGeneral;
  const bool skew = banner.symmetry == Symmetry::kSkewSymmetric;
  // The header's entry count is untrusted: reserve only what the remaining
  // input can hold. Each entry is 2 or 3 tokens of at least one byte, each
  // followed by whitespace but the very last, so `fit` <= text.size() / 4
  // and doubling it for the mirrored half cannot overflow.
  const size64_t tokens_per_entry = pattern ? size64_t{2} : size64_t{3};
  const size64_t fit = (text.size() + 1) / (2 * tokens_per_entry);
  const size64_t expect = std::min(static_cast<size64_t>(entries), fit);
  Coo<double> a(rows, cols);
  a.reserve(general ? expect : 2 * expect);

  // One pass over the entries: each number is converted straight from the
  // input, and its end is checked against whitespace.
  const char* p = text.data();
  const char* const end = p + text.size();
  for (std::int64_t k = 1; k <= entries; ++k) {
    std::int64_t rv = 0;
    std::int64_t cv = 0;
    const Token row = next_token(p, end, rv);
    p = skip_space(p, end);
    if (p == end) {
      reject(Code::kMalformedInput, k,
             "truncated Matrix Market stream: header declares " +
                 std::to_string(entries) + " entries");
    }
    const index_t r = check_index(row, rv, rows, k, "row");
    const Token col = next_token(p, end, cv);
    const index_t c = check_index(col, cv, cols, k, "column");
    double v = 1.0;
    if (!pattern) {
      const Token value = next_token(p, end, v);
      if (value.text.empty()) {
        reject(Code::kMalformedInput, k, "missing value");
      }
      if (value.parsed == Parsed::kMalformed) {
        reject(Code::kMalformedInput, k,
               "malformed value " + quoted(value.text));
      }
      if (value.parsed == Parsed::kOutOfRange) {
        reject(Code::kMalformedInput, k,
               "value " + quoted(value.text) +
                   " overflows, or underflows to zero, as a double");
      }
    }
    if (!general && r < c) {
      reject(Code::kMalformedInput, k,
             "upper-triangle entry (" + std::string(row.text) + ", " +
                 std::string(col.text) +
                 ") in a file that stores only the lower triangle");
    }
    if (skew && r == c) {
      reject(Code::kMalformedInput, k,
             "diagonal entry (" + std::string(row.text) + ", " +
                 std::string(col.text) + ") in a skew-symmetric file");
    }
    // In a non-square file, a lower-triangle entry can mirror past the last
    // column.
    if (!general && r >= cols) {
      reject(Code::kMalformedInput, k,
             "mirrored entry (" + std::string(col.text) + ", " +
                 std::string(row.text) + ") is outside the " +
                 std::to_string(rows) + " x " + std::to_string(cols) +
                 " matrix");
    }
    a.add(r, c, v);
    if (!general && r != c) a.add(c, r, skew ? -v : v);
  }
  a.canonicalize();
  return a;
}

}  // namespace

Coo<double> read_matrix_market(std::istream& in) {
  std::ostringstream buf;
  if (in.rdbuf() != nullptr) buf << in.rdbuf();
  return parse_matrix_market(buf.view());
}

Coo<double> read_matrix_market_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CRSD_CHECK_MSG(in.good(), "cannot open Matrix Market file: " << path);
  const std::streamoff size = in.tellg();
  CRSD_CHECK_MSG(size >= 0, "cannot size Matrix Market file: " << path);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  CRSD_CHECK_MSG(in.read(text.data(), size) && in.gcount() == size,
                 "cannot read Matrix Market file: " << path);
  return parse_matrix_market(text);
}

void write_matrix_market(std::ostream& out, const Coo<double>& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by crsd-spmv\n";
  out << a.num_rows() << ' ' << a.num_cols() << ' ' << a.nnz() << '\n';
  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  out.precision(17);
  for (size64_t k = 0; k < a.nnz(); ++k) {
    out << rows[k] + 1 << ' ' << cols[k] + 1 << ' ' << vals[k] << '\n';
  }
  CRSD_CHECK_MSG(out.good(), "write failure while emitting Matrix Market data");
}

void write_matrix_market_file(const std::string& path, const Coo<double>& a) {
  std::ofstream out(path);
  CRSD_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write_matrix_market(out, a);
}

}  // namespace crsd
