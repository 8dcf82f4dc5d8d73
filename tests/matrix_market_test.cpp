// Matrix Market ingest at the trust boundary: the paper suite round-trips
// bitwise through files; hostile headers and entries end in a coded
// check::DiagnosticError; and a deterministic mutation fuzz over writer
// output (byte flips, truncations, digit insertions, header rewrites) never
// yields anything but a canonical in-range Coo or a coded crsd::Error.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "matrix/generators.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/paper_suite.hpp"

namespace crsd {
namespace {

using check::Code;
namespace fs = std::filesystem;

Coo<double> read_text(const std::string& text) {
  std::istringstream in(text);
  return read_matrix_market(in);
}

/// Reads `text`, which must be rejected with `code`; returns the diagnostic.
check::Diagnostic rejection(const std::string& text, Code code) {
  try {
    (void)read_text(text);
  } catch (const check::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostics().size(), 1u) << e.what();
    if (e.diagnostics().empty()) return {};
    const check::Diagnostic& d = e.diagnostics().front();
    EXPECT_EQ(d.code, code) << e.what();
    return d;
  }
  ADD_FAILURE() << "accepted hostile input:\n" << text;
  return {};
}

/// Asserts the diagnostic names 1-based entry `k` (offset and message).
void expect_names_entry(const check::Diagnostic& d, std::int64_t k) {
  EXPECT_EQ(d.offset, k) << d.format();
  EXPECT_NE(d.message.find("entry " + std::to_string(k) + ":"),
            std::string::npos)
      << d.format();
}

const std::string kGeneral = "%%MatrixMarket matrix coordinate real general\n";
const std::string kSymmetric =
    "%%MatrixMarket matrix coordinate real symmetric\n";
const std::string kSkew =
    "%%MatrixMarket matrix coordinate real skew-symmetric\n";

// --- Round trip: the 23 paper-suite matrices at the benchmark's scale. ----

class MatrixMarketRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MatrixMarketRoundTrip, PaperSuiteFileIsBitwiseIdentical) {
  const MatrixSpec& spec = paper_matrix(GetParam());
  const Coo<double> a = spec.generate(0.05);
  const fs::path path =
      fs::temp_directory_path() / ("crsd-mm-" + std::to_string(::getpid()) +
                                   "-" + spec.name + ".mtx");
  write_matrix_market_file(path.string(), a);
  const Coo<double> b = read_matrix_market_file(path.string());
  fs::remove(path);

  EXPECT_TRUE(b.is_canonical());
  EXPECT_EQ(b.num_rows(), a.num_rows());
  EXPECT_EQ(b.num_cols(), a.num_cols());
  EXPECT_EQ(b.row_indices(), a.row_indices());
  EXPECT_EQ(b.col_indices(), a.col_indices());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(b.values()[k]),
              std::bit_cast<std::uint64_t>(a.values()[k]))
        << spec.name << " entry " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, MatrixMarketRoundTrip,
                         ::testing::Range(1, 24),
                         [](const ::testing::TestParamInfo<int>& id) {
                           return paper_matrix(id.param).name;
                         });

// --- Grammar the reader keeps accepting. ---------------------------------

TEST(MatrixMarketGrammar, AcceptsSignsExponentsCrlfAndSplitEntries) {
  const Coo<double> a = read_text(
      "%%MatrixMarket MATRIX Coordinate REAL General\r\n"
      "% comment\r\n"
      "\n"
      "+3 3 5\r\n"
      "+1 +1 +1.5e+0\r\n"
      "2 1 -.25\n"
      "2\n2\n5.\n"
      "3 2 1E-310 3 3 -0\n"
      "trailing text after the declared entries is ignored\n");
  EXPECT_EQ(a.num_rows(), 3);
  EXPECT_EQ(a.num_cols(), 3);
  ASSERT_EQ(a.nnz(), 4u);  // the explicit -0 is dropped
  EXPECT_EQ(a.values()[0], 1.5);
  EXPECT_EQ(a.values()[1], -0.25);
  EXPECT_EQ(a.values()[2], 5.0);
  // A subnormal that does not round to zero keeps its bits.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.values()[3]),
            std::bit_cast<std::uint64_t>(1e-310));
}

TEST(MatrixMarketGrammar, IntegerFieldAndDuplicatesSumInFileOrder) {
  const Coo<double> a = read_text(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 3\n1 1 10000000000000000\n1 1 1\n1 1 -10000000000000000\n");
  ASSERT_EQ(a.nnz(), 0u);  // (1e16 + 1) - 1e16 == 0 in file order
  const Coo<double> b = read_text(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 3\n1 1 10000000000000000\n1 1 -10000000000000000\n1 1 1\n");
  ASSERT_EQ(b.nnz(), 1u);
  EXPECT_EQ(b.values()[0], 1.0);
}

TEST(MatrixMarketGrammar, StreamAndFileEntryPointsAgree) {
  const std::string text = kSymmetric + "3 3 3\n1 1 2\n3 1 -4\n3 2 0.5\n";
  const fs::path path = fs::temp_directory_path() /
                        ("crsd-mm-agree-" + std::to_string(::getpid()) +
                         ".mtx");
  {
    std::ofstream out(path);
    out << text;
  }
  const Coo<double> f = read_matrix_market_file(path.string());
  fs::remove(path);
  const Coo<double> s = read_text(text);
  EXPECT_EQ(f.row_indices(), s.row_indices());
  EXPECT_EQ(f.col_indices(), s.col_indices());
  EXPECT_EQ(f.values(), s.values());
  EXPECT_EQ(s.nnz(), 5u);
}

// --- Hostile headers: no narrowing, no allocation sized by the header. ----

TEST(MatrixMarketHostile, DimensionAboveIndexRangeIsIndexOverflow) {
  for (const char* size : {"4294967297 2 1", "2 4294967297 1",
                           "2147483648 2 1", "99999999999999999999 2 1"}) {
    rejection(kGeneral + size + "\n1 1 1.0\n", Code::kIndexOverflow);
  }
  // The largest index_t dimension is legal.
  const Coo<double> a =
      read_text(kGeneral + "2147483647 2147483647 1\n2147483647 1 1.0\n");
  EXPECT_EQ(a.num_rows(), 2147483647);
  ASSERT_EQ(a.nnz(), 1u);
  EXPECT_EQ(a.row_indices()[0], 2147483646);
}

TEST(MatrixMarketHostile, HugeEntryCountIsTruncationNotAllocation) {
  expect_names_entry(
      rejection(kGeneral + "2 2 1000000000000000\n1 1 1.0\n",
                Code::kMalformedInput),
      2);
  // The mirrored half doubles the reservation: it must not overflow.
  rejection(kSymmetric + "2 2 9223372036854775807\n1 1 1.0\n",
            Code::kMalformedInput);
  rejection("%%MatrixMarket matrix coordinate pattern symmetric\n"
            "2 2 9223372036854775807\n",
            Code::kMalformedInput);
  rejection(kGeneral + "2 2 9223372036854775808\n", Code::kMalformedInput);
}

TEST(MatrixMarketHostile, MalformedSizeLineAndBanner) {
  for (const char* size : {"2 2", "-1 2 1", "2 2 -1", "2 2 1.5", "2x 2 1",
                           "+-2 2 1", "0x2 2 1", ""}) {
    rejection(kGeneral + size + "\n", Code::kMalformedInput);
  }
  rejection("", Code::kMalformedInput);
  rejection("%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
            Code::kMalformedInput);
  rejection("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
            Code::kMalformedInput);
  rejection("%%MatrixMarket vector coordinate real general\n1 1 0\n",
            Code::kMalformedInput);
}

// --- Hostile entries: every token whole, nothing silently dropped. -------

TEST(MatrixMarketHostile, TokenThatDoesNotEndAtWhitespace) {
  // A prefix parse reads the first four as 1, 1, 1.5 and 0 (which then
  // vanishes); from_chars alone would take inf and nan.
  for (const char* value : {"1,5", "1.0D+03", "1.5abc", "0x1p3", "1e", "inf",
                            "nan", "-inf", "+-1", "."}) {
    expect_names_entry(
        rejection(kGeneral + "2 2 2\n1 1 1.0\n2 2 " + value + "\n",
                  Code::kMalformedInput),
        2);
  }
  for (const char* index : {"2.0", "1e0", "2,", "0x1"}) {
    expect_names_entry(
        rejection(kGeneral + "2 2 1\n" + index + " 1 1.0\n",
                  Code::kMalformedInput),
        1);
  }
}

TEST(MatrixMarketHostile, NonzeroValueThatUnderflowsToZero) {
  expect_names_entry(
      rejection(kGeneral + "2 2 2\n1 1 1.0\n2 2 1e-400\n",
                Code::kMalformedInput),
      2);
  rejection(kGeneral + "1 1 1\n1 1 -2e-324\n", Code::kMalformedInput);
  rejection(kGeneral + "1 1 1\n1 1 1e400\n", Code::kMalformedInput);
  // An exact zero is no underflow: it is read, then dropped as before.
  EXPECT_EQ(read_text(kGeneral + "1 1 1\n1 1 0e-400\n").nnz(), 0u);
}

TEST(MatrixMarketHostile, IndexOutOfRangeOrTruncated) {
  expect_names_entry(
      rejection(kGeneral + "2 2 1\n3 1 1.0\n", Code::kMalformedInput), 1);
  expect_names_entry(
      rejection(kGeneral + "2 2 1\n1 0 1.0\n", Code::kMalformedInput), 1);
  expect_names_entry(
      rejection(kGeneral + "2 2 2\n1 1 1.0\n2\n", Code::kMalformedInput), 2);
  expect_names_entry(
      rejection(kGeneral + "2 2 2\n1 1 1.0\n2 2\n", Code::kMalformedInput),
      2);
}

TEST(MatrixMarketHostile, UpperTriangleInSymmetricFile) {
  // Mirroring both halves would sum to 3.0 at (1,2) and at (2,1).
  expect_names_entry(
      rejection(kSymmetric + "2 2 2\n1 2 1.0\n2 1 2.0\n",
                Code::kMalformedInput),
      1);
  expect_names_entry(
      rejection(kSkew + "2 2 2\n2 1 1.0\n1 2 2.0\n", Code::kMalformedInput),
      2);
  expect_names_entry(
      rejection("%%MatrixMarket matrix coordinate pattern symmetric\n"
                "3 3 2\n3 1\n2 3\n",
                Code::kMalformedInput),
      2);
}

TEST(MatrixMarketHostile, DiagonalInSkewSymmetricFile) {
  expect_names_entry(
      rejection(kSkew + "2 2 2\n2 1 1.0\n2 2 1.0\n", Code::kMalformedInput),
      2);
  // Symmetric files store their diagonal normally.
  EXPECT_EQ(read_text(kSymmetric + "2 2 2\n2 2 1.0\n2 1 1.0\n").nnz(), 3u);
}

// --- Edge inputs through both entry points: outcome, code, entry, text. ---

/// What one entry point made of a text: its triplets, or its one diagnostic.
struct Ingest {
  bool accepted = false;
  Coo<double> coo;
  check::Diagnostic diag;
};

Ingest ingest(const std::string& text, bool from_file) {
  const fs::path path = fs::temp_directory_path() /
                        ("crsd-mm-edge-" + std::to_string(::getpid()) + ".mtx");
  if (from_file) {
    std::ofstream out(path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  Ingest r;
  try {
    r.coo = from_file ? read_matrix_market_file(path.string()) : read_text(text);
    r.accepted = true;
  } catch (const check::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostics().size(), 1u) << e.what();
    if (!e.diagnostics().empty()) r.diag = e.diagnostics().front();
  }
  if (from_file) fs::remove(path);
  return r;
}

/// Both entry points accept `text` with bitwise-equal triplets.
Coo<double> accepted_by_both(const std::string& text) {
  const Ingest s = ingest(text, false);
  const Ingest f = ingest(text, true);
  EXPECT_TRUE(s.accepted) << s.diag.format();
  EXPECT_TRUE(f.accepted) << f.diag.format();
  EXPECT_EQ(s.coo.row_indices(), f.coo.row_indices());
  EXPECT_EQ(s.coo.col_indices(), f.coo.col_indices());
  EXPECT_EQ(s.coo.nnz(), f.coo.nnz());
  for (size64_t k = 0; k < std::min(s.coo.nnz(), f.coo.nnz()); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.coo.values()[k]),
              std::bit_cast<std::uint64_t>(f.coo.values()[k]));
  }
  return s.coo;
}

/// Both entry points reject `text` with `code` on 1-based `entry`, with
/// exactly `message`.
void expect_rejected_by_both(const std::string& text, Code code,
                             std::int64_t entry, const std::string& message) {
  for (const bool from_file : {false, true}) {
    const Ingest r = ingest(text, from_file);
    EXPECT_FALSE(r.accepted) << (from_file ? "file" : "stream") << ":\n"
                             << text;
    EXPECT_EQ(r.diag.code, code) << r.diag.format();
    EXPECT_EQ(r.diag.offset, entry) << r.diag.format();
    EXPECT_EQ(r.diag.message, message) << (from_file ? "file" : "stream");
  }
}

TEST(MatrixMarketEdge, EveryWhitespaceSeparatesTokens) {
  const Coo<double> a = accepted_by_both(
      kGeneral + "3 3 4\n1\t1\t2.5\n2\v2\v-1\r\n3\f3\f4\r\n3\r\n1 \t\v\f\r\n-2");
  EXPECT_EQ(a.row_indices(), (std::vector<index_t>{0, 1, 2, 2}));
  EXPECT_EQ(a.col_indices(), (std::vector<index_t>{0, 1, 0, 2}));
  EXPECT_EQ(a.values(), (std::vector<double>{2.5, -1.0, -2.0, 4.0}));
}

TEST(MatrixMarketEdge, SignedAndZeroPaddedTokens) {
  const Coo<double> a = accepted_by_both(kGeneral + "2 2 1\n+1 +1 +.5\n");
  ASSERT_EQ(a.nnz(), 1u);
  EXPECT_EQ(a.row_indices()[0], 0);
  EXPECT_EQ(a.col_indices()[0], 0);
  EXPECT_EQ(a.values()[0], 0.5);

  const Coo<double> b = accepted_by_both(kGeneral + "2 2 2\n01 001 -.5e-3\n"
                                                    "002 +02 1E2");
  ASSERT_EQ(b.nnz(), 2u);
  EXPECT_EQ(b.row_indices(), (std::vector<index_t>{0, 1}));
  EXPECT_EQ(b.col_indices(), (std::vector<index_t>{0, 1}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.values()[0]),
            std::bit_cast<std::uint64_t>(-.5e-3));
  EXPECT_EQ(b.values()[1], 100.0);

  const Coo<double> c = accepted_by_both(kSymmetric + "2 2 1\n+2 01 -1\n");
  EXPECT_EQ(c.row_indices(), (std::vector<index_t>{0, 1}));
  EXPECT_EQ(c.col_indices(), (std::vector<index_t>{1, 0}));
  EXPECT_EQ(c.values(), (std::vector<double>{-1.0, -1.0}));
}

TEST(MatrixMarketEdge, ValueThatIsNoNumber) {
  const std::string nul_ended("1.0\0", 4);
  for (const std::string& value : {std::string("+"), std::string("-"),
                                  std::string(".5e"), std::string("."),
                                  std::string("+-1"), nul_ended}) {
    for (const char* tail : {"", "\n", " 1 1 1\n"}) {
      expect_rejected_by_both(kGeneral + "2 2 1\n1 1 " + value + tail,
                              Code::kMalformedInput, 1,
                              "entry 1: malformed value '" + value + "'");
    }
  }
  expect_rejected_by_both(kGeneral + "2 2 1\n1 1 " + std::string(70, 'a'),
                          Code::kMalformedInput, 1,
                          "entry 1: malformed value '" + std::string(64, 'a') +
                              "...'");
}

TEST(MatrixMarketEdge, MissingValueAndTruncatedEntries) {
  const std::string truncated =
      "entry 2: truncated Matrix Market stream: header declares 2 entries";
  expect_rejected_by_both(kGeneral + "2 2 1\n1 1", Code::kMalformedInput, 1,
                          "entry 1: missing value");
  expect_rejected_by_both(kGeneral + "2 2 1\n1 1 \r\n\t",
                          Code::kMalformedInput, 1, "entry 1: missing value");
  for (const char* last : {"", "x", "x\n", "+", "2 "}) {
    expect_rejected_by_both(kGeneral + "2 2 2\n1 1 1.0\n" + last,
                            Code::kMalformedInput, 2, truncated);
  }
  expect_rejected_by_both(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\nx",
      Code::kMalformedInput, 2, truncated);
  // With a second token present, the malformed one is named instead.
  expect_rejected_by_both(kGeneral + "2 2 2\n1 1 1.0\nx 1",
                          Code::kMalformedInput, 2,
                          "entry 2: malformed row index 'x'");
  expect_rejected_by_both(kGeneral + "2 2 2\n1 1 1.0\n1 x",
                          Code::kMalformedInput, 2,
                          "entry 2: malformed column index 'x'");
}

TEST(MatrixMarketEdge, ChecksRunRowColumnValueThenTriangle) {
  const std::string head = kGeneral + "2 2 1\n";
  expect_rejected_by_both(head + "3 1 x", Code::kMalformedInput, 1,
                          "entry 1: row index '3' out of range [1, 2]");
  expect_rejected_by_both(head + "-1 1 1", Code::kMalformedInput, 1,
                          "entry 1: row index '-1' out of range [1, 2]");
  expect_rejected_by_both(head + "1 0 x", Code::kMalformedInput, 1,
                          "entry 1: column index '0' out of range [1, 2]");
  expect_rejected_by_both(head + "x y z", Code::kMalformedInput, 1,
                          "entry 1: malformed row index 'x'");
  expect_rejected_by_both(head + "2.0 1 1", Code::kMalformedInput, 1,
                          "entry 1: malformed row index '2.0'");
  // An overflowing number is out of range even with junk after its digits.
  expect_rejected_by_both(
      head + "99999999999999999999x 1 1", Code::kMalformedInput, 1,
      "entry 1: row index '99999999999999999999x' out of range [1, 2]");
  expect_rejected_by_both(
      head + "1 1 1e400x", Code::kMalformedInput, 1,
      "entry 1: value '1e400x' overflows, or underflows to zero, as a double");
  // Triangle findings quote the index tokens as written.
  expect_rejected_by_both(kSymmetric + "2 2 1\n+1 02 1.0\n",
                          Code::kMalformedInput, 1,
                          "entry 1: upper-triangle entry (+1, 02) in a file "
                          "that stores only the lower triangle");
  expect_rejected_by_both(kSkew + "2 2 1\n01 +1 1\n", Code::kMalformedInput, 1,
                          "entry 1: diagonal entry (01, +1) in a "
                          "skew-symmetric file");
}

TEST(MatrixMarketEdge, NonSquareSymmetricFileMirrorsInsideTheMatrix) {
  // A 4 x 2 lower triangle: (2, 1) mirrors to (1, 2), which exists; (4, 2)
  // would mirror to (2, 4), past the last column.
  const Coo<double> a = accepted_by_both(kSymmetric + "4 2 1\n2 1 1.0\n");
  EXPECT_EQ(a.row_indices(), (std::vector<index_t>{0, 1}));
  EXPECT_EQ(a.col_indices(), (std::vector<index_t>{1, 0}));
  expect_rejected_by_both(
      kSymmetric + "4 2 2\n2 1 1.0\n4 2 2.0\n", Code::kMalformedInput, 2,
      "entry 2: mirrored entry (2, 4) is outside the 4 x 2 matrix");
  expect_rejected_by_both(
      kSkew + "4 3 3\n2 1 2\n3 1 -1\n4 2 +.5\n", Code::kMalformedInput, 3,
      "entry 3: mirrored entry (2, 4) is outside the 4 x 3 matrix");
}

// --- Deterministic mutation fuzz over writer output. ---------------------

/// Leading rows of a paper-suite matrix at a tiny scale, as the writer
/// emits them.
std::string suite_text(int id, index_t rows) {
  const Coo<double> a = paper_matrix(id).generate(0.001);
  std::ostringstream os;
  write_matrix_market(os, a.row_slice(0, std::min(rows, a.num_rows())));
  return os.str();
}

/// Lower triangle of a 2D 5-point stencil in symmetric storage.
std::string symmetric_text() {
  const Coo<double> a = stencil_5pt_2d(6, 6);
  std::ostringstream body;
  size64_t count = 0;
  body.precision(17);
  for (size64_t k = 0; k < a.nnz(); ++k) {
    if (a.row_indices()[k] < a.col_indices()[k]) continue;
    body << a.row_indices()[k] + 1 << ' ' << a.col_indices()[k] + 1 << ' '
         << a.values()[k] << '\n';
    ++count;
  }
  return kSymmetric + "36 36 " + std::to_string(count) + "\n" + body.str();
}

/// Structure of a dense band as a pattern file.
std::string pattern_text() {
  const Coo<double> a = dense_band(40, 2);
  std::ostringstream os;
  os << "%%MatrixMarket matrix coordinate pattern general\n% band\n"
     << a.num_rows() << ' ' << a.num_cols() << ' ' << a.nnz() << '\n';
  for (size64_t k = 0; k < a.nnz(); ++k) {
    os << a.row_indices()[k] + 1 << ' ' << a.col_indices()[k] + 1 << '\n';
  }
  return os.str();
}

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> texts = {
      suite_text(8, 64),   // wang4: 7-point stencil
      suite_text(9, 48),   // kim1: 25-diagonal stencil
      suite_text(21, 64),  // us80_80_50: unstructured, scatter entries
      symmetric_text(),
      pattern_text(),
  };
  return texts;
}

enum class Mutation { kByteFlip, kTruncate, kDigits, kHeader };

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_below(n));
}

void mutate(std::string& text, Mutation kind, Rng& rng) {
  static const std::string kBytes = "0123456789 \n\t\r+-.eE%,x";
  static const char* const kSizes[] = {
      "4294967297 2 1",       "2 4294967297 1",
      "2147483648 2 1",       "2147483647 2147483647 3",
      "2 2 1000000000000000", "2 2 9223372036854775807",
      "9 9 1e30",             "0 0 0",
      "-1 2 3",               "3 3",
      "1e3 2 1",              "+5 +5 +4",
      "3 3 -1",               "1 1 1 1",
  };
  static const char* const kBanners[] = {
      "%%MatrixMarket matrix coordinate real general",
      "%%MatrixMarket matrix coordinate real symmetric",
      "%%MatrixMarket matrix coordinate real skew-symmetric",
      "%%MatrixMarket matrix coordinate pattern general",
      "%%MatrixMarket matrix coordinate pattern symmetric",
      "%%MatrixMarket matrix coordinate integer general",
      "%%MatrixMarket matrix coordinate complex general",
      "%%MatrixMarket matrix array real general",
      "%%matrixmarket matrix coordinate real general",
  };
  switch (kind) {
    case Mutation::kByteFlip: {
      if (text.empty()) break;
      const std::size_t at = pick(rng, text.size());
      text[at] = rng.next_below(2) == 0
                     ? kBytes[pick(rng, kBytes.size())]
                     : static_cast<char>(rng.next_below(256));
      break;
    }
    case Mutation::kTruncate:
      text.resize(pick(rng, text.size() + 1));
      break;
    case Mutation::kDigits: {
      const std::size_t at = pick(rng, text.size() + 1);
      std::string digits(1 + pick(rng, 20), '0');
      for (char& c : digits) c = static_cast<char>('0' + rng.next_below(10));
      text.insert(at, digits);
      break;
    }
    case Mutation::kHeader: {
      // The size line is the first line not starting with '%'.
      std::size_t begin = 0;
      while (begin < text.size() && text[begin] == '%') {
        begin = text.find('\n', begin);
        begin = begin == std::string::npos ? text.size() : begin + 1;
      }
      const std::size_t end = std::min(text.find('\n', begin), text.size());
      if (rng.next_below(3) == 0) {
        const std::size_t banner_end = text.find('\n');
        text.replace(0, banner_end, kBanners[pick(rng, std::size(kBanners))]);
      } else {
        text.replace(begin, end - begin, kSizes[pick(rng, std::size(kSizes))]);
      }
      break;
    }
  }
}

struct FuzzTally {
  int accepted = 0;
  int rejected = 0;
};

/// One case: the result is canonical and in range, or the reader threw a
/// coded DiagnosticError. Nothing else (bad_alloc, a plain Error) passes.
void check_case(const std::string& text, const std::string& label,
                FuzzTally& tally) {
  try {
    const Coo<double> a = read_text(text);
    ++tally.accepted;
    ASSERT_TRUE(a.is_canonical()) << label;
    const auto& r = a.row_indices();
    const auto& c = a.col_indices();
    for (size64_t k = 0; k < a.nnz(); ++k) {
      ASSERT_TRUE(r[k] >= 0 && r[k] < a.num_rows() && c[k] >= 0 &&
                  c[k] < a.num_cols())
          << label << " entry " << k;
      ASSERT_NE(a.values()[k], 0.0) << label << " entry " << k;
      if (k > 0) {
        ASSERT_TRUE(r[k - 1] < r[k] || (r[k - 1] == r[k] && c[k - 1] < c[k]))
            << label << " entry " << k;
      }
    }
  } catch (const check::DiagnosticError& e) {
    ++tally.rejected;
    ASSERT_EQ(e.diagnostics().size(), 1u) << label;
    const Code code = e.diagnostics().front().code;
    ASSERT_TRUE(code == Code::kMalformedInput || code == Code::kIndexOverflow)
        << label << ": " << e.what();
  } catch (const std::exception& e) {
    FAIL() << label << ": uncoded exception: " << e.what();
  }
}

/// `cases` seeded mutation rounds per corpus text, each applying `kind`
/// (or, with `mixed`, 2-4 mutations of random kinds).
void fuzz(Mutation kind, bool mixed, int cases, std::uint64_t seed) {
  FuzzTally tally;
  const auto& texts = corpus();
  for (std::size_t t = 0; t < texts.size(); ++t) {
    for (int i = 0; i < cases; ++i) {
      Rng rng(seed * 1000003 + t * 7919 + static_cast<std::uint64_t>(i));
      std::string text = texts[t];
      const int rounds = mixed ? 2 + static_cast<int>(rng.next_below(3)) : 1;
      for (int m = 0; m < rounds; ++m) {
        mutate(text,
               mixed ? static_cast<Mutation>(rng.next_below(4)) : kind, rng);
      }
      check_case(text,
                 "corpus " + std::to_string(t) + " case " + std::to_string(i),
                 tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Both outcomes must occur, or the mutations stopped reaching the parser.
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(MatrixMarketFuzz, CorpusParsesClean) {
  FuzzTally tally;
  for (const std::string& text : corpus()) check_case(text, "clean", tally);
  EXPECT_EQ(tally.accepted, static_cast<int>(corpus().size()));
}

// 3500 cases over the five corpus texts.
TEST(MatrixMarketFuzz, ByteFlips) { fuzz(Mutation::kByteFlip, false, 200, 1); }
TEST(MatrixMarketFuzz, Truncations) {
  fuzz(Mutation::kTruncate, false, 100, 2);
}
TEST(MatrixMarketFuzz, DigitInsertions) {
  fuzz(Mutation::kDigits, false, 150, 3);
}
TEST(MatrixMarketFuzz, HeaderRewrites) {
  fuzz(Mutation::kHeader, false, 100, 4);
}
TEST(MatrixMarketFuzz, MixedMutations) {
  fuzz(Mutation::kByteFlip, /*mixed=*/true, 150, 5);
}

}  // namespace
}  // namespace crsd
