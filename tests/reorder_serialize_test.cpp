// Tests for RCM reordering and binary CRSD serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/inspect.hpp"
#include "core/serialize.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "matrix/reorder.hpp"

namespace crsd {
namespace {

TEST(Permutation, InverseRoundTrip) {
  Permutation p{{2, 0, 3, 1}};
  const auto inv = p.inverse();
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(p.perm[static_cast<std::size_t>(i)])],
              i);
  }
}

TEST(Rcm, ReducesBandwidthOfShuffledBandMatrix) {
  // A banded matrix whose rows were scrambled: RCM must recover (nearly)
  // the band.
  const auto band = dense_band(256, 3);
  Rng rng(7);
  Permutation shuffle{{}};
  shuffle.perm.resize(256);
  for (index_t i = 0; i < 256; ++i) {
    shuffle.perm[static_cast<std::size_t>(i)] = i;
  }
  for (index_t i = 255; i > 0; --i) {
    std::swap(shuffle.perm[static_cast<std::size_t>(i)],
              shuffle.perm[static_cast<std::size_t>(rng.next_index(0, i))]);
  }
  const auto scrambled = permute_symmetric(band, shuffle);
  ASSERT_GT(matrix_bandwidth(scrambled), 50);

  const Permutation rcm = reverse_cuthill_mckee(scrambled);
  const auto restored = permute_symmetric(scrambled, rcm);
  EXPECT_LE(matrix_bandwidth(restored), 8);  // near the original 3
  EXPECT_EQ(restored.nnz(), band.nnz());
}

TEST(Rcm, PermutedSpmvConsistent) {
  // (P A P^T)(P x) = P (A x): solving in the reordered numbering gives the
  // same answers.
  Rng rng(8);
  auto a = broken_diagonals(200, {{5, 0.7, 2}, {-3, 0.9, 1}}, rng);
  const Permutation p = reverse_cuthill_mckee(a);
  const auto b = permute_symmetric(a, p);

  std::vector<double> x(200);
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> ax(200), permuted_result(200);
  a.spmv_reference(x.data(), ax.data());
  const auto px = permute_vector(x, p);
  b.spmv_reference(px.data(), permuted_result.data());
  const auto want = permute_vector(ax, p);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NEAR(permuted_result[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Rcm, HandlesDisconnectedComponentsAndIsolatedRows) {
  Coo<double> a(10, 10);
  // Two separate 3-cliques and four isolated diagonal entries.
  for (index_t i : {0, 1, 2}) {
    for (index_t j : {0, 1, 2}) a.add(i, j, 1.0);
  }
  for (index_t i : {7, 8, 9}) {
    for (index_t j : {7, 8, 9}) a.add(i, j, 1.0);
  }
  for (index_t i : {3, 4, 5, 6}) a.add(i, i, 2.0);
  a.canonicalize();
  const Permutation p = reverse_cuthill_mckee(a);
  // Must be a valid permutation of 0..9.
  std::vector<index_t> sorted = p.perm;
  std::sort(sorted.begin(), sorted.end());
  for (index_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
  const auto b = permute_symmetric(a, p);
  EXPECT_LE(matrix_bandwidth(b), 2);
}

TEST(Rcm, MakesScatteredMatrixCrsdFriendly) {
  // The end-to-end story: scrambled band -> many scatter rows in CRSD;
  // after RCM -> clean diagonal patterns.
  const auto band = dense_band(512, 2);
  Rng rng(9);
  Permutation shuffle{{}};
  shuffle.perm.resize(512);
  for (index_t i = 0; i < 512; ++i) {
    shuffle.perm[static_cast<std::size_t>(i)] = i;
  }
  for (index_t i = 511; i > 0; --i) {
    std::swap(shuffle.perm[static_cast<std::size_t>(i)],
              shuffle.perm[static_cast<std::size_t>(rng.next_index(0, i))]);
  }
  const auto scrambled = permute_symmetric(band, shuffle);
  const auto before = build(scrambled, CrsdConfig{.mrows = 32}).stats();
  const auto after =
      build(permute_symmetric(scrambled, reverse_cuthill_mckee(scrambled)),
                 CrsdConfig{.mrows = 32})
          .stats();
  EXPECT_LT(after.num_scatter_rows, before.num_scatter_rows / 4);
}

TEST(Serialize, RoundTripPreservesEverything) {
  Rng rng(10);
  auto a = astro_convection(8, 8, 6, true, rng);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::stringstream buf;
  write_crsd(buf, m);
  const CrsdMatrix<double> loaded = read_crsd<double>(buf);

  EXPECT_EQ(loaded.num_rows(), m.num_rows());
  EXPECT_EQ(loaded.mrows(), m.mrows());
  EXPECT_EQ(loaded.num_patterns(), m.num_patterns());
  EXPECT_EQ(loaded.dia_values(), m.dia_values());
  EXPECT_EQ(loaded.scatter_rows(), m.scatter_rows());

  // Reconstruction and SpMV identical.
  const auto back = crsd_to_coo(loaded);
  EXPECT_EQ(back.col_indices(), a.col_indices());
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 0.7);
  std::vector<double> y1(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> y2(y1.size());
  m.spmv(x.data(), y1.data());
  loaded.spmv(x.data(), y2.data());
  EXPECT_EQ(y1, y2);
}

TEST(Serialize, FloatRoundTripAndPrecisionGuard) {
  const auto a = dense_band(128, 2).cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  std::stringstream buf;
  write_crsd(buf, m);
  const std::string payload = buf.str();

  std::stringstream read_back(payload);
  const auto loaded = read_crsd<float>(read_back);
  EXPECT_EQ(loaded.dia_values(), m.dia_values());

  std::stringstream wrong_precision(payload);
  EXPECT_THROW(read_crsd<double>(wrong_precision), Error);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  std::stringstream junk("not a crsd stream at all");
  EXPECT_THROW(read_crsd<double>(junk), Error);

  const auto a = dense_band(64, 1);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  std::stringstream buf;
  write_crsd(buf, m);
  const std::string payload = buf.str();
  std::stringstream truncated(payload.substr(0, payload.size() / 2));
  EXPECT_THROW(read_crsd<double>(truncated), Error);
}

/// Reads the little-endian u64 at byte `at` of a serialized stream.
std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

/// Byte positions of fields in the write_crsd stream of a native double
/// matrix.
struct StreamLayout {
  std::size_t header = 0;       ///< end of the fixed header
  std::size_t tags = 0;         ///< value-precision tag, index-mode tag next
  std::size_t dia_count = 0;    ///< u64 count of the diagonal values
  std::size_t rowno_count = 0;  ///< u64 count of the scatter row numbers
};

StreamLayout layout_of(const CrsdMatrix<double>& m) {
  StreamLayout l;
  // Header: magic, value width, rows, cols, mrows, nnz, pattern count.
  l.header = 8 + 1 + 3 * sizeof(index_t) + sizeof(size64_t) + sizeof(index_t);
  l.tags = l.header;
  for (const DiagonalPattern& p : m.patterns()) {
    l.tags += 2 * sizeof(index_t) + sizeof(std::uint64_t) +
              p.offsets.size() * sizeof(diag_offset_t);
  }
  // Value-precision and index-mode tags, then the index-width vector.
  l.dia_count = l.tags + 2 + sizeof(std::uint64_t) +
                m.storage().pattern_index_width.size();
  l.rowno_count = l.dia_count + sizeof(std::uint64_t) +
                  m.dia_slot_count() * sizeof(double);
  return l;
}

TEST(Serialize, HostileCountsAndCutPayloadsThrowError) {
  Rng rng(12);
  auto a = dense_band(512, 3);
  inject_scatter(a, 20, rng);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::stringstream buf;
  write_crsd(buf, m);
  const std::string payload = buf.str();

  const StreamLayout layout = layout_of(m);
  const std::size_t header = layout.header;
  // Pattern 0's offset count follows its start row and segment count.
  const std::size_t offsets_count = header + 2 * sizeof(index_t);
  const std::size_t tags = layout.tags;
  const std::size_t dia_count = layout.dia_count;
  ASSERT_EQ(u64_at(payload, offsets_count), m.patterns()[0].offsets.size());
  ASSERT_EQ(u64_at(payload, dia_count), m.dia_slot_count());

  for (const std::size_t at : {offsets_count, dia_count}) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      SCOPED_TRACE(std::to_string(at) + ": " + std::to_string(count));
      std::string hostile = payload;
      std::memcpy(hostile.data() + at, &count, sizeof(count));
      std::stringstream is(hostile);
      EXPECT_THROW(read_crsd<double>(is), Error);
    }
  }

  // A row count and pattern count at the index maximum.
  {
    const index_t huge = std::numeric_limits<index_t>::max();
    std::string hostile = payload;
    std::memcpy(hostile.data() + 9, &huge, sizeof(huge));
    std::memcpy(hostile.data() + header - sizeof(index_t), &huge,
                sizeof(huge));
    std::stringstream is(hostile);
    EXPECT_THROW(read_crsd<double>(is), Error);
  }

  // Cut in the middle of the diagonal value payload.
  std::stringstream cut(payload.substr(
      0, dia_count + sizeof(std::uint64_t) +
             m.dia_slot_count() * sizeof(double) / 2));
  EXPECT_THROW(read_crsd<double>(cut), Error);

  // Tag 2 names no storage mode: neither the value-precision tag nor the
  // index-mode tag may carry it.
  ASSERT_EQ(payload[tags], 0);      // native values
  ASSERT_EQ(payload[tags + 1], 0);  // i32 scatter columns
  for (const std::size_t at : {tags, tags + 1}) {
    SCOPED_TRACE("tag at " + std::to_string(at));
    std::string hostile = payload;
    hostile[at] = 2;
    std::stringstream is(hostile);
    try {
      read_crsd<double>(is);
      ADD_FAILURE() << "tag 2 was accepted";
    } catch (const check::DiagnosticError& e) {
      EXPECT_TRUE(check::has_code(e.diagnostics(),
                                  check::Code::kMalformedInput))
          << e.what();
    }
  }
}

TEST(Serialize, OutOfRangeScatterRowIsRejected) {
  Rng rng(12);
  auto a = dense_band(512, 3);
  inject_scatter(a, 20, rng);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  const std::size_t nsr = m.scatter_rows().size();
  ASSERT_GT(nsr, 0u);
  std::stringstream buf;
  write_crsd(buf, m);
  std::string hostile = buf.str();
  const StreamLayout layout = layout_of(m);
  ASSERT_EQ(u64_at(hostile, layout.rowno_count), nsr);

  // The last scatter row number becomes 2^30. The rows stay ascending, and
  // a container built from them would have spmv write y[2^30].
  const std::size_t last = layout.rowno_count + sizeof(std::uint64_t) +
                           (nsr - 1) * sizeof(index_t);
  const index_t row = index_t{1} << 30;
  std::memcpy(hostile.data() + last, &row, sizeof(row));
  std::stringstream is(hostile);
  try {
    read_crsd<double>(is);
    ADD_FAILURE() << "scatter row 2^30 was accepted";
  } catch (const check::DiagnosticError& e) {
    EXPECT_TRUE(check::has_code(e.diagnostics(), check::Code::kScatterLayout))
        << e.what();
  }
}

// --- Seeded mutation fuzz over read_crsd. --------------------------------

enum class StreamMutation { kByteFlip, kTruncate, kRewrite4 };

TEST(SerializeFuzz, MutatedStreamsThrowOrLoadValidContainers) {
  // write_crsd streams of a matrix with several patterns and scatter rows,
  // in native+i32 and f32+u16 storage, mutated by seeded byte flips,
  // truncations and 4-byte rewrites to -1, 0, num_rows and INT32_MAX. Every
  // read must throw crsd::Error or load a container that check::validate
  // accepts and whose spmv runs.
  Rng gen(3);
  const auto a = partially_diagonal(256, 64, 8, 6, gen);
  const std::int32_t words[] = {-1, 0, a.num_rows(),
                                std::numeric_limits<std::int32_t>::max()};
  check::ValidateOptions vopts;
  vopts.require_scatter_disjoint = false;
  for (const StorageOptions storage :
       {StorageOptions{}, StorageOptions{ValuePrecision::kFloat32, true}}) {
    CrsdConfig cfg;
    cfg.mrows = 32;
    cfg.storage = storage;
    const auto m = build(a, cfg);
    ASSERT_GE(m.num_patterns(), 3);
    ASSERT_GT(m.num_scatter_rows(), 0);
    std::stringstream buf;
    write_crsd(buf, m);
    const std::string payload = buf.str();

    int loaded = 0, thrown = 0;
    for (int i = 0; i < 300; ++i) {
      Rng rng(0x5e7a1000u + static_cast<std::uint64_t>(i));
      auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.next_below(n));
      };
      std::string bytes = payload;
      switch (static_cast<StreamMutation>(rng.next_below(3))) {
        case StreamMutation::kByteFlip:
          bytes[pick(bytes.size())] = static_cast<char>(rng.next_below(256));
          break;
        case StreamMutation::kTruncate:
          bytes.resize(pick(bytes.size()));
          break;
        case StreamMutation::kRewrite4: {
          const std::int32_t w = words[pick(4)];
          std::memcpy(bytes.data() + pick(bytes.size() - 3), &w, sizeof(w));
          break;
        }
      }
      const std::string label = "case " + std::to_string(i);
      std::stringstream is(bytes);
      try {
        const CrsdMatrix<double> got = read_crsd<double>(is);
        ++loaded;
        const std::vector<check::Diagnostic> diags =
            check::validate(got, vopts);
        EXPECT_FALSE(check::has_errors(diags))
            << label << ": " << check::format_diagnostics(diags);
        std::vector<double> x(static_cast<std::size_t>(got.num_cols()), 1.0);
        std::vector<double> y(static_cast<std::size_t>(got.num_rows()));
        got.spmv(x.data(), y.data());
      } catch (const Error&) {
        ++thrown;
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": read_crsd threw a non-crsd error: "
                      << e.what();
      }
    }
    // Both outcomes must occur, or the mutations stopped reaching the
    // reader's checks.
    EXPECT_GT(loaded, 0);
    EXPECT_GT(thrown, 0);
  }
}

class SerializeSuite : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSuite, SuiteMatricesRoundTrip) {
  const auto a = paper_matrix(GetParam()).generate(0.01);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::stringstream buf;
  write_crsd(buf, m);
  const auto loaded = read_crsd<double>(buf);
  EXPECT_EQ(loaded.dia_values(), m.dia_values());
  EXPECT_EQ(loaded.scatter_val(), m.scatter_val());
  EXPECT_EQ(loaded.cum_segments(), m.cum_segments());
}

INSTANTIATE_TEST_SUITE_P(Suite, SerializeSuite,
                         ::testing::Values(3, 5, 9, 18, 21),
                         [](const auto& suite_info) {
                           return paper_matrix(suite_info.param).name;
                         });

}  // namespace
}  // namespace crsd
