// Golden construction test: freezes the builder's output. Each case
// builds one matrix under one CrsdConfig and compares fnv1a64 of the
// write_crsd stream, and structure_hash of the input, with constants
// recorded from an earlier builder. A change to any storage byte (pattern,
// value slot, scatter row, ELL slot) or to the structure hash that keys the
// tune and partition caches fails here.
//
// A mismatch prints the whole table as computed. Paste it only for a
// deliberate storage-format change, and say which bytes moved and why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/inspect.hpp"
#include "core/serialize.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"

namespace crsd {
namespace {

struct Golden {
  const char* name;
  std::uint64_t stream;  ///< fnv1a64 of write_crsd's bytes
  std::uint64_t shape;   ///< structure_hash of the input
};

// clang-format off
constexpr Golden kGolden[] = {
    {"suite/crystk03/default", 0x2abf9419662198e4ull, 0x05776c165493922full},
    {"suite/crystk03/knobs", 0xcf0776aec0e784ffull, 0x05776c165493922full},
    {"suite/crystk02/default", 0xa354f1f29d422d34ull, 0xbea2553afa67653cull},
    {"suite/crystk02/knobs", 0xf95a2d6acd033c06ull, 0xbea2553afa67653cull},
    {"suite/s3dkt3m2/default", 0xe9d04cd148dc56fdull, 0xa6acc826ec8dd422ull},
    {"suite/s3dkt3m2/knobs", 0xc07bcc5eaa9015e7ull, 0xa6acc826ec8dd422ull},
    {"suite/s3dkq4m2/default", 0x38d10d21f4ad48f1ull, 0x056eb07f89745f5eull},
    {"suite/s3dkq4m2/knobs", 0x36df297b07bf554bull, 0x056eb07f89745f5eull},
    {"suite/ecology1/default", 0x84b1b324cd1e3994ull, 0x1319976306b31197ull},
    {"suite/ecology1/knobs", 0x057a767e868e4f79ull, 0x1319976306b31197ull},
    {"suite/ecology2/default", 0x8ffec5b0943a71a9ull, 0x1319976306b31197ull},
    {"suite/ecology2/knobs", 0x18a72e7411a739e0ull, 0x1319976306b31197ull},
    {"suite/wang3/default", 0xcbb7ac6b8c8d5d41ull, 0xfe962b9d779da7c0ull},
    {"suite/wang3/knobs", 0x11ad002f178212d2ull, 0xfe962b9d779da7c0ull},
    {"suite/wang4/default", 0x2c100e21112b3ddfull, 0xef686e1795e5f5c5ull},
    {"suite/wang4/knobs", 0x15874935a303ba78ull, 0xef686e1795e5f5c5ull},
    {"suite/kim1/default", 0xaf00fcdd4a21fbb6ull, 0x169dc742d18cbbb9ull},
    {"suite/kim1/knobs", 0x7f875356bba6c34full, 0x169dc742d18cbbb9ull},
    {"suite/kim2/default", 0x62f5904f15f34eafull, 0x8d8f99a8414030a3ull},
    {"suite/kim2/knobs", 0xef6afc83dd891392ull, 0x8d8f99a8414030a3ull},
    {"suite/af_1_k101/default", 0xad3df56029a13e61ull, 0xb34cd69a2eda4757ull},
    {"suite/af_1_k101/knobs", 0x0b6613b5041f0a35ull, 0xb34cd69a2eda4757ull},
    {"suite/af_2_k101/default", 0xaa10c9af43fe04b8ull, 0xf37254572859396eull},
    {"suite/af_2_k101/knobs", 0x6b2c37e0308dc6a4ull, 0xf37254572859396eull},
    {"suite/af_3_k101/default", 0xcc67682dcbcc01efull, 0x5a94832ced80036eull},
    {"suite/af_3_k101/knobs", 0xc4c9211742b4557full, 0x5a94832ced80036eull},
    {"suite/Lin/default", 0xd5587e95bf412f09ull, 0x4784c84717f089fdull},
    {"suite/Lin/knobs", 0x04602e658fd134e6ull, 0x4784c84717f089fdull},
    {"suite/nemeth21/default", 0x41257cc10e50079bull, 0x0a67ffe53a7a1586ull},
    {"suite/nemeth21/knobs", 0xc218397f8c96f81bull, 0x0a67ffe53a7a1586ull},
    {"suite/nemeth22/default", 0xf94099d312ed8a33ull, 0x1918742421af99c9ull},
    {"suite/nemeth22/knobs", 0x447167020fc9de1dull, 0x1918742421af99c9ull},
    {"suite/nemeth23/default", 0x95e275f70d3bf24dull, 0xf0f105af535b9b75ull},
    {"suite/nemeth23/knobs", 0x84d557d352df50eaull, 0xf0f105af535b9b75ull},
    {"suite/s80_80_50/default", 0xe797d42aeff37ec5ull, 0x186daa4fb9950511ull},
    {"suite/s80_80_50/knobs", 0xdf66888c32a9a00eull, 0x186daa4fb9950511ull},
    {"suite/s100_100_62/default", 0xf99f3b90f5bf926bull, 0x1643380f2293ed9full},
    {"suite/s100_100_62/knobs", 0x3cd5c7dc9b8b0117ull, 0x1643380f2293ed9full},
    {"suite/s110_110_68/default", 0x06ff36a4db013d86ull, 0xa0bda024a9138112ull},
    {"suite/s110_110_68/knobs", 0x430af11654d54e67ull, 0xa0bda024a9138112ull},
    {"suite/us80_80_50/default", 0x65eb0120e7790998ull, 0x3b65f356f0b669fdull},
    {"suite/us80_80_50/knobs", 0xe923d984070b62aaull, 0x3b65f356f0b669fdull},
    {"suite/us100_100_62/default", 0x0d157952a908ba4dull, 0xe34c79030e453235ull},
    {"suite/us100_100_62/knobs", 0x75d79589c8a242c0ull, 0xe34c79030e453235ull},
    {"suite/us110_110_68/default", 0x31ec380793a19236ull, 0x9f1e9152bc315cbfull},
    {"suite/us110_110_68/knobs", 0xeae815c8fb317390ull, 0x9f1e9152bc315cbfull},
    {"partial/pd_band_heavy/m32", 0x5f8d40a828e848b8ull, 0x8a4bb07749e401b0ull},
    {"partial/pd_band_heavy/m64", 0xd219cb4761b3cb5aull, 0x8a4bb07749e401b0ull},
    {"partial/pd_band_heavy/m128", 0xb646a05432bdd8e1ull, 0x8a4bb07749e401b0ull},
    {"partial/pd_band_heavy/m256", 0xd99e641bd15ce62bull, 0x8a4bb07749e401b0ull},
    {"partial/pd_balanced/m32", 0xea4ec8b3301cc7b5ull, 0x747d0015842119d5ull},
    {"partial/pd_balanced/m64", 0xb3e4c025daebd317ull, 0x747d0015842119d5ull},
    {"partial/pd_balanced/m128", 0x71cf64095b06d500ull, 0x747d0015842119d5ull},
    {"partial/pd_balanced/m256", 0xe657763afbd40acfull, 0x747d0015842119d5ull},
    {"partial/pd_scatter_heavy/m32", 0x57b3d2e528066499ull, 0x3560ae96b73f1e1dull},
    {"partial/pd_scatter_heavy/m64", 0xafd35d43320df3d9ull, 0x3560ae96b73f1e1dull},
    {"partial/pd_scatter_heavy/m128", 0x9a3993aa3eff61c5ull, 0x3560ae96b73f1e1dull},
    {"partial/pd_scatter_heavy/m256", 0x2d8f1eafa2a07f46ull, 0x3560ae96b73f1e1dull},
    {"partial/pd_wide_tail/m32", 0x80ac9ebada976744ull, 0xf3d6c91961d97506ull},
    {"partial/pd_wide_tail/m64", 0xd5e9a96e04e0c401ull, 0xf3d6c91961d97506ull},
    {"partial/pd_wide_tail/m128", 0x95a000ddccaab02bull, 0xf3d6c91961d97506ull},
    {"partial/pd_wide_tail/m256", 0x2f2b8111fc3b4ef8ull, 0xf3d6c91961d97506ull},
    {"partial/pd_narrow_tail/m32", 0xdc4f78fc5150e548ull, 0x9766bd581434105full},
    {"partial/pd_narrow_tail/m64", 0x522e5dffa214da66ull, 0x9766bd581434105full},
    {"partial/pd_narrow_tail/m128", 0x11d76a87fa48913dull, 0x9766bd581434105full},
    {"partial/pd_narrow_tail/m256", 0x4fecc797ba50ce85ull, 0x9766bd581434105full},
    {"zoo/0/m16", 0xfcbbc24a338cd0bbull, 0xad2372ffd671c549ull},
    {"zoo/0/m64", 0xd680e022cf5784e7ull, 0xad2372ffd671c549ull},
    {"zoo/1/m16", 0x2b289d66998f9320ull, 0xb85db1c8331f8685ull},
    {"zoo/1/m64", 0x89fcbcbd1188173aull, 0xb85db1c8331f8685ull},
    {"zoo/2/m16", 0xf175935b6e5ce1d0ull, 0xa16c91c6b16a35a9ull},
    {"zoo/2/m64", 0xe288e4f7108d8dafull, 0xa16c91c6b16a35a9ull},
    {"zoo/3/m16", 0x39b9f50309d80f70ull, 0x497e7fda63e3f1aaull},
    {"zoo/3/m64", 0xa4359715f233d402ull, 0x497e7fda63e3f1aaull},
    {"zoo/4/m16", 0xcbca1cf01a285903ull, 0x94ea93eb5ce692a0ull},
    {"zoo/4/m64", 0x13762a5bbb27e5bdull, 0x94ea93eb5ce692a0ull},
    {"zoo/5/m16", 0x4912fdfdc043bcfaull, 0x7b1e7bbbece662c6ull},
    {"zoo/5/m64", 0xdad9199584d6312eull, 0x7b1e7bbbece662c6ull},
    {"edge/empty_5x7/m16", 0x68784cf0bbf583c0ull, 0xd60524104e20f207ull},
    {"edge/one_entry_64x64/m16", 0x3a27dc00e1a094f9ull, 0x5417866cdfe2c4f2ull},
    {"edge/row_1x200/m16", 0x68266de28c61a84eull, 0x20173644de2642c8ull},
    {"edge/band_7x2/m16", 0x0c4bb4f7accdaef6ull, 0x8bc82bf747148d10ull},
    {"broken/gap0/fill25/zero/m32", 0x88c0ff18fbfbe557ull, 0x2cbf12e3042e44c7ull},
    {"broken/gap0/fill25/keep/m32", 0x88c0ff18fbfbe557ull, 0x2cbf12e3042e44c7ull},
    {"broken/gap0/fill75/zero/m32", 0x922a582e5564600eull, 0x2cbf12e3042e44c7ull},
    {"broken/gap0/fill75/keep/m32", 0x6f802e5fddfa56e9ull, 0x2cbf12e3042e44c7ull},
    {"broken/gap4/fill25/zero/m32", 0x88c0ff18fbfbe557ull, 0x2cbf12e3042e44c7ull},
    {"broken/gap4/fill25/keep/m32", 0x88c0ff18fbfbe557ull, 0x2cbf12e3042e44c7ull},
    {"broken/gap4/fill75/zero/m32", 0x922a582e5564600eull, 0x2cbf12e3042e44c7ull},
    {"broken/gap4/fill75/keep/m32", 0x6f802e5fddfa56e9ull, 0x2cbf12e3042e44c7ull},
    {"bridge/gap1/m32", 0x6d180cb8c8124eb8ull, 0x3747a5a82cce1d76ull},
    {"bridge/gap4/m32", 0x3acbf40b6828ddcbull, 0x3747a5a82cce1d76ull},
};
// clang-format on

struct Case {
  std::string name;
  std::function<Coo<double>()> matrix;
  CrsdConfig config;
};

/// Non-default knobs: every liveness rule moved off its default.
CrsdConfig knob_config() {
  CrsdConfig cfg;
  cfg.mrows = 32;
  cfg.live_min_nnz = 1;
  cfg.live_min_fill = 0.25;
  cfg.extend_ragged_edges = false;
  cfg.fill_max_gap_segments = 0;
  cfg.zero_scatter_rows_in_dia = false;
  return cfg;
}

Coo<double> random_sparse(index_t n, index_t m, size64_t nnz, int seed) {
  Rng rng(seed);
  Coo<double> a(n, m);
  for (size64_t k = 0; k < nnz; ++k) {
    a.add(rng.next_index(0, n - 1), rng.next_index(0, m - 1),
          rng.next_double(-1.0, 1.0));
  }
  a.canonicalize();
  return a;
}

/// Structure zoo: each entry stresses a different builder path (pure
/// diagonals, ragged edge extension, gap bridging vs breaking, scatter
/// extraction, diagonal-structure-free).
std::vector<Coo<double>> structure_zoo() {
  std::vector<Coo<double>> zoo;
  Rng rng(7);
  zoo.push_back(stencil_9pt_2d(23, 17));
  zoo.push_back(dense_band(300, 3));
  zoo.push_back(full_diagonals(257, {-64, -1, 0, 1, 64}, rng));
  zoo.push_back(broken_diagonals(
      300, {{-40, 0.55, 11}, {0, 1.0, 1}, {40, 0.7, 12}}, rng));
  zoo.push_back(random_sparse(400, 400, 2500, 41));  // scatter-dominated
  zoo.push_back(random_sparse(96, 512, 900, 42));    // wide rectangular
  return zoo;
}

/// Degenerate inputs: no nonzeros, a lone entry in the last row, one wide
/// row, and fewer rows than one 16-row segment.
constexpr const char* kEdgeNames[] = {"empty_5x7", "one_entry_64x64",
                                      "row_1x200", "band_7x2"};
std::vector<Coo<double>> edge_cases() {
  std::vector<Coo<double>> edges;
  edges.emplace_back(5, 7);
  edges.emplace_back(64, 64);
  edges.back().add(63, 0, 2.5);
  edges.emplace_back(1, 200);
  for (index_t c = 0; c < 200; c += 3) edges.back().add(0, c, double(c + 1));
  edges.push_back(dense_band(7, 2));
  for (auto& a : edges) a.canonicalize();
  return edges;
}

/// Three broken diagonals for the knob sweep at mrows 32: gap bridging,
/// the anchor fill threshold and scatter-row zeroing off their defaults.
Coo<double> broken_sweep() {
  Rng rng(24);
  return broken_diagonals(256, {{-30, 0.5, 21}, {0, 0.9, 7}, {30, 0.6, 9}},
                          rng);
}

/// One off-diagonal in two live runs three dead 32-row segments apart (the
/// knob sweep's idle sections are shorter than a segment, so its gap
/// setting stores the same bytes): gap 4 bridges them with zero fill,
/// where the default gap 1 breaks the diagonal.
Coo<double> three_segment_gap() {
  Rng rng(24);
  return broken_diagonals(512, {{-30, 0.5, 2}}, rng);
}

/// bench_partition's partially diagonal members, same shapes and seeds.
struct PartialDiag {
  const char* name;
  index_t top_rows, bottom_rows, band, max_row_nnz;
  std::uint64_t seed;
};
constexpr PartialDiag kPartialDiag[] = {
    {"pd_band_heavy", 24576, 6144, 24, 48, 11},
    {"pd_balanced", 16384, 8192, 16, 40, 12},
    {"pd_scatter_heavy", 12288, 12288, 8, 56, 13},
    {"pd_wide_tail", 20480, 4096, 32, 64, 14},
    {"pd_narrow_tail", 28672, 4096, 12, 32, 15},
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const auto& spec : paper_suite()) {
    auto gen = [&spec] { return spec.generate(0.02); };
    out.push_back({"suite/" + spec.name + "/default", gen, CrsdConfig{}});
    out.push_back({"suite/" + spec.name + "/knobs", gen, knob_config()});
  }
  for (const PartialDiag& pd : kPartialDiag) {
    for (index_t mrows : {32, 64, 128, 256}) {
      CrsdConfig cfg;
      cfg.mrows = mrows;
      out.push_back({std::string("partial/") + pd.name + "/m" +
                         std::to_string(mrows),
                     [&pd] {
                       Rng rng(pd.seed);
                       return partially_diagonal(pd.top_rows, pd.bottom_rows,
                                                 pd.band, pd.max_row_nnz, rng);
                     },
                     cfg});
    }
  }
  for (std::size_t z = 0; z < structure_zoo().size(); ++z) {
    for (index_t mrows : {16, 64}) {
      CrsdConfig cfg;
      cfg.mrows = mrows;
      out.push_back({"zoo/" + std::to_string(z) + "/m" + std::to_string(mrows),
                     [z] { return structure_zoo()[z]; }, cfg});
    }
  }
  for (std::size_t e = 0; e < std::size(kEdgeNames); ++e) {
    CrsdConfig cfg;
    cfg.mrows = 16;
    out.push_back({std::string("edge/") + kEdgeNames[e] + "/m16",
                   [e] { return edge_cases()[e]; }, cfg});
  }
  for (index_t gap : {0, 4}) {
    for (double fill : {0.25, 0.75}) {
      for (bool zero_scatter : {true, false}) {
        CrsdConfig cfg;
        cfg.mrows = 32;
        cfg.fill_max_gap_segments = gap;
        cfg.live_min_fill = fill;
        cfg.zero_scatter_rows_in_dia = zero_scatter;
        out.push_back({"broken/gap" + std::to_string(gap) +
                           (fill < 0.5 ? "/fill25" : "/fill75") +
                           (zero_scatter ? "/zero" : "/keep") + "/m32",
                       broken_sweep, cfg});
      }
    }
  }
  for (index_t gap : {1, 4}) {
    CrsdConfig cfg;
    cfg.mrows = 32;
    cfg.fill_max_gap_segments = gap;
    out.push_back({"bridge/gap" + std::to_string(gap) + "/m32",
                   three_segment_gap, cfg});
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(BuildGolden, SerialStorageAndStructureHashMatchRecordedValues) {
  const std::vector<Case> all = cases();
  EXPECT_EQ(all.size(), std::size(kGolden));
  std::string regenerated;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Case& c = all[i];
    const Coo<double> a = c.matrix();
    std::ostringstream os;
    write_crsd(os, build(a, c.config));
    const std::uint64_t stream = fnv1a64(os.str());
    const std::uint64_t shape = structure_hash(a);
    if (i < std::size(kGolden)) {
      EXPECT_STREQ(kGolden[i].name, c.name.c_str());
      EXPECT_EQ(hex(kGolden[i].stream), hex(stream)) << c.name;
      EXPECT_EQ(hex(kGolden[i].shape), hex(shape)) << c.name;
    }
    regenerated += "    {\"" + c.name + "\", " + hex(stream) + "ull, " +
                   hex(shape) + "ull},\n";
  }
  if (HasFailure()) ADD_FAILURE() << "computed table:\n" << regenerated;
}

}  // namespace
}  // namespace crsd
