// Conversion-cost benchmark: how expensive is building CRSD compared with
// CSR assembly — and after how many SpMV sweeps does CRSD's faster sweep
// amortize its costlier conversion (the inspector–executor break-even every
// OSKI-style system reports)?
//
//   crossover = (t_build_crsd - t_build_csr) / (t_spmv_csr - t_spmv_crsd)
//
// A negative crossover means CRSD's CPU sweep does not beat CSR on that
// matrix at this scale, so conversion never pays for itself.
//
// Writes BENCH_convert.json (path overridable via CRSD_BENCH_OUT) with
// per-matrix conversion and sweep times, so later PRs can diff the
// trajectory.
//
// Usage: bench_convert [--scale S] [--mrows M] [--matrix ID]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/build_api.hpp"
#include "formats/csr.hpp"
#include "matrix/paper_suite.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

struct ConvertRow {
  int id = 0;
  std::string name;
  index_t rows = 0;
  size64_t nnz = 0;
  double t_csr_conv = 0.0;   ///< CSR from_coo seconds
  double t_build = 0.0;      ///< CRSD build seconds
  double t_spmv_csr = 0.0;   ///< CSR CPU sweep seconds
  double t_spmv_crsd = 0.0;  ///< CRSD vectorized CPU sweep

  /// SpMV sweeps needed before CRSD conversion pays off vs CSR; negative
  /// when the CRSD sweep is not faster.
  double crossover() const {
    const double gain = t_spmv_csr - t_spmv_crsd;
    if (gain <= 0.0) return -1.0;
    return (t_build - t_csr_conv) / gain;
  }
};

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

void write_json(const std::vector<ConvertRow>& rows, const SuiteOptions& opts,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"convert\",\n"
      << "  \"precision\": \"double\",\n"
      << "  \"scale\": " << opts.scale << ",\n"
      << "  \"mrows\": " << opts.mrows << ",\n"
      << "  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"id\": %d, \"name\": \"%s\", \"rows\": %d, "
                  "\"nnz\": %llu, \"t_csr_conv\": %.3e, "
                  "\"t_build\": %.3e, \"t_spmv_csr\": %.3e, "
                  "\"t_spmv_crsd\": %.3e, \"crossover_spmvs\": %.1f}%s\n",
                  r.id, r.name.c_str(), r.rows,
                  static_cast<unsigned long long>(r.nnz), r.t_csr_conv,
                  r.t_build, r.t_spmv_csr, r.t_spmv_crsd, r.crossover(),
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  std::vector<double> conv_ratio;
  int amortize_1k = 0;
  for (const auto& r : rows) {
    if (r.t_csr_conv > 0) conv_ratio.push_back(r.t_build / r.t_csr_conv);
    if (r.crossover() >= 0 && r.crossover() <= 1000.0) ++amortize_1k;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"summary\": {\"geomean_build_vs_csr_conv\": %.3f, "
                "\"amortize_within_1000_spmvs\": %d}\n}\n",
                geomean(conv_ratio), amortize_1k);
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  const auto opts = SuiteOptions::parse(argc, argv);

  std::printf("== CRSD conversion cost and amortization vs CSR "
              "(double) ==\n");
  std::printf("scale %.3f, mrows %d\n\n", opts.scale, opts.mrows);
  std::printf("%3s %-14s %11s | %8s %9s %7s | %9s\n", "id", "matrix", "nnz",
              "csr(ms)", "crsd(ms)", "ratio", "crossover");

  std::vector<ConvertRow> rows;
  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const auto a = spec.generate(opts.scale);

    ConvertRow r;
    r.id = spec.id;
    r.name = spec.name;
    r.rows = a.num_rows();
    r.nnz = a.nnz();

    r.t_csr_conv = time_per_rep([&] {
      const auto csr = CsrMatrix<double>::from_coo(a);
      (void)csr;
    });

    CrsdConfig cfg;
    cfg.mrows = opts.mrows;
    const auto m = build(a, cfg);
    r.t_build = time_per_rep([&] { (void)build(a, cfg); });

    const auto csr = CsrMatrix<double>::from_coo(a);
    Rng rng(2026);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
    r.t_spmv_csr = time_per_rep([&] { csr.spmv(x.data(), y.data()); });
    r.t_spmv_crsd = time_per_rep([&] { m.spmv(x.data(), y.data()); });

    std::printf("%3d %-14s %11llu | %8.3f %9.3f %6.2fx | %9.1f\n", r.id,
                r.name.c_str(), static_cast<unsigned long long>(r.nnz),
                r.t_csr_conv * 1e3, r.t_build * 1e3,
                r.t_build / r.t_csr_conv, r.crossover());
    rows.push_back(std::move(r));
  }

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_convert.json";
  write_json(rows, opts, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
