// Batched SpMM vs repeated single-vector SpMV, single thread, on the
// paper's 23-matrix suite: k right-hand sides through the SpmmEngine,
// against k sweeps of the single-vector JIT codelet (the strongest SpMV
// baseline) and k sweeps of the vectorized engine. Also times the engine at
// k = 1 against the direct vectorized engine — batching must not tax k=1.
// Every speedup divides one sweep's time by another's, so the five sweeps
// are timed in alternating rounds and each keeps its minimum
// (time_interleaved).
//
// The engine's output is parity-checked per column (bitwise against the
// vectorized single-vector engine, 1e-12 relative against the scalar
// reference); the process exits nonzero on any parity failure, never on
// timing, so CI can gate on correctness while timing noise stays
// informational.
//
// Writes BENCH_spmm.json (path overridable via CRSD_BENCH_OUT).
//
// Usage: bench_spmm [--scale S] [--mrows M] [--matrix ID] [--k K] [--no-jit]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/build_api.hpp"
#include "kernels/cpu_spmm.hpp"
#include "matrix/paper_suite.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

struct SpmmRow {
  int id = 0;
  std::string name;
  index_t rows = 0;
  size64_t nnz = 0;
  double t_kx_jit = 0.0;    ///< k sweeps of the single-vector JIT codelet
  double t_kx_vec = 0.0;    ///< k sweeps of the vectorized engine
  double t_spmm_simd = 0.0;   ///< SpmmEngine::apply over all k columns
  double t_spmv_vec = 0.0;    ///< one m.spmv sweep (k = 1 reference)
  double t_spmv_engine = 0.0; ///< one SpmmEngine::apply sweep (k = 1)
  bool parity_ok = true;

  double speedup_simd() const {
    const double base = t_kx_jit > 0 ? t_kx_jit : t_kx_vec;
    return t_spmm_simd > 0 ? base / t_spmm_simd : 0.0;
  }
  /// Engine k=1 sweep relative to the direct engine (<= 1 is faster).
  double engine_spmv_ratio() const {
    return t_spmv_vec > 0 && t_spmv_engine > 0 ? t_spmv_engine / t_spmv_vec
                                               : 0.0;
  }
};

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

/// Bitwise column-by-column comparison against the scalar reference.
bool columns_equal_exact(const std::vector<double>& got,
                         const std::vector<double>& want) {
  return std::memcmp(got.data(), want.data(),
                     got.size() * sizeof(double)) == 0;
}

bool columns_close(const std::vector<double>& got,
                   const std::vector<double>& want, double rel_tol) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max({std::abs(got[i]), std::abs(want[i]), 1.0});
    if (std::abs(got[i] - want[i]) > rel_tol * scale) return false;
  }
  return true;
}

void write_json(const std::vector<SpmmRow>& rows, const SuiteOptions& opts,
                index_t k, bool with_jit, bool all_parity_ok,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"spmm\",\n"
      << "  \"precision\": \"double\",\n"
      << "  \"scale\": " << opts.scale << ",\n"
      << "  \"mrows\": " << opts.mrows << ",\n"
      << "  \"k\": " << k << ",\n"
      << "  \"vector_bytes\": " << simd::kVectorBytes << ",\n"
      << "  \"jit\": " << (with_jit ? "true" : "false") << ",\n"
      << "  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"id\": %d, \"name\": \"%s\", \"rows\": %d, \"nnz\": %llu, "
        "\"t_kx_jit\": %.3e, \"t_kx_vec\": %.3e, \"t_spmm_simd\": %.3e, "
        "\"t_spmv_vec\": %.3e, \"t_spmv_engine\": %.3e, "
        "\"speedup_simd\": %.3f, \"engine_spmv_ratio\": %.3f, "
        "\"parity_ok\": %s}%s\n",
        r.id, r.name.c_str(), r.rows, static_cast<unsigned long long>(r.nnz),
        r.t_kx_jit, r.t_kx_vec, r.t_spmm_simd, r.t_spmv_vec, r.t_spmv_engine,
        r.speedup_simd(), r.engine_spmv_ratio(),
        r.parity_ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  std::vector<double> ss, er;
  for (const auto& r : rows) {
    if (r.speedup_simd() > 0) ss.push_back(r.speedup_simd());
    if (r.engine_spmv_ratio() > 0) er.push_back(r.engine_spmv_ratio());
  }
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "  ],\n  \"summary\": {\"geomean_speedup_simd\": %.3f, "
      "\"geomean_engine_spmv_ratio\": %.3f, \"parity_ok\": %s}\n}\n",
      geomean(ss), geomean(er), all_parity_ok ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;

  const auto opts = SuiteOptions::parse(argc, argv);
  bool with_jit = codegen::JitCompiler::compiler_available();
  index_t k = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-jit") == 0) with_jit = false;
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = static_cast<index_t>(std::atoi(argv[i + 1]));
    }
  }
  if (k < 1) k = 1;

  std::printf("== Batched SpMM (k = %d RHS) vs repeated SpMV "
              "(single thread, double) ==\n", k);
  std::printf("scale %.3f, mrows %d, vector width %d bytes, jit %s\n\n",
              opts.scale, opts.mrows, simd::kVectorBytes,
              with_jit ? "on" : "off");
  std::printf("%3s %-14s %9s | %9s %9s | %7s %7s %6s\n", "id", "matrix",
              "rows", "k*jit(ms)", "simd(ms)", "simd-x", "k1-rat", "parity");

  codegen::JitCompiler compiler;
  std::vector<SpmmRow> rows;
  bool all_parity_ok = true;
  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const auto a = spec.generate(opts.scale);
    const auto m = build(a, CrsdConfig{.mrows = opts.mrows});
    const index_t n_rows = a.num_rows();
    const index_t n_cols = a.num_cols();
    const size64_t ldx = static_cast<size64_t>(n_cols);
    const size64_t ldy = static_cast<size64_t>(n_rows);

    Rng rng(2026);
    std::vector<double> x(ldx * static_cast<size64_t>(k));
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);
    std::vector<double> y(ldy * static_cast<size64_t>(k), 0.0);
    std::vector<double> y_ref(y.size(), 0.0);

    const SpmmEngine<double> engine(m);

    // Per-column scalar reference — the bitwise ground truth.
    for (index_t j = 0; j < k; ++j) {
      m.spmv_scalar(x.data() + static_cast<size64_t>(j) * ldx,
                    y_ref.data() + static_cast<size64_t>(j) * ldy);
    }

    SpmmRow r;
    r.id = spec.id;
    r.name = spec.name;
    r.rows = n_rows;
    r.nnz = a.nnz();

    // Interpreted SpMM: must match the scalar reference bitwise, column by
    // column (same per-row accumulation order).
    engine.apply(x.data(), ldx, y.data(), ldy, k);
    // spmv_scalar's edge path matches spmv's; full interior comparison uses
    // the vectorized single-vector engine, which is the documented bitwise
    // twin of the SpMM interior kernel.
    std::vector<double> y_vec(y_ref.size(), 0.0);
    for (index_t j = 0; j < k; ++j) {
      m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
             y_vec.data() + static_cast<size64_t>(j) * ldy);
    }
    if (!columns_equal_exact(y, y_vec)) {
      r.parity_ok = false;
      std::fprintf(stderr, "PARITY FAIL (simd spmm vs vec spmv): matrix %d\n",
                   r.id);
    }
    if (!columns_close(y, y_ref, 1e-12)) {
      r.parity_ok = false;
      std::fprintf(stderr, "PARITY FAIL (simd spmm vs scalar): matrix %d\n",
                   r.id);
    }

    std::optional<codegen::CrsdJitKernel<double>> kernel;
    if (with_jit) kernel = codegen::make_jit_kernel(m, compiler);
    std::vector<std::function<void()>> sweeps;
    if (kernel) {
      sweeps.emplace_back([&] {
        for (index_t j = 0; j < k; ++j) {
          kernel->spmv(m, x.data() + static_cast<size64_t>(j) * ldx,
                       y.data() + static_cast<size64_t>(j) * ldy);
        }
      });
    }
    sweeps.emplace_back([&] {
      for (index_t j = 0; j < k; ++j) {
        m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
               y.data() + static_cast<size64_t>(j) * ldy);
      }
    });
    sweeps.emplace_back([&] { engine.apply(x.data(), ldx, y.data(), ldy, k); });
    sweeps.emplace_back([&] { m.spmv(x.data(), y.data()); });
    sweeps.emplace_back([&] { engine.apply(x.data(), ldx, y.data(), ldy, 1); });
    const std::vector<double> t = time_interleaved(sweeps);
    std::size_t ti = 0;
    if (kernel) r.t_kx_jit = t[ti++];
    r.t_kx_vec = t[ti++];
    r.t_spmm_simd = t[ti++];
    r.t_spmv_vec = t[ti++];
    r.t_spmv_engine = t[ti++];

    all_parity_ok = all_parity_ok && r.parity_ok;
    rows.push_back(r);
    std::printf("%3d %-14s %9d | %9.3f %9.3f | %6.2fx %6.3f %6s\n", r.id,
                r.name.c_str(), r.rows, r.t_kx_jit * 1e3, r.t_spmm_simd * 1e3,
                r.speedup_simd(), r.engine_spmv_ratio(),
                r.parity_ok ? "ok" : "FAIL");
  }

  std::vector<double> ss, er;
  for (const auto& r : rows) {
    if (r.speedup_simd() > 0) ss.push_back(r.speedup_simd());
    if (r.engine_spmv_ratio() > 0) er.push_back(r.engine_spmv_ratio());
  }
  std::printf("\ngeomean SpMM speedup (k = %d): %.2fx; engine k=1 SpMV "
              "ratio %.3f\n",
              k, geomean(ss), geomean(er));

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_spmm.json";
  write_json(rows, opts, k, with_jit, all_parity_ok, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_parity_ok) {
    std::fprintf(stderr, "parity failures detected\n");
    return 1;
  }
  return 0;
}
