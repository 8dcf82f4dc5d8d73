// CPU execution-engine comparison: scalar baseline vs the SIMD-vectorized
// interior/edge-split engine vs the JIT-compiled codelet, single thread, and
// the codelet's spmv_parallel on a pool of max(2, hardware threads - 1), on
// the paper's 23-matrix suite. The vectorized, JIT and pooled JIT results
// are checked bitwise against CrsdMatrix::spmv, and any mismatch makes the
// bench exit nonzero. This is the bench that tracks the CPU trajectory: it
// writes BENCH_cpu_vec.json (path overridable via CRSD_BENCH_OUT) so later
// changes can diff against the committed numbers.
//
// Usage: bench_cpu_vec [--scale S] [--mrows M] [--matrix ID] [--no-jit]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/build_api.hpp"
#include "matrix/paper_suite.hpp"
#include "obs/metrics.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

struct VecRow {
  int id = 0;
  std::string name;
  index_t rows = 0;
  size64_t nnz = 0;
  double t_scalar = 0.0;  ///< seconds per SpMV, scalar clamped engine
  double t_vec = 0.0;     ///< vectorized interior/edge engine
  double t_jit = 0.0;     ///< compiled codelet (0 when JIT disabled)
  double t_jit_pool = 0.0;  ///< codelet spmv_parallel on the pool

  double gflops(double t) const {
    return t > 0 ? 2.0 * double(nnz) / t * 1e-9 : 0.0;
  }
  double speedup_vec() const { return t_vec > 0 ? t_scalar / t_vec : 0.0; }
  double speedup_jit() const { return t_jit > 0 ? t_scalar / t_jit : 0.0; }
};

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

void write_json(const std::vector<VecRow>& rows, const SuiteOptions& opts,
                bool with_jit, int pool_threads, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"cpu_vec\",\n"
      << "  \"precision\": \"double\",\n"
      << "  \"scale\": " << opts.scale << ",\n"
      << "  \"mrows\": " << opts.mrows << ",\n"
      << "  \"vector_bytes\": " << simd::kVectorBytes << ",\n"
      << "  \"jit\": " << (with_jit ? "true" : "false") << ",\n"
      << "  \"pool_threads\": " << pool_threads << ",\n"
      << "  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"id\": %d, \"name\": \"%s\", \"rows\": %d, "
                  "\"nnz\": %llu, \"t_scalar\": %.3e, \"t_vec\": %.3e, "
                  "\"t_jit\": %.3e, \"t_jit_pool\": %.3e, "
                  "\"speedup_vec\": %.3f, \"speedup_jit\": %.3f}%s\n",
                  r.id, r.name.c_str(), r.rows,
                  static_cast<unsigned long long>(r.nnz), r.t_scalar, r.t_vec,
                  r.t_jit, r.t_jit_pool, r.speedup_vec(), r.speedup_jit(),
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  std::vector<double> sv, sj;
  for (const auto& r : rows) {
    if (r.speedup_vec() > 0) sv.push_back(r.speedup_vec());
    if (r.speedup_jit() > 0) sj.push_back(r.speedup_jit());
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"summary\": {\"geomean_speedup_vec\": %.3f, "
                "\"geomean_speedup_jit\": %.3f, \"min_speedup_vec\": %.3f},\n",
                geomean(sv), geomean(sj),
                sv.empty() ? 0.0 : *std::min_element(sv.begin(), sv.end()));
  out << buf;
  // Provenance: the run's metrics (builder/JIT/pool activity) ride along in
  // the dump so regressions can be traced to behavioral changes.
  out << "  \"obs\":\n";
  obs::Registry::global().write_json(out, 2);
  out << "\n}\n";
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;

  const auto opts = SuiteOptions::parse(argc, argv);
  bool with_jit = codegen::JitCompiler::compiler_available();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-jit") == 0) with_jit = false;
  }

  // One CPU is left to the rest of the machine, as in perfbench.
  const int pool_threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  ThreadPool pool(pool_threads);

  std::printf("== CPU execution engines: scalar vs vectorized vs JIT "
              "(single thread, double), JIT on a %d-thread pool ==\n",
              pool_threads);
  std::printf("scale %.3f, mrows %d, vector width %d bytes, jit %s\n\n",
              opts.scale, opts.mrows, simd::kVectorBytes,
              with_jit ? "on" : "off");
  std::printf("%3s %-14s %9s %11s | %8s %8s %8s %8s | %7s %7s\n", "id",
              "matrix", "rows", "nnz", "scal(ms)", "vec(ms)", "jit(ms)",
              "pool(ms)", "vec-x", "jit-x");

  codegen::JitCompiler compiler;
  std::vector<VecRow> rows;
  int mismatches = 0;
  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const auto a = spec.generate(opts.scale);
    const auto m = build(a, CrsdConfig{.mrows = opts.mrows});

    Rng rng(2026);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);
    std::vector<double> want(static_cast<std::size_t>(a.num_rows()));
    m.spmv(x.data(), want.data());
    std::vector<double> y(want.size());
    // Times one leg, whose last repetition must leave y bitwise equal to
    // CrsdMatrix::spmv's result; y starts as NaN so every row must be
    // written.
    const auto timed_leg = [&](const char* leg, const auto& fn) {
      std::fill(y.begin(), y.end(), std::numeric_limits<double>::quiet_NaN());
      const double t = time_per_rep(fn);
      if (std::memcmp(y.data(), want.data(), y.size() * sizeof(double)) !=
          0) {
        ++mismatches;
        std::fprintf(stderr,
                     "bench_cpu_vec: %s differs bitwise from "
                     "CrsdMatrix::spmv on %s\n",
                     leg, spec.name.c_str());
      }
      return t;
    };

    VecRow r;
    r.id = spec.id;
    r.name = spec.name;
    r.rows = a.num_rows();
    r.nnz = a.nnz();
    r.t_scalar = time_per_rep([&] { m.spmv_scalar(x.data(), y.data()); });
    r.t_vec = timed_leg("vectorized", [&] { m.spmv(x.data(), y.data()); });
    if (with_jit) {
      const codegen::CrsdJitKernel<double> kernel(m, compiler);
      r.t_jit =
          timed_leg("jit", [&] { kernel.spmv(m, x.data(), y.data()); });
      r.t_jit_pool = timed_leg("pooled jit", [&] {
        kernel.spmv_parallel(pool, m, x.data(), y.data());
      });
    }
    rows.push_back(r);
    std::printf(
        "%3d %-14s %9d %11llu | %8.3f %8.3f %8.3f %8.3f | %6.2fx %6.2fx\n",
        r.id, r.name.c_str(), r.rows, static_cast<unsigned long long>(r.nnz),
        r.t_scalar * 1e3, r.t_vec * 1e3, r.t_jit * 1e3, r.t_jit_pool * 1e3,
        r.speedup_vec(), r.speedup_jit());
  }

  std::vector<double> sv, sj;
  for (const auto& r : rows) {
    if (r.speedup_vec() > 0) sv.push_back(r.speedup_vec());
    if (r.speedup_jit() > 0) sj.push_back(r.speedup_jit());
  }
  std::printf("\ngeomean speedup over scalar: vectorized %.2fx",
              geomean(sv));
  if (!sj.empty()) std::printf(", jit %.2fx", geomean(sj));
  std::printf("\n");

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_cpu_vec.json";
  write_json(rows, opts, with_jit, pool_threads, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  if (mismatches > 0) {
    std::fprintf(stderr, "bench_cpu_vec: %d parity failure(s)\n", mismatches);
    return 1;
  }
  return 0;
}
