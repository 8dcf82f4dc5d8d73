// Ablation A4: runtime code generation. Two views:
//  1. Device model: gpu_spmv_crsd's codelet cost model (`jit_codelet`:
//     indices baked in as immediates -> fewer metadata loads and less index
//     arithmetic) against its interpreted-kernel cost model on the simulated
//     GPU. Both compute the same y; only the modeled cost differs.
//  2. Host reality: wall-clock CPU SpMV with the JIT-compiled codelet vs
//     the interpreted CRSD loop, plus the cold compile of each codelet — the
//     one-off cost the paper accepts for OpenCL runtime compilation. The
//     compiler writes into a fresh temporary directory, removed at exit, so
//     no object from an earlier run's disk cache is reused.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/build_api.hpp"
#include "matrix/paper_suite.hpp"
#include "suite_runner.hpp"

namespace {

/// A fresh private temporary directory, removed with its contents on scope
/// exit.
class TempDir {
 public:
  TempDir()
      : path_((std::filesystem::temp_directory_path() / "crsd-a4-XXXXXX")
                  .string()) {
    CRSD_CHECK_MSG(::mkdtemp(path_.data()) != nullptr,
                   "cannot create a directory under " << path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  const SuiteOptions opts = SuiteOptions::parse(argc, argv);

  std::printf("== Ablation: generated codelet vs interpreted kernel ==\n\n");
  std::printf("-- simulated GPU (double, GFLOPS) --\n");
  std::printf("%-14s %10s %12s %8s\n", "matrix", "codelet", "interpreted",
              "ratio");
  for (int id : {3, 9, 15, 18}) {
    SuiteOptions jit = opts;
    jit.only_matrix = id;
    jit.jit_codelet_model = true;
    SuiteOptions interp = jit;
    interp.jit_codelet_model = false;
    const auto rj = run_gpu_suite<double>(jit);
    const auto ri = run_gpu_suite<double>(interp);
    const double gj = rj[0].cell(Format::kCrsd).gflops;
    const double gi = ri[0].cell(Format::kCrsd).gflops;
    std::printf("%-14s %10.2f %12.2f %8.3f\n", rj[0].name.c_str(), gj, gi,
                gj / gi);
  }

  if (!codegen::JitCompiler::compiler_available()) {
    std::printf("\nno host compiler found; skipping wall-clock half\n");
    return 0;
  }

  const TempDir cache_dir;
  codegen::JitCompiler::Options jit_opts;
  jit_opts.cache_dir = cache_dir.path();
  codegen::JitCompiler compiler(jit_opts);

  std::printf("\n-- host CPU wall-clock (double) --\n");
  std::printf("%-14s %12s %12s %8s %16s\n", "matrix", "codelet us",
              "interp us", "ratio", "cold compile s");
  for (int id : {3, 9, 15, 18}) {
    const auto& spec = paper_matrix(id);
    const auto a = spec.generate(opts.scale);
    const auto m = build(a, CrsdConfig{.mrows = opts.mrows});
    std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows()));

    Timer build_timer;
    const codegen::CrsdJitKernel<double> kernel(m, compiler);
    const double compile_s = build_timer.seconds();

    const double t_jit =
        time_per_rep([&] { kernel.spmv(m, x.data(), y.data()); }) * 1e6;
    const double t_interp =
        time_per_rep([&] { m.spmv(x.data(), y.data()); }) * 1e6;
    std::printf("%-14s %12.1f %12.1f %8.2f %16.2f\n", spec.name.c_str(),
                t_jit, t_interp, t_interp / t_jit, compile_s);
  }
  std::printf("cold compiles: %d\n", compiler.compilations());
  return 0;
}
