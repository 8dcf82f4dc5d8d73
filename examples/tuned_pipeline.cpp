// Production pipeline demo: take a badly-numbered matrix, (1) reorder it
// with RCM so its diagonal structure emerges, (2) auto-tune the CRSD
// configuration on the simulated device, (3) run the tuned kernel and
// generate its OpenCL source (Fig. 6), (4) serialize the built format so the
// next run skips the analysis.
//
//   ./examples/tuned_pipeline
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "crsd.hpp"

int main() {
  using namespace crsd;

  // A banded operator whose unknowns arrived in a scrambled numbering.
  const auto band = dense_band(4096, 4);
  Rng rng(99);
  Permutation shuffle{{}};
  shuffle.perm.resize(4096);
  for (index_t i = 0; i < 4096; ++i) {
    shuffle.perm[static_cast<std::size_t>(i)] = i;
  }
  for (index_t i = 4095; i > 0; --i) {
    std::swap(shuffle.perm[static_cast<std::size_t>(i)],
              shuffle.perm[static_cast<std::size_t>(rng.next_index(0, i))]);
  }
  const auto scrambled = permute_symmetric(band, shuffle);

  std::printf("== 1. RCM reordering ==\n");
  std::printf("bandwidth before: %d\n", matrix_bandwidth(scrambled));
  std::printf("%s", spy_string(scrambled, 40).c_str());
  const Permutation rcm = reverse_cuthill_mckee(scrambled);
  const auto reordered = permute_symmetric(scrambled, rcm);
  std::printf("bandwidth after RCM: %d\n", matrix_bandwidth(reordered));
  std::printf("%s", spy_string(reordered, 40).c_str());

  const auto before = build(scrambled, CrsdConfig{.mrows = 64}).stats();
  const auto naive = build(reordered, CrsdConfig{.mrows = 64}).stats();
  std::printf("CRSD scatter rows: %d before, %d after reordering\n",
              before.num_scatter_rows, naive.num_scatter_rows);

  std::printf("\n== 2. Auto-tuning the CRSD configuration ==\n");
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  const auto tuned = kernels::autotune_crsd(dev, reordered);
  std::printf("best: mrows=%d, gap=%d, min_fill=%.2f, local memory=%s "
              "(%zu candidates, %.1f us per SpMV)\n",
              tuned.best_config.mrows,
              tuned.best_config.fill_max_gap_segments,
              tuned.best_config.live_min_fill,
              tuned.best_local_memory ? "on" : "off", tuned.trials.size(),
              tuned.best_seconds * 1e6);
  const auto m = build(reordered, tuned.best_config);

  std::printf("\n== 3. Tuned kernel and its generated OpenCL source ==\n");
  kernels::CrsdGpuOptions gopts;
  gopts.use_local_memory = tuned.best_local_memory;
  std::vector<double> x(4096, 1.0), y(4096);
  const auto r = kernels::gpu_spmv_crsd(dev, m, x.data(), y.data(), gopts);
  codegen::OpenClCodeletOptions cl_opts;
  cl_opts.use_local_memory = tuned.best_local_memory;
  const std::string cl = codegen::generate_opencl_kernel_source(m, cl_opts);
  std::printf("tuned kernel: %.2f GFLOPS on the simulated C2050 "
              "(%zu lines of generated OpenCL)\n",
              r.gflops(reordered.nnz()),
              static_cast<std::size_t>(std::count(cl.begin(), cl.end(), '\n')));

  std::printf("\n== 4. Serialize the built format ==\n");
  std::stringstream blob;
  write_crsd(blob, m);
  const auto loaded = read_crsd<double>(blob);
  std::printf("serialized %zu bytes; reloaded matrix has %d patterns, "
              "dia values equal: %s\n",
              blob.str().size(), loaded.num_patterns(),
              loaded.dia_values() == m.dia_values() ? "yes" : "NO");
  return 0;
}
