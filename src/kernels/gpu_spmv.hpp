// Umbrella header: all simulated-GPU SpMV kernels (Bell & Garland baselines
// plus CRSD), unified behind one options-struct dispatch. The per-container
// spmv() overloads route CSR/DIA/ELL/HYB/CRSD uniformly; the COO overload
// builds `format` first. The partitioned overload lives in
// kernels/partitioned_spmv.hpp with the partitioned build.
#pragma once

#include <optional>

#include "core/build_api.hpp"
#include "core/builder.hpp"
#include "formats/format.hpp"
#include "kernels/crsd_autotune.hpp"
#include "kernels/crsd_gpu.hpp"
#include "kernels/csr_gpu.hpp"
#include "kernels/dia_gpu.hpp"
#include "kernels/ell_gpu.hpp"
#include "kernels/hyb_gpu.hpp"
#include "matrix/coo.hpp"

namespace crsd::kernels {

/// Dispatcher knobs. A default-constructed value reproduces the historic
/// behaviour (work-group size 128, stock CrsdGpuOptions) except that the
/// CRSD path defaults its build configuration from the persistent autotuner
/// cache when a tuning entry exists for the matrix structure.
struct SpmvOptions {
  /// Work-group size for the CSR/DIA/ELL/HYB/COO kernels. The CRSD kernel
  /// derives its group geometry from the container's mrows instead.
  index_t work_group_size = 128;

  /// CRSD execution options (local-memory staging, JIT codelet, checker).
  CrsdGpuOptions crsd;

  /// CRSD build configuration. When set it is used verbatim — explicit
  /// configuration always wins and the tuning cache is never consulted.
  std::optional<CrsdConfig> crsd_config;

  /// When crsd_config is unset, consult the persistent autotuner cache
  /// (kernels::load_cached_tuning) and adopt the cached winner — including
  /// its local-memory decision — before falling back to CrsdConfig{}.
  bool tune_from_cache = true;
};

/// y = A*x for a built CSR container (Bell–Garland vector kernel, the
/// stronger variant on the suite's row widths).
template <Real T>
gpusim::LaunchResult spmv(gpusim::Device& dev, const CsrMatrix<T>& m,
                          const T* x, T* y, const SpmvOptions& opts = {},
                          ThreadPool* pool = nullptr) {
  return gpu_spmv_csr_vector(dev, m, x, y, opts.work_group_size, pool);
}

/// y = A*x for a built DIA container.
template <Real T>
gpusim::LaunchResult spmv(gpusim::Device& dev, const DiaMatrix<T>& m,
                          const T* x, T* y, const SpmvOptions& opts = {},
                          ThreadPool* pool = nullptr) {
  return gpu_spmv_dia(dev, m, x, y, opts.work_group_size, pool);
}

/// y = A*x for a built ELL container.
template <Real T>
gpusim::LaunchResult spmv(gpusim::Device& dev, const EllMatrix<T>& m,
                          const T* x, T* y, const SpmvOptions& opts = {},
                          ThreadPool* pool = nullptr) {
  return gpu_spmv_ell(dev, m, x, y, opts.work_group_size, pool);
}

/// y = A*x for a built HYB container.
template <Real T>
gpusim::LaunchResult spmv(gpusim::Device& dev, const HybMatrix<T>& m,
                          const T* x, T* y, const SpmvOptions& opts = {},
                          ThreadPool* pool = nullptr) {
  return gpu_spmv_hyb(dev, m, x, y, opts.work_group_size, pool);
}

/// y = A*x for a built CRSD container (opts.crsd selects local-memory
/// staging, JIT codelet, checker).
template <Real T>
gpusim::LaunchResult spmv(gpusim::Device& dev, const CrsdMatrix<T>& m,
                          const T* x, T* y, const SpmvOptions& opts = {},
                          ThreadPool* pool = nullptr) {
  return gpu_spmv_crsd(dev, m, x, y, opts.crsd, pool);
}

/// Builds `format` from `a` and runs one simulated SpMV, writing y.
/// Throws crsd::Error if the format does not fit in device memory (DIA on
/// af_*_k101 in double precision).
template <Real T>
gpusim::LaunchResult spmv(gpusim::Device& dev, Format format, const Coo<T>& a,
                          const T* x, T* y, const SpmvOptions& opts = {},
                          ThreadPool* pool = nullptr) {
  switch (format) {
    case Format::kCsr:
      return spmv(dev, CsrMatrix<T>::from_coo(a), x, y, opts, pool);
    case Format::kDia: {
      const size64_t limit =
          (dev.spec().global_mem_bytes - dev.allocated_bytes()) / sizeof(T);
      return spmv(dev, DiaMatrix<T>::from_coo(a, limit), x, y, opts, pool);
    }
    case Format::kEll:
      return spmv(dev, EllMatrix<T>::from_coo(a), x, y, opts, pool);
    case Format::kHyb:
      return spmv(dev, HybMatrix<T>::from_coo(a), x, y, opts, pool);
    case Format::kCrsd: {
      CrsdConfig cfg;
      SpmvOptions crsd_opts = opts;
      if (opts.crsd_config.has_value()) {
        cfg = *opts.crsd_config;
      } else if (opts.tune_from_cache) {
        if (std::optional<CachedTuning> tuned =
                load_cached_tuning(dev.spec(), a)) {
          cfg = tuned->config;
          crsd_opts.crsd.use_local_memory = tuned->local_memory;
        }
      }
      return spmv(dev, build(a, cfg), x, y, crsd_opts, pool);
    }
    case Format::kCoo: {
      // Flat accumulate kernel over the raw triplets.
      std::fill(y, y + a.num_rows(), T(0));
      return gpu_spmv_coo_accumulate(dev, a.row_indices(), a.col_indices(),
                                     a.values(), a.num_rows(), a.num_cols(),
                                     x, y, opts.work_group_size, pool);
    }
  }
  throw Error("unhandled format in spmv");
}

}  // namespace crsd::kernels
