// Runtime-compiled CRSD kernel running on the simulated device — the
// paper's complete pipeline: store the matrix in CRSD, generate the kernel
// for its diagonal patterns, compile at run time, execute on the (OpenCL)
// device. The compiled codelet performs the arithmetic and reports its
// memory events through the CrsdGpuHooks ABI, so its counters are directly
// comparable with (and tested equal to) the interpreted kernel's.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <utility>

#include "codegen/codelet_lint.hpp"
#include "codegen/crsd_codegen.hpp"
#include "codegen/gpu_codelet_abi.hpp"
#include "codegen/jit.hpp"
#include "common/log.hpp"
#include "core/crsd_matrix.hpp"
#include "gpusim/executor.hpp"

namespace crsd::codegen {

template <Real T>
class CrsdGpuJitKernel {
 public:
  using GroupFn = void (*)(const T*, const T*, T*, std::int32_t,
                           const CrsdGpuHooks*);
  using ScatterFn = void (*)(const T*, const std::int32_t*,
                             const std::int32_t*, const T*, T*, std::int32_t,
                             const CrsdGpuHooks*);

  CrsdGpuJitKernel(const CrsdMatrix<T>& m, JitCompiler& compiler,
                   GpuCodeletOptions opts = {})
      : CrsdGpuJitKernel(generate_gpu_codelet_source(m, opts), compiler,
                         opts) {}

  /// Compiles caller-supplied codelet source (the checked factory path; also
  /// lets tests inject faults). The source must export the two entry points
  /// named by `opts.symbol_prefix`.
  CrsdGpuJitKernel(std::string source, JitCompiler& compiler,
                   GpuCodeletOptions opts = {})
      : opts_(std::move(opts)), source_(std::move(source)) {
    lib_ = compiler.compile_and_load(source_);
    group_ = lib_.template symbol_as<GroupFn>(opts_.symbol_prefix + "_group");
    scatter_ = lib_.template symbol_as<ScatterFn>(opts_.symbol_prefix +
                                                  "_scatter_group");
  }

  const std::string& source() const { return source_; }

  /// One SpMV on the simulated device through the compiled codelet.
  /// `m` must be the matrix (or an identically structured one) the kernel
  /// was generated from. `checker` (optional) attaches the simulator's
  /// checking mode to both launches.
  gpusim::LaunchResult run(gpusim::Device& dev, const CrsdMatrix<T>& m,
                           const T* x, T* y, ThreadPool* pool = nullptr,
                           gpusim::AccessChecker* checker = nullptr) const {
    const index_t mrows = m.mrows();
    CRSD_CHECK_MSG(mrows % dev.spec().wavefront_size == 0,
                   "mrows must be a multiple of the wavefront size");
    CRSD_CHECK_MSG(m.value_precision() == ValuePrecision::kNative &&
                       m.scatter_index_mode() == ScatterIndexMode::kIndex32,
                   "the GPU codelet supports native storage only; use the "
                   "interpreted gpu_spmv_crsd kernel for compact storage");
    gpusim::DeviceBuffers mem(dev);
    std::array<gpusim::Buffer, 6> bufs;
    bufs[kBufDiaVal] = mem.alloc(m.dia_values().size() * sizeof(T));
    bufs[kBufX] = mem.alloc(static_cast<size64_t>(m.num_cols()) * sizeof(T));
    bufs[kBufY] = mem.alloc(static_cast<size64_t>(m.num_rows()) * sizeof(T));
    bufs[kBufScatterRow] =
        mem.alloc(m.scatter_rows().size() * sizeof(index_t));
    bufs[kBufScatterCol] = mem.alloc(m.scatter_col().size() * sizeof(index_t));
    bufs[kBufScatterVal] = mem.alloc(m.scatter_val().size() * sizeof(T));

    gpusim::LaunchConfig diag_cfg;
    diag_cfg.num_groups = m.num_segments_total();
    diag_cfg.group_size = mrows;
    diag_cfg.double_precision = std::is_same_v<T, double>;
    diag_cfg.kernel_name = opts_.symbol_prefix + "_group";
    diag_cfg.checker = checker;

    auto diag_body = [&](gpusim::WorkGroupCtx& ctx) {
      HookCtx hctx{&ctx, bufs.data()};
      const CrsdGpuHooks hooks = make_hooks(&hctx);
      group_(m.dia_values().data(), x, y, ctx.group_id(), &hooks);
    };
    gpusim::LaunchResult result =
        gpusim::launch(dev, diag_cfg, diag_body, pool);

    const index_t nsr = m.num_scatter_rows();
    if (nsr > 0) {
      gpusim::LaunchConfig scatter_cfg;
      scatter_cfg.group_size = mrows;
      scatter_cfg.num_groups = (nsr + mrows - 1) / mrows;
      scatter_cfg.double_precision = diag_cfg.double_precision;
      scatter_cfg.launches = 0;  // fused with the diagonal phase
      scatter_cfg.kernel_name = opts_.symbol_prefix + "_scatter_group";
      scatter_cfg.checker = checker;
      auto scatter_body = [&](gpusim::WorkGroupCtx& ctx) {
        HookCtx hctx{&ctx, bufs.data()};
        const CrsdGpuHooks hooks = make_hooks(&hctx);
        scatter_(m.scatter_val().data(), m.scatter_col().data(),
                 m.scatter_rows().data(), x, y, ctx.group_id(), &hooks);
      };
      const gpusim::LaunchResult tail =
          gpusim::launch(dev, scatter_cfg, scatter_body, pool);
      result.counters += tail.counters;
      result.seconds =
          gpusim::estimate_seconds(dev.spec(), result.counters, diag_cfg);
    }
    return result;
  }

 private:
  struct HookCtx {
    gpusim::WorkGroupCtx* wg;
    const gpusim::Buffer* bufs;
  };

  static CrsdGpuHooks make_hooks(HookCtx* hctx) {
    CrsdGpuHooks hooks;
    hooks.ctx = hctx;
    hooks.read_block = [](void* c, int buf, unsigned long long first,
                          int lanes, int es, int cached) {
      auto* h = static_cast<HookCtx*>(c);
      h->wg->global_read_block(h->bufs[buf], first, lanes, es, cached != 0);
    };
    hooks.gather = [](void* c, int buf, const unsigned long long* idx,
                      int lanes, int es, int cached) {
      auto* h = static_cast<HookCtx*>(c);
      // size64_t is uint64_t (unsigned long on LP64): same representation.
      h->wg->global_gather(h->bufs[buf],
                           reinterpret_cast<const size64_t*>(idx), lanes, es,
                           cached != 0);
    };
    hooks.write_block = [](void* c, int buf, unsigned long long first,
                           int lanes, int es) {
      auto* h = static_cast<HookCtx*>(c);
      h->wg->global_write_block(h->bufs[buf], first, lanes, es);
    };
    hooks.scatter_write = [](void* c, int buf, const unsigned long long* idx,
                             int lanes, int es) {
      auto* h = static_cast<HookCtx*>(c);
      h->wg->global_scatter_write(h->bufs[buf],
                                  reinterpret_cast<const size64_t*>(idx),
                                  lanes, es);
    };
    hooks.flops = [](void* c, unsigned long long n) {
      static_cast<HookCtx*>(c)->wg->flops(n);
    };
    hooks.alu = [](void* c, unsigned long long n) {
      static_cast<HookCtx*>(c)->wg->alu(n);
    };
    hooks.local_rw = [](void* c, unsigned long long bytes) {
      static_cast<HookCtx*>(c)->wg->local_read(bytes);
    };
    hooks.barrier = [](void* c) { static_cast<HookCtx*>(c)->wg->barrier(); };
    return hooks;
  }

  GpuCodeletOptions opts_;
  std::string source_;
  JitLibrary lib_;
  GroupFn group_ = nullptr;
  ScatterFn scatter_ = nullptr;
};

/// GPU JIT construction, lint-gated by default: generates the codelet
/// source (or takes `source_override` — the fault-injection path for
/// tests) and, with Checked::kYes, lints it against `m`, returning nullopt
/// (after logging the findings) instead of compiling source that disagrees
/// with the container's structure. Callers fall back to the interpreted
/// gpu_spmv_crsd kernel. Checked::kNo skips the lint and always compiles.
template <Real T>
std::optional<CrsdGpuJitKernel<T>> make_gpu_jit_kernel(
    const CrsdMatrix<T>& m, JitCompiler& compiler, GpuCodeletOptions opts = {},
    Checked checked = Checked::kYes,
    const std::string* source_override = nullptr) {
  if (m.value_precision() != ValuePrecision::kNative ||
      m.scatter_index_mode() != ScatterIndexMode::kIndex32) {
    CRSD_LOG_WARN("GPU JIT supports native storage only; falling back to the "
                  "interpreted kernel (which models compact storage traffic "
                  "directly)");
    return std::nullopt;
  }
  std::string source = source_override != nullptr
                           ? *source_override
                           : generate_gpu_codelet_source(m, opts);
  if (checked == Checked::kYes) {
    const std::vector<check::Diagnostic> findings =
        lint_gpu_codelet_source(m, source, opts.symbol_prefix);
    if (!findings.empty()) {
      CRSD_LOG_WARN("GPU codelet lint rejected generated source; falling "
                    "back to the interpreted kernel:\n"
                    << check::format_diagnostics(findings));
      return std::nullopt;
    }
  }
  return std::optional<CrsdGpuJitKernel<T>>(
      CrsdGpuJitKernel<T>(std::move(source), compiler, std::move(opts)));
}

}  // namespace crsd::codegen
