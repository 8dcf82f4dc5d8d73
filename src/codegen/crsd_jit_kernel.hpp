// End-to-end JIT CRSD SpMV: generate the codelet for a matrix's structure,
// compile it at runtime, and run it — the paper's §III pipeline ("the
// OpenCL kernels are compiled at runtime ... the generated codelets already
// contain the index information of nonzeros").
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "codegen/codelet_lint.hpp"
#include "codegen/crsd_codegen.hpp"
#include "codegen/jit.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/crsd_matrix.hpp"

namespace crsd::codegen {

/// A compiled SpMV codelet bound to one CRSD structure. The diagonal phase
/// takes a segment range and the scatter phase a scatter-row range, so the
/// thread pool can give each chunk a run of segments, like work-groups on
/// the GPU, together with the scatter rows inside them.
template <Real T>
class CrsdJitKernel {
 public:
  using DiagFn = void (*)(const T*, const T*, T*, std::int32_t, std::int32_t);
  using ScatterFn = void (*)(const T*, const std::int32_t*,
                             const std::int32_t*, const T*, T*, std::int32_t,
                             std::int32_t);
  /// Compact-storage ABI: value/column streams travel untyped (the codelet
  /// bakes the real element types — float values, u16 columns — into its
  /// own source).
  using RawDiagFn = void (*)(const void*, const T*, T*, std::int32_t,
                             std::int32_t);
  using RawScatterFn = void (*)(const void*, const void*, const std::int32_t*,
                                const T*, T*, std::int32_t, std::int32_t);

  /// Generates and compiles the codelet for `m`'s structure.
  /// Throws crsd::Error if no compiler is available or compilation fails.
  explicit CrsdJitKernel(const CrsdMatrix<T>& m, JitCompiler& compiler)
      : CrsdJitKernel(m, compiler, generate_cpu_codelet_source(m)) {}

  /// Compiles caller-supplied codelet source for `m`'s structure (the
  /// checked factory path, which lints the source first; also lets tests
  /// inject faults). The source must export crsd_codelet_{diag,scatter}.
  CrsdJitKernel(const CrsdMatrix<T>& m, JitCompiler& compiler,
                std::string source)
      : source_(std::move(source)) {
    lib_ = compiler.compile_and_load(source_);
    raw_abi_ = m.value_precision() != ValuePrecision::kNative ||
               m.scatter_index_mode() != ScatterIndexMode::kIndex32;
    if (raw_abi_) {
      raw_diag_ = lib_.template symbol_as<RawDiagFn>("crsd_codelet_diag");
      raw_scatter_ =
          lib_.template symbol_as<RawScatterFn>("crsd_codelet_scatter");
    } else {
      diag_ = lib_.template symbol_as<DiagFn>("crsd_codelet_diag");
      scatter_ = lib_.template symbol_as<ScatterFn>("crsd_codelet_scatter");
    }
    num_segments_ = m.num_segments_total();
    num_scatter_rows_ = m.num_scatter_rows();
  }

  const std::string& source() const { return source_; }

  /// y = A*x using the compiled codelet. `m` must be the matrix the kernel
  /// was built from (or one with identical structure and storage mode).
  void spmv(const CrsdMatrix<T>& m, const T* x, T* y) const {
    run_diag(m, x, y, 0, num_segments_);
    run_scatter(m, x, y, 0, num_scatter_rows_);
  }

  /// Parallel variant: one pool dispatch of row-owning chunks
  /// (CrsdMatrix::for_each_row_chunk), each running the diag function on
  /// its segments and then the scatter function on the scatter rows among
  /// those segments' rows.
  void spmv_parallel(ThreadPool& pool, const CrsdMatrix<T>& m, const T* x,
                     T* y) const {
    m.for_each_row_chunk(
        pool, [&](index_t sb, index_t se) { run_diag(m, x, y, sb, se); },
        [&](index_t b, index_t e) { run_scatter(m, x, y, b, e); });
  }

 private:
  static const void* dia_stream(const CrsdMatrix<T>& m) {
    const auto& s = m.storage();
    switch (s.value_precision) {
      case ValuePrecision::kNative: return s.dia_val.data();
      case ValuePrecision::kFloat32: return s.dia_val_f32.data();
    }
    return nullptr;
  }
  static const void* scatter_val_stream(const CrsdMatrix<T>& m) {
    const auto& s = m.storage();
    switch (s.value_precision) {
      case ValuePrecision::kNative: return s.scatter_val.data();
      case ValuePrecision::kFloat32: return s.scatter_val_f32.data();
    }
    return nullptr;
  }
  static const void* scatter_col_stream(const CrsdMatrix<T>& m) {
    const auto& s = m.storage();
    switch (s.scatter_index_mode) {
      case ScatterIndexMode::kIndex32: return s.scatter_col.data();
      case ScatterIndexMode::kIndex16: return s.scatter_col16.data();
    }
    return nullptr;
  }

  void run_diag(const CrsdMatrix<T>& m, const T* x, T* y, index_t b,
                index_t e) const {
    if (raw_abi_) {
      raw_diag_(dia_stream(m), x, y, b, e);
    } else {
      diag_(m.dia_values().data(), x, y, b, e);
    }
  }
  void run_scatter(const CrsdMatrix<T>& m, const T* x, T* y, index_t b,
                   index_t e) const {
    if (raw_abi_) {
      raw_scatter_(scatter_val_stream(m), scatter_col_stream(m),
                   m.scatter_rows().data(), x, y, b, e);
    } else {
      scatter_(m.scatter_val().data(), m.scatter_col().data(),
               m.scatter_rows().data(), x, y, b, e);
    }
  }

  std::string source_;
  JitLibrary lib_;
  bool raw_abi_ = false;
  DiagFn diag_ = nullptr;
  ScatterFn scatter_ = nullptr;
  RawDiagFn raw_diag_ = nullptr;
  RawScatterFn raw_scatter_ = nullptr;
  index_t num_segments_ = 0;
  index_t num_scatter_rows_ = 0;
};

/// JIT construction, lint-gated by default: generates the codelet source
/// (or takes `source_override` — the fault-injection path for tests) and,
/// with Checked::kYes, runs the static codelet lint against `m`, handing
/// only clean source to the compiler. On lint findings it logs them and
/// returns nullopt so the caller falls back to the interpreted kernel
/// instead of running a miscompiled codelet. Checked::kNo skips the lint
/// and always compiles.
template <Real T>
std::optional<CrsdJitKernel<T>> make_jit_kernel(
    const CrsdMatrix<T>& m, JitCompiler& compiler,
    Checked checked = Checked::kYes,
    const std::string* source_override = nullptr) {
  std::string source = source_override != nullptr
                           ? *source_override
                           : generate_cpu_codelet_source(m);
  if (checked == Checked::kYes) {
    const std::vector<check::Diagnostic> findings =
        lint_cpu_codelet_source(m, source);
    if (!findings.empty()) {
      CRSD_LOG_WARN("codelet lint rejected generated source; falling back to "
                    "the interpreted kernel:\n"
                    << check::format_diagnostics(findings));
      return std::nullopt;
    }
  }
  return std::optional<CrsdJitKernel<T>>(
      CrsdJitKernel<T>(m, compiler, std::move(source)));
}

}  // namespace crsd::codegen
