// CRSD codelet source generation (§III-B). After a matrix is stored in CRSD
// form, its diagonal patterns are fully known, so the SpMV kernel for it can
// be generated with every index baked into the instruction stream: pattern
// ranges become compile-time constants, the per-diagonal loop is unrolled
// (one fused multiply-add line per diagonal), and no index arrays are read
// at SpMV time — only the value stream and the vectors.
//
// Two generators share the structure walk:
//  * generate_cpu_codelet_source: compilable C++ with a C ABI, used by the
//    JIT driver (the host-side analogue of OpenCL runtime compilation).
//  * generate_opencl_kernel_source: OpenCL C text in the style of the
//    paper's Fig. 6 (switch over work-group ranges, local-memory staging for
//    AD groups, barriers) — the artifact the paper's code generator emits.
#pragma once

#include <string>

#include "core/crsd_matrix.hpp"

namespace crsd::codegen {

/// Options for the CPU codelet generator.
struct CpuCodeletOptions {
  /// Symbol prefix; the generated functions are
  ///   <prefix>_diag(const T* dia_val, const T* x, T* y,
  ///                 int32_t seg_begin, int32_t seg_end)
  ///   <prefix>_scatter(const T* scatter_val, const int32_t* scatter_col,
  ///                    const int32_t* scatter_rowno, const T* x, T* y,
  ///                    int32_t row_begin, int32_t row_end)
  /// with T = double or float depending on the matrix's precision. Both
  /// phases take a range so callers can partition them across threads.
  /// The diagonal phase carries the same interior/edge split as the
  /// interpreted engine: clamp-free restrict-qualified lane-innermost
  /// loops with constant trip counts for interior segments, the clamped
  /// scalar path for edge segments.
  std::string symbol_prefix = "crsd_codelet";
};

/// Emits a self-contained C++ translation unit implementing SpMV for the
/// structure of `m`. The value/scatter arrays are passed by pointer, so one
/// codelet serves any matrix with identical structure.
template <Real T>
std::string generate_cpu_codelet_source(const CrsdMatrix<T>& m,
                                        const CpuCodeletOptions& opts = {});

/// Options for the OpenCL-text generator (Fig. 6 reproduction).
struct OpenClCodeletOptions {
  bool use_local_memory = true;  ///< stage AD-group x windows via __local
  std::string kernel_name = "crsd_spmv";
};

/// Emits OpenCL C source for the structure of `m`, in the paper's style:
/// one work-group per row segment, a switch dispatching group_id ranges to
/// per-pattern unrolled code, local-memory staging and barriers for adjacent
/// groups, and the scatter-row ELL tail after the diagonal part.
template <Real T>
std::string generate_opencl_kernel_source(const CrsdMatrix<T>& m,
                                          const OpenClCodeletOptions& opts = {});

}  // namespace crsd::codegen
