// Static lint pass over generated codelet source, run before handing the
// text to the JIT compiler. The generators bake the matrix structure into
// the instruction stream (constant trip counts, immediate column offsets,
// pattern dispatch bounds, the interior/edge split); this pass re-derives
// each baked constant from the container and checks the emitted text against
// it. A generator bug — or a codelet reused for a structurally different
// matrix — surfaces as a precise diagnostic here, before any compile, and
// the lint-gated JIT factories (make_jit_kernel with Checked::kYes, the
// default) fall back to the interpreted kernel instead of running a
// miscompiled codelet.
//
// Checks:
//   * kLintMissingSymbol   — expected extern "C" entry points present;
//   * kLintPatternDispatch — per-pattern segment bounds (CPU: the g0/g1
//     range clamps and the pattern markers; GPU: the group_id dispatch
//     chain) match cum_segments, every pattern emitted, in order;
//   * kLintInteriorSplit   — the CPU codelet's interior [i0, i1) clamps
//     match pattern_interior_segments for the container;
//   * kLintTripCount       — literal lane-loop trip counts and lane-array
//     extents equal mrows;
//   * kLintBakedOffset     — every baked x offset belongs to its pattern's
//     live-diagonal set, clamp bounds equal num_cols-1, and unclamped
//     accesses are provably in range for every row of the pattern;
//   * kLintScatterLayout   — the CPU SpMV codelet's scatter function: its
//     row clamp and slot strides equal num_scatter_rows, its slot loop runs
//     scatter_width times, and its accumulator array and block row clamp
//     equal the block step.
#pragma once

#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "core/crsd_matrix.hpp"

namespace crsd::codegen {

/// Lints CPU codelet source generated for the structure of `m` (the
/// generate_cpu_codelet_source output with the given symbol prefix).
template <Real T>
std::vector<check::Diagnostic> lint_cpu_codelet_source(
    const CrsdMatrix<T>& m, const std::string& source,
    const std::string& symbol_prefix = "crsd_codelet");

/// Lints simulated-GPU codelet source (generate_gpu_codelet_source output).
template <Real T>
std::vector<check::Diagnostic> lint_gpu_codelet_source(
    const CrsdMatrix<T>& m, const std::string& source,
    const std::string& symbol_prefix = "crsd_gpu_codelet");

}  // namespace crsd::codegen
