// Static lint pass over generated CPU codelet source, run before handing
// the text to the JIT compiler. The generator bakes the matrix structure into
// the instruction stream (constant trip counts, immediate column offsets,
// per-pattern segment bounds, the interior/edge split); this pass re-derives
// each baked constant from the container and checks the emitted text against
// it. A generator bug — or a codelet reused for a structurally different
// matrix — surfaces as a precise diagnostic here, before any compile, and
// the lint-gated JIT factory (make_jit_kernel with Checked::kYes, the
// default) falls back to the interpreted kernel instead of running a
// miscompiled codelet.
//
// Checks:
//   * kLintMissingSymbol   — expected extern "C" entry points present;
//   * kLintPatternDispatch — per-pattern segment bounds (the g0/g1 range
//     clamps and the pattern markers) match cum_segments, every pattern
//     emitted, in order;
//   * kLintInteriorSplit   — the interior [i0, i1) clamps match
//     pattern_interior_segments for the container;
//   * kLintTripCount       — literal lane-loop trip counts and the diag
//     function's interior accumulator extents equal mrows;
//   * kLintBakedOffset     — every baked x offset belongs to its pattern's
//     live-diagonal set, clamp bounds equal num_cols-1, and unclamped
//     accesses are provably in range for every row of the pattern;
//   * kLintScatterLayout   — the scatter function: its row clamp and slot
//     strides equal num_scatter_rows, its slot loop runs scatter_width
//     times, and its accumulator array and block row clamp equal the block
//     step.
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

}  // namespace crsd::codegen
