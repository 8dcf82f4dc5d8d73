// Shared diagnostic vocabulary of the verification subsystem. All three
// layers — the simulator memcheck/racecheck, the CRSD container validator,
// and the JIT codelet lint — report findings as Diagnostic records with a
// stable machine-readable code, so tests can assert on the exact detector
// that fired and reports format uniformly.
//
// Header-only on purpose: core/builder.hpp pulls the validator in under
// debug builds, and a header-only vocabulary keeps that include free of any
// link-time dependency on the crsd_check library.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace crsd::check {

enum class Severity { kWarning, kError };

enum class Code {
  // Simulator memcheck/racecheck (crsd::check::MemChecker).
  kGlobalOutOfBounds,   ///< access beyond a device buffer's allocation
  kLocalOutOfBounds,    ///< local-memory access beyond the CU's window
  kLocalRace,           ///< cross-wavefront local-memory hazard, no barrier
  kBarrierDivergence,   ///< barrier reached by only part of the work-group
  kWriteConflict,       ///< two work-items wrote the same global address
  // CRSD container validator (crsd::check::validate).
  kSegmentCoverage,     ///< patterns do not tile the row-segment range
  kOffsetOrder,         ///< per-pattern diagonal offsets not strictly
                        ///< ascending, or outside (-num_rows, num_cols)
  kGroupMismatch,       ///< AD/NAD grouping inconsistent with the offsets
  kValueStreamLength,   ///< diagonal-major value stream length accounting
  kScatterLayout,       ///< scatter ELL arrays malformed (order/size/columns)
  kScatterOverlap,      ///< scatter row still owns nonzeros in the dia stream
  kNnzMismatch,         ///< container nonzeros differ from the source COO
  kIndexOverflow,       ///< a count the container indexes with index_t
                        ///< exceeds its range (builder overflow guard)
  kStorageMismatch,     ///< two containers that must be bitwise identical
                        ///< differ (check::validate_same_storage)
  kDeltaStream,         ///< DCSR delta-compressed column stream malformed
                        ///< (truncated/non-monotone/out-of-range decode)
  // JIT codelet lint (crsd::codegen::lint_*_codelet_source).
  kLintMissingSymbol,   ///< expected exported codelet symbol absent
  kLintTripCount,       ///< baked loop trip count inconsistent with mrows
  kLintBakedOffset,     ///< baked x offset/clamp outside [0, num_cols)
  kLintInteriorSplit,   ///< interior/edge split differs from the container's
  kLintPatternDispatch, ///< pattern dispatch bounds differ from cum_segments
  kLintScatterLayout,   ///< scatter loop's baked row count, slot stride,
                        ///< slot count or block extent differ from the
                        ///< container's scatter ELL
  // Static kernel-access analyzer (crsd::analysis::analyze_model).
  kPlanPartition,       ///< ExecPlan thread slices do not disjointly cover
                        ///< their segment/scatter/row domains
  // Task-graph runtime (crsd::rt::TaskGraph::validate).
  kGraphCycle,          ///< dependency cycle among graph nodes (including
                        ///< the implicit in-order edges of each queue)
  // Multi-tenant serving engine (crsd::serve::ServeEngine).
  kServeOverload,       ///< request rejected: queue depth at the admission
                        ///< high watermark (backpressure)
  kServeBatchMismatch,  ///< a coalesced batch column diverged bitwise from
                        ///< the per-request single-vector reference
  kServeShutdown,       ///< request still pending when its engine was
                        ///< destroyed; it was never computed
  kServeComputeFailed,  ///< a request's single-vector SpMV threw; the
                        ///< message carries the exception text
  // Input readers (crsd::read_matrix_market, crsd::read_crsd).
  kMalformedInput,      ///< untrusted input violates its grammar (bad
                        ///< token, out-of-range entry, wrong triangle,
                        ///< unknown storage-mode tag)
};

inline const char* code_name(Code code) {
  switch (code) {
    case Code::kGlobalOutOfBounds: return "global-out-of-bounds";
    case Code::kLocalOutOfBounds: return "local-out-of-bounds";
    case Code::kLocalRace: return "local-race";
    case Code::kBarrierDivergence: return "barrier-divergence";
    case Code::kWriteConflict: return "write-conflict";
    case Code::kSegmentCoverage: return "segment-coverage";
    case Code::kOffsetOrder: return "offset-order";
    case Code::kGroupMismatch: return "group-mismatch";
    case Code::kValueStreamLength: return "value-stream-length";
    case Code::kScatterLayout: return "scatter-layout";
    case Code::kScatterOverlap: return "scatter-overlap";
    case Code::kNnzMismatch: return "nnz-mismatch";
    case Code::kIndexOverflow: return "index-overflow";
    case Code::kStorageMismatch: return "storage-mismatch";
    case Code::kDeltaStream: return "delta-stream";
    case Code::kLintMissingSymbol: return "lint-missing-symbol";
    case Code::kLintTripCount: return "lint-trip-count";
    case Code::kLintBakedOffset: return "lint-baked-offset";
    case Code::kLintInteriorSplit: return "lint-interior-split";
    case Code::kLintPatternDispatch: return "lint-pattern-dispatch";
    case Code::kLintScatterLayout: return "lint-scatter-layout";
    case Code::kPlanPartition: return "plan-partition";
    case Code::kGraphCycle: return "graph-cycle";
    case Code::kServeOverload: return "serve-overload";
    case Code::kServeBatchMismatch: return "serve-batch-mismatch";
    case Code::kServeShutdown: return "serve-shutdown";
    case Code::kServeComputeFailed: return "serve-compute-failed";
    case Code::kMalformedInput: return "malformed-input";
  }
  return "unknown";
}

struct Diagnostic {
  Code code = Code::kGlobalOutOfBounds;
  Severity severity = Severity::kError;
  std::string message;
  /// Memcheck context: kernel name and the group/lane that faulted.
  std::string kernel;
  index_t group = -1;
  index_t lane = -1;
  /// Buffer the access targeted (CrsdGpuBuffer-style index, or -1) and the
  /// byte offset into it (validator/lint reuse `offset` for row/segment ids
  /// and source lines, the Matrix Market reader for 1-based entry numbers).
  int buffer = -1;
  std::int64_t offset = -1;

  std::string format() const {
    std::ostringstream os;
    os << (severity == Severity::kError ? "error" : "warning") << " ["
       << code_name(code) << "]";
    if (!kernel.empty()) os << " kernel=" << kernel;
    if (group >= 0) os << " group=" << group;
    if (lane >= 0) os << " lane=" << lane;
    if (buffer >= 0) os << " buffer=" << buffer;
    if (offset >= 0) os << " offset=" << offset;
    os << ": " << message;
    return os.str();
  }
};

/// Error that carries the structured diagnostics that caused it, so callers
/// can assert on the exact detector (Code) instead of parsing the message.
/// Thrown by the CRSD build's index-overflow guard, by the Matrix Market
/// reader, and by read_crsd on an unknown storage-mode tag or on streams
/// that fail container validation.
class DiagnosticError : public Error {
 public:
  DiagnosticError(const std::string& what, std::vector<Diagnostic> diags)
      : Error(what), diags_(std::move(diags)) {}
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

 private:
  std::vector<Diagnostic> diags_;
};

inline bool has_errors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

inline bool has_code(const std::vector<Diagnostic>& diags, Code code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

inline std::string format_diagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (i != 0) os << '\n';
    os << diags[i].format();
  }
  return os.str();
}

}  // namespace crsd::check
