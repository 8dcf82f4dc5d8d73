// Tolerance-gated floating-point comparison for mixed-precision parity.
//
// Compacted value streams (f32 storage, core/storage_mode.hpp) make SpMV
// results differ from the fp64 build by quantization noise, so parity checks
// become |a - ref| <= atol + rtol*|ref| with bounds derived from the storage
// roundoff and the worst-case number of accumulated terms per row — never an
// ad-hoc magic epsilon.
#pragma once

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/storage_mode.hpp"

namespace crsd::check {

/// Mixed absolute/relative bound: close iff |a - ref| <= atol + rtol*|ref|.
struct CloseBound {
  double atol = 0.0;
  double rtol = 0.0;
};

/// Derives a per-matrix parity bound for comparing a compacted-storage SpMV
/// result against the native reference. Each stored value carries relative
/// error <= the storage roundoff and a row accumulates at most
/// `max_terms_per_row` of them (plus the widened summation itself), so the
/// row error is bounded by eps*(terms+4) relative to the magnitude of the
/// result; `ref_scale` (typically max|y_ref|) anchors the absolute floor for
/// rows that cancel toward zero.
template <Real T>
CloseBound storage_parity_bound(ValuePrecision p, size64_t max_terms_per_row,
                                double ref_scale) {
  const double eps = storage_epsilon<T>(p);
  const double factor = eps * static_cast<double>(max_terms_per_row + 4);
  return CloseBound{factor * std::abs(ref_scale), factor};
}

inline bool is_close(double a, double ref, const CloseBound& b) {
  if (std::isnan(a) || std::isnan(ref)) return false;
  return std::abs(a - ref) <= b.atol + b.rtol * std::abs(ref);
}

/// Summary of an element-wise comparison sweep.
struct CloseReport {
  bool ok = true;
  size64_t violations = 0;
  size64_t worst_index = 0;
  double max_abs_err = 0.0;
  /// Error of the worst element relative to atol + rtol*|ref| (<=1 when ok).
  double worst_ratio = 0.0;
};

template <Real T>
CloseReport all_close(const T* a, const T* ref, size64_t n,
                      const CloseBound& b) {
  CloseReport r;
  for (size64_t i = 0; i < n; ++i) {
    const double err = std::abs(static_cast<double>(a[i]) -
                                static_cast<double>(ref[i]));
    const double limit = b.atol + b.rtol * std::abs(static_cast<double>(ref[i]));
    const bool bad = std::isnan(err) || err > limit;
    const double ratio = limit > 0.0 ? err / limit
                                     : (err > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
    if (ratio > r.worst_ratio || (bad && r.violations == 0)) {
      r.worst_ratio = ratio;
      r.worst_index = i;
    }
    if (err > r.max_abs_err) r.max_abs_err = err;
    if (bad) {
      r.ok = false;
      ++r.violations;
    }
  }
  return r;
}

/// Throws crsd::Error with a diagnostic message unless every element of `a`
/// is within `b` of `ref`.
template <Real T>
void assert_close(const char* what, const T* a, const T* ref, size64_t n,
                  const CloseBound& b) {
  const CloseReport r = all_close(a, ref, n, b);
  if (r.ok) return;
  std::ostringstream os;
  os << "assert_close(" << what << "): " << r.violations << "/" << n
     << " elements outside atol=" << b.atol << " rtol=" << b.rtol
     << "; worst at [" << r.worst_index << "] a=" << a[r.worst_index]
     << " ref=" << ref[r.worst_index] << " (|err|/limit=" << r.worst_ratio
     << ")";
  throw Error(os.str());
}

}  // namespace crsd::check
