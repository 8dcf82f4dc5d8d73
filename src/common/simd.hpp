// Portable fixed-width SIMD layer for the CPU SpMV execution engine.
//
// CRSD's diagonal-major / lane-minor layout means consecutive lanes of one
// diagonal sit at consecutive addresses — the same property that coalesces
// global loads on the GPU makes the CPU inner loop unit-stride, so it can be
// expressed directly in fixed-width vectors. This header provides the small
// vocabulary those kernels need (unaligned load/store, multiply, multiply-
// accumulate, broadcast) without committing to an ISA:
//
//  * On GCC/Clang the vector is a `vector_size` extension type sized to the
//    widest extension the compiler was *told* to target (__AVX512F__ /
//    __AVX__ / baseline 16 bytes). The compiler lowers arithmetic to the
//    best available instructions and splits wider-than-native vectors.
//  * Elsewhere it is a plain array the optimizer can still unroll.
//
// `fmadd(a, b, c)` is written `a*b + c`, never std::fma: whether it
// contracts to a fused instruction is left to the compiler's fp-contract
// setting so interpreted and JIT-compiled kernels built with the same flags
// stay bit-for-bit identical (the parity tests rely on this).
#pragma once

#include <cstring>

#include "common/types.hpp"

// Restrict qualifier for kernel pointer parameters.
#if defined(_MSC_VER) && !defined(__clang__)
#define CRSD_RESTRICT __restrict
#else
#define CRSD_RESTRICT __restrict__
#endif

namespace crsd::simd {

/// Vector register width the kernels are written against, in bytes.
#if defined(__AVX512F__)
inline constexpr int kVectorBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVectorBytes = 32;
#else
inline constexpr int kVectorBytes = 16;  // SSE2 / NEON / portable baseline
#endif

/// Elements of T per vector.
template <Real T>
inline constexpr index_t kLanes =
    static_cast<index_t>(kVectorBytes / sizeof(T));

#if defined(__GNUC__) || defined(__clang__)
#define CRSD_SIMD_NATIVE 1

// vector_size must be applied to a non-dependent type (GCC silently ignores
// it on a template parameter), hence concrete typedefs + a traits map.
using vfloat_t = float __attribute__((vector_size(kVectorBytes)));
using vdouble_t = double __attribute__((vector_size(kVectorBytes)));

template <Real T>
struct NativeVec;
template <>
struct NativeVec<float> {
  using type = vfloat_t;
};
template <>
struct NativeVec<double> {
  using type = vdouble_t;
};

template <Real T>
struct Vec {
  using native_t = typename NativeVec<T>::type;
  native_t v;
};

template <Real T>
inline Vec<T> loadu(const T* p) {
  Vec<T> r;
  std::memcpy(&r.v, p, sizeof(r.v));
  return r;
}

template <Real T>
inline void storeu(T* p, Vec<T> a) {
  std::memcpy(p, &a.v, sizeof(a.v));
}

template <Real T>
inline Vec<T> broadcast(T s) {
  Vec<T> r;
  for (index_t i = 0; i < kLanes<T>; ++i) r.v[i] = s;
  return r;
}

template <Real T>
inline Vec<T> add(Vec<T> a, Vec<T> b) {
  return {a.v + b.v};
}

template <Real T>
inline Vec<T> mul(Vec<T> a, Vec<T> b) {
  return {a.v * b.v};
}

template <Real T>
inline Vec<T> fmadd(Vec<T> a, Vec<T> b, Vec<T> c) {
  return {a.v * b.v + c.v};
}

template <Real T>
inline T lane(Vec<T> a, index_t i) {
  return a.v[i];
}

#else  // portable fallback: fixed-size array the optimizer unrolls

template <Real T>
struct Vec {
  T v[kVectorBytes / sizeof(T)];
};

template <Real T>
inline Vec<T> loadu(const T* p) {
  Vec<T> r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}

template <Real T>
inline void storeu(T* p, Vec<T> a) {
  std::memcpy(p, a.v, sizeof(a.v));
}

template <Real T>
inline Vec<T> broadcast(T s) {
  Vec<T> r;
  for (index_t i = 0; i < kLanes<T>; ++i) r.v[i] = s;
  return r;
}

template <Real T>
inline Vec<T> add(Vec<T> a, Vec<T> b) {
  Vec<T> r;
  for (index_t i = 0; i < kLanes<T>; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

template <Real T>
inline Vec<T> mul(Vec<T> a, Vec<T> b) {
  Vec<T> r;
  for (index_t i = 0; i < kLanes<T>; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}

template <Real T>
inline Vec<T> fmadd(Vec<T> a, Vec<T> b, Vec<T> c) {
  Vec<T> r;
  for (index_t i = 0; i < kLanes<T>; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}

template <Real T>
inline T lane(Vec<T> a, index_t i) {
  return a.v[i];
}

#endif

/// Read-prefetch hint into a near cache level; a no-op where the builtin is
/// unavailable. Kernels pass plan-precomputed distances, so a no-op only
/// costs the hint, never correctness.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// y[0..n) = a[0..n) * x[0..n)   (init == true)
/// y[0..n) += a[0..n) * x[0..n)  (init == false)
///
/// The branch-free interior building block: one diagonal's contribution to a
/// full row segment, all three streams unit-stride. `a` is the diagonal's
/// value lane run, `x` the (pre-shifted) source window, `y` the segment's
/// slice of the destination. Per-element accumulation order is identical to
/// the scalar kernel, so results are bitwise-reproducible.
template <Real T>
inline void axpy_lanes(T* CRSD_RESTRICT y, const T* CRSD_RESTRICT a,
                       const T* CRSD_RESTRICT x, index_t n, bool init) {
  constexpr index_t W = kLanes<T>;
  index_t i = 0;
  if (init) {
    for (; i + W <= n; i += W) storeu(y + i, mul(loadu(a + i), loadu(x + i)));
    for (; i < n; ++i) y[i] = a[i] * x[i];
  } else {
    for (; i + W <= n; i += W) {
      storeu(y + i, fmadd(loadu(a + i), loadu(x + i), loadu(y + i)));
    }
    for (; i < n; ++i) y[i] += a[i] * x[i];
  }
}

/// acc[0..n) = widen(a[0..n)) * widen(x[0..n))   (init == true)
/// acc[0..n) += widen(a[0..n)) * widen(x[0..n))  (init == false)
///
/// Widen-on-load companion to axpy_lanes for the compacted value streams
/// (core/storage_mode.hpp): the value run `a` is stored narrow (f32), the
/// accumulator is always double. Written as a plain unit-stride loop — the
/// compiler vectorizes it to convert+fma sweeps.
template <typename VT, Real T>
inline void axpy_lanes_widen(double* CRSD_RESTRICT acc,
                             const VT* CRSD_RESTRICT a,
                             const T* CRSD_RESTRICT x, index_t n, bool init) {
  if (init) {
    for (index_t i = 0; i < n; ++i) {
      acc[i] = static_cast<double>(a[i]) * static_cast<double>(x[i]);
    }
  } else {
    for (index_t i = 0; i < n; ++i) {
      acc[i] += static_cast<double>(a[i]) * static_cast<double>(x[i]);
    }
  }
}

}  // namespace crsd::simd
