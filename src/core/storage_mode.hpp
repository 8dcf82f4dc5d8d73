// Storage-mode descriptors for the CRSD bandwidth diet.
//
// A CRSD build can optionally compact its streams after the 6-pass
// construction ("pass 7"):
//
//   value streams   kNative (T as built) | kFloat32
//   scatter columns kIndex32 (raw int32 ELL) | kIndex16 (uint16 ELL,
//                   0xffff pad; requires num_cols <= 65535)
//
// Accumulator policy: a kernel whose value-stream type differs from the
// arithmetic type T widens every loaded value and accumulates in double;
// the native mode keeps the original (bitwise-reproducible) arithmetic.
// Quantization is one-way: compaction rounds values into the storage
// precision, so parity against the fp64 build is tolerance-gated, not
// bitwise (see check/close.hpp).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace crsd {

/// Precision of the stored diagonal/scatter value streams relative to the
/// arithmetic type T. kNative means the stream type *is* T.
enum class ValuePrecision : std::uint8_t {
  kNative = 0,
  kFloat32 = 1,
};

/// Representation of the scatter-part column indices.
enum class ScatterIndexMode : std::uint8_t {
  kIndex32 = 0,
  kIndex16 = 1,
};

/// Padding sentinel for u16 ELL scatter columns (kIndex16 is only selected
/// when num_cols <= 0xffff, so the sentinel can never collide with a real
/// column).
inline constexpr std::uint16_t kScatterPad16 = 0xffffu;

/// Per-build storage request, carried by CrsdConfig. Defaults reproduce the
/// original uncompacted layout bit for bit.
struct StorageOptions {
  ValuePrecision value_precision = ValuePrecision::kNative;
  /// Re-encode scatter columns as uint16 when the column count allows it.
  bool narrow_scatter_indices = false;

  bool is_default() const {
    return value_precision == ValuePrecision::kNative &&
           !narrow_scatter_indices;
  }
};

inline const char* value_precision_name(ValuePrecision p) {
  switch (p) {
    case ValuePrecision::kNative:
      return "native";
    case ValuePrecision::kFloat32:
      return "f32";
  }
  return "?";
}

inline const char* scatter_index_mode_name(ScatterIndexMode m) {
  switch (m) {
    case ScatterIndexMode::kIndex32:
      return "i32";
    case ScatterIndexMode::kIndex16:
      return "i16";
  }
  return "?";
}

/// Bytes per stored value for arithmetic type T under precision `p`.
template <Real T>
constexpr int value_stream_bytes(ValuePrecision p) {
  switch (p) {
    case ValuePrecision::kNative:
      return static_cast<int>(sizeof(T));
    case ValuePrecision::kFloat32:
      return 4;
  }
  return static_cast<int>(sizeof(T));
}

/// Bytes per stored scatter column entry under index mode `m`.
constexpr int scatter_index_width(ScatterIndexMode m) {
  return m == ScatterIndexMode::kIndex16 ? 2 : 4;
}

/// What survives of `v` after a round trip through the storage precision.
/// The validator uses this to compare a compacted matrix against its source
/// COO: lossy narrowing is legitimate, anything beyond it is corruption.
template <Real T>
T storage_quantize(T v, ValuePrecision p) {
  switch (p) {
    case ValuePrecision::kNative:
      return v;
    case ValuePrecision::kFloat32:
      return static_cast<T>(static_cast<float>(v));
  }
  return v;
}

/// Unit roundoff of the storage precision (used to derive tolerance bounds
/// for parity checks). Native returns the roundoff of T itself.
template <Real T>
constexpr double storage_epsilon(ValuePrecision p) {
  switch (p) {
    case ValuePrecision::kNative:
      return sizeof(T) == 8 ? 0x1p-52 : 0x1p-23;
    case ValuePrecision::kFloat32:
      return 0x1p-23;
  }
  return 0x1p-52;
}

}  // namespace crsd
