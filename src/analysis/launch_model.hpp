// Abstract launch model: everything the static analyzer needs to know about
// one gpu_spmv_crsd launch, extracted from the container's metadata and the
// launch geometry — and nothing else. The CRSD kernel's address streams are
// fully determined by this model (no stream depends on the value data), so
// the prover in analyze.hpp can establish bounds/race/barrier properties
// before any launch, and the coalescing replay can reproduce the simulator's
// transaction counters exactly.
//
// The model is a plain value type on purpose: tests mutate it to plant
// defects (an unclamped edge read, a duplicate scatter target, a divergent
// barrier) and check that the prover refutes exactly the planted property
// while the untouched model verifies clean.
#pragma once

#include <array>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "core/partition.hpp"
#include "core/storage_mode.hpp"
#include "gpusim/device.hpp"

namespace crsd::analysis {

/// Analyzer knobs: the device the launch targets and the CrsdGpuOptions
/// geometry switches that change the kernel's access streams.
struct AnalyzeOptions {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::tesla_c2050();
  /// Mirror of CrsdGpuOptions::use_local_memory (AD-window staging).
  bool use_local_memory = true;
  /// Mirror of CrsdGpuOptions::jit_codelet (interpreted kernel also streams
  /// the pattern-index metadata and pays per-lane index arithmetic).
  bool jit_codelet = true;
};

/// Device buffers of one gpu_spmv_crsd launch, in allocation order (the
/// order fixes each buffer's virtual base address and therefore its cache
/// set mapping).
enum class Buf : int {
  kDiaVal = 0,   ///< diagonal value stream
  kX,            ///< source vector
  kY,            ///< result vector
  kScatterRow,   ///< scatter row numbers
  kScatterCol,   ///< scatter column stream (ELL i32/u16)
  kScatterVal,   ///< scatter value stream
  kIndex,        ///< pattern index metadata (interpreted kernel only)
};
inline constexpr int kNumBuffers = 7;

inline const char* buf_name(Buf b) {
  switch (b) {
    case Buf::kDiaVal: return "dia_val";
    case Buf::kX: return "x";
    case Buf::kY: return "y";
    case Buf::kScatterRow: return "scatter_rowno";
    case Buf::kScatterCol: return "scatter_col";
    case Buf::kScatterVal: return "scatter_val";
    case Buf::kIndex: return "dia_index";
  }
  return "?";
}

/// One AD/NAD group as the kernel sees it, plus the analyzer's barrier
/// abstraction: `barrier_participating` < 0 means every work-item reaches
/// the staging barriers (the kernel's actual control flow — group type and
/// diagonal count are uniform across the group); any other value models a
/// kernel where only that many work-items arrive.
struct GroupModel {
  bool adjacent = false;
  index_t num_diagonals = 0;
  index_t first_diagonal = 0;
  index_t barrier_participating = -1;
};

/// One diagonal pattern: a contiguous run of work-groups [seg_begin,
/// seg_end) sharing the same live-diagonal set. `clamp_x` records whether
/// the kernel clamps source-vector indices into [0, num_cols); the real
/// kernels always do — flipping it models the historical unclamped-edge-read
/// bug class and must be refuted by the prover on any matrix with edge
/// overhang.
struct PatternModel {
  index_t pattern = 0;
  index_t seg_begin = 0;
  index_t seg_end = 0;
  size64_t value_offset = 0;      ///< pattern_value_offsets()[p]
  size64_t slots_per_segment = 0;
  std::vector<diag_offset_t> offsets;
  std::vector<GroupModel> groups;
  int index_width = 4;            ///< bytes per pattern-index entry
  bool clamp_x = true;

  index_t num_diagonals() const {
    return static_cast<index_t>(offsets.size());
  }
};

/// Scatter side matrix as the scatter phase addresses it. `decoded_col` is
/// the mode-agnostic i32 ELL view (kInvalidIndex pads) that determines the
/// x-gather addresses; the encoded representation (mode) determines the
/// column-stream traffic.
struct ScatterModel {
  index_t num_scatter_rows = 0;
  index_t width = 0;
  ScatterIndexMode mode = ScatterIndexMode::kIndex32;
  std::vector<index_t> rowno;
  std::vector<index_t> decoded_col;
};

/// The complete abstract launch: geometry, storage-mode widths, buffer
/// address map, per-pattern structure and scatter part.
struct LaunchModel {
  gpusim::DeviceSpec spec;
  bool use_local_memory = true;
  bool jit_codelet = true;
  bool double_precision = true;

  index_t num_rows = 0;
  index_t num_cols = 0;
  index_t mrows = 0;
  index_t num_segments = 0;

  int value_bytes = 8;  ///< bytes per stored matrix value (storage mode)
  int vec_bytes = 8;    ///< bytes per x/y element (sizeof(T))
  size64_t dia_slot_count = 0;

  std::array<gpusim::Buffer, kNumBuffers> buffers{};
  std::vector<PatternModel> patterns;
  ScatterModel scatter;

  const gpusim::Buffer& buffer(Buf b) const {
    return buffers[static_cast<std::size_t>(b)];
  }
};

/// Mirrors gpusim::Device::alloc on a freshly constructed device: 128-byte
/// aligned virtual bases starting at 1 MiB, one guard granule between
/// buffers. Predictions are exact for launches against a fresh Device (the
/// autotuner's per-trial devices and the crsd_analyze CLI both use one).
inline std::array<gpusim::Buffer, kNumBuffers> model_device_buffers(
    const std::array<size64_t, kNumBuffers>& bytes,
    const gpusim::DeviceSpec& spec) {
  std::array<gpusim::Buffer, kNumBuffers> bufs{};
  const size64_t tb = static_cast<size64_t>(spec.transaction_bytes);
  size64_t next_vbase = size64_t{1} << 20;
  for (int i = 0; i < kNumBuffers; ++i) {
    bufs[static_cast<std::size_t>(i)] =
        gpusim::Buffer{next_vbase, bytes[static_cast<std::size_t>(i)]};
    const size64_t aligned =
        (bytes[static_cast<std::size_t>(i)] + tb - 1) / tb * tb;
    next_vbase += aligned + tb;
  }
  return bufs;
}

/// Extracts the abstract launch model from a built container. Pure metadata:
/// no value stream is read, so the extraction is cheap relative to a trial
/// launch and independent of update_values.
template <Real T>
LaunchModel build_launch_model(const CrsdMatrix<T>& m,
                               const AnalyzeOptions& opts = {}) {
  CRSD_CHECK_MSG(m.mrows() % opts.spec.wavefront_size == 0,
                 "mrows (" << m.mrows() << ") must be a multiple of the "
                           << "wavefront size (" << opts.spec.wavefront_size
                           << ") to model a GPU launch");
  LaunchModel lm;
  lm.spec = opts.spec;
  lm.use_local_memory = opts.use_local_memory;
  lm.jit_codelet = opts.jit_codelet;
  lm.double_precision = std::is_same_v<T, double>;
  lm.num_rows = m.num_rows();
  lm.num_cols = m.num_cols();
  lm.mrows = m.mrows();
  lm.num_segments = m.num_segments_total();
  lm.value_bytes = m.value_bytes();
  lm.vec_bytes = static_cast<int>(sizeof(T));
  lm.dia_slot_count = m.dia_slot_count();

  // Buffer sizes exactly as gpu_spmv_crsd allocates them, in its order.
  size64_t index_bytes = 0;
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
    index_bytes += (2 + pat.offsets.size()) *
                   static_cast<size64_t>(m.pattern_index_width(p));
  }
  const std::array<size64_t, kNumBuffers> bytes = {
      m.dia_slot_count() * static_cast<size64_t>(lm.value_bytes),
      static_cast<size64_t>(m.num_cols()) * sizeof(T),
      static_cast<size64_t>(m.num_rows()) * sizeof(T),
      m.scatter_rows().size() * sizeof(index_t),
      m.scatter_index_stream_bytes(),
      m.scatter_slot_count() * static_cast<size64_t>(lm.value_bytes),
      index_bytes,
  };
  lm.buffers = model_device_buffers(bytes, lm.spec);

  lm.patterns.reserve(m.patterns().size());
  for (std::size_t pi = 0; pi < m.patterns().size(); ++pi) {
    const auto& pat = m.patterns()[pi];
    PatternModel pm;
    pm.pattern = static_cast<index_t>(pi);
    pm.seg_begin = m.cum_segments()[pi];
    pm.seg_end = m.cum_segments()[pi + 1];
    pm.value_offset = m.pattern_value_offsets()[pi];
    pm.slots_per_segment = pat.slots_per_segment(m.mrows());
    pm.offsets = pat.offsets;
    pm.index_width = m.pattern_index_width(static_cast<index_t>(pi));
    pm.groups.reserve(pat.groups.size());
    for (const auto& grp : pat.groups) {
      GroupModel gm;
      gm.adjacent = grp.type == GroupType::kAdjacent;
      gm.num_diagonals = grp.num_diagonals;
      gm.first_diagonal = grp.first_diagonal;
      pm.groups.push_back(gm);
    }
    lm.patterns.push_back(std::move(pm));
  }

  lm.scatter.num_scatter_rows = m.num_scatter_rows();
  lm.scatter.width = m.scatter_width();
  lm.scatter.mode = m.scatter_index_mode();
  lm.scatter.rowno = m.scatter_rows();
  lm.scatter.decoded_col = m.decoded_scatter_col();
  return lm;
}

/// One region of a partitioned launch as the analyzer sees it.
struct RegionLaunchModel {
  RowRegion region;
  LaunchModel crsd;
};

/// A partitioned launch: the validated region cover plus one abstract CRSD
/// launch model per region. Because the executor gives every region a
/// private device and a disjoint y window, proving each region's model
/// proves the composed launch — there is no cross-region stream to model.
struct PartitionedLaunchModel {
  index_t num_rows = 0;
  std::vector<RegionLaunchModel> regions;
};

/// Extracts the abstract launch model of a partitioned launch. Throws a
/// kPlanPartition DiagnosticError when the container's region list is not a
/// valid partition under the device's wavefront constraint; per-region CRSD
/// extraction then enforces the same mrows/wavefront rule as the
/// single-container overload.
template <Real T>
PartitionedLaunchModel build_launch_model(const PartitionedMatrix<T>& m,
                                          const AnalyzeOptions& opts = {}) {
  std::vector<check::Diagnostic> diags = validate_partition(
      m.num_rows(), m.regions(), opts.spec.wavefront_size);
  if (!diags.empty()) {
    throw check::DiagnosticError("partitioned launch model: invalid partition",
                                 std::move(diags));
  }
  PartitionedLaunchModel pm;
  pm.num_rows = m.num_rows();
  pm.regions.reserve(m.parts().size());
  for (const auto& part : m.parts()) {
    pm.regions.push_back({part.region, build_launch_model(*part.crsd, opts)});
  }
  return pm;
}

}  // namespace crsd::analysis
