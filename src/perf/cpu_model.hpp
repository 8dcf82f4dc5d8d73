// CPU performance model for the paper's §IV-B comparison. The paper
// measures MKL CSR/DIA on a two-socket Xeon X5550 and divides CRSD's GPU
// time by it (Figs. 11/12, Table VI). This container has one core, so the
// multicore numbers come from a roofline model: SpMV is bandwidth-bound,
// time = max(bytes / bandwidth(threads), flops / flop_rate(threads)). Real
// wall-clock kernels exist too (bench_micro_spmv) for machines where
// measuring is meaningful.
#pragma once

#include <string>

#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "matrix/stats.hpp"

// The GPU-counter overload of predict_crsd_spmv_seconds only references
// these by const&; forward declarations keep this header free of the gpusim
// include chain.
namespace crsd::gpusim {
struct DeviceSpec;
struct Counters;
}  // namespace crsd::gpusim

namespace crsd::perf {

/// Host system description.
struct CpuSystemSpec {
  std::string name;
  int sockets = 2;
  int cores_per_socket = 4;
  double clock_ghz = 2.67;
  /// Sustained flops per cycle per core (SSE2 mul+add).
  double flops_per_cycle_double = 4.0;
  double flops_per_cycle_single = 8.0;
  /// Effective SpMV-sweep bandwidth a single thread sustains, and the
  /// node-wide ceiling. These are calibrated to MKL 10.2 CSR behaviour the
  /// paper measured (Table VI implies only ~2.2x scaling from 1 to 8
  /// threads: gathers and NUMA effects keep threaded SpMV far below the
  /// STREAM ceiling), not to raw DRAM capability.
  double bw_per_thread_gbps = 7.5;
  double bw_total_gbps = 18.0;

  int total_cores() const { return sockets * cores_per_socket; }

  double bandwidth_gbps(int threads) const {
    return std::min(bw_per_thread_gbps * threads, bw_total_gbps);
  }

  double flop_rate(int threads, bool double_precision) const {
    const double per_core = clock_ghz * 1e9 *
                            (double_precision ? flops_per_cycle_double
                                              : flops_per_cycle_single);
    return per_core * std::min(threads, total_cores());
  }

  /// Table IV: two-socket quad-core Intel Xeon X5550, 2.67 GHz, 8 GB.
  static CpuSystemSpec xeon_x5550_2s();
};

/// Byte/flop traffic of one SpMV sweep in a given format, derived from the
/// matrix structure. `value_bytes` is sizeof(double) or sizeof(float).
struct SweepCost {
  size64_t bytes = 0;
  size64_t flops = 0;
};

/// MKL-style CSR: values + 4-byte column indices + row pointers + x + y.
SweepCost csr_sweep_cost(const StructureStats& s, int value_bytes);

/// DIA: every padded diagonal slot is streamed.
SweepCost dia_sweep_cost(const StructureStats& s, int value_bytes);

/// ELL: padded slots with values and column indices.
SweepCost ell_sweep_cost(const StructureStats& s, int value_bytes);

/// CRSD on CPU: the diagonal value stream (fill included), the scatter ELL,
/// x and y; index metadata is compiled into the codelet so it costs nothing
/// per sweep.
SweepCost crsd_sweep_cost(const CrsdStats& s, index_t num_rows,
                          int value_bytes);

/// Roofline estimate of one SpMV sweep.
double cpu_spmv_seconds(const CpuSystemSpec& spec, const SweepCost& cost,
                        int threads, bool double_precision);

/// Roofline proxy for ranking CRSD candidate configurations without running
/// them: single-thread bandwidth-bound seconds of one sweep over the
/// candidate's storage (crsd_sweep_cost under the default system spec).
/// The absolute scale is a CPU's, not the simulated GPU's, but both are
/// dominated by the same streamed-bytes term, so the *ordering* over
/// candidates tracks the measured ordering — which is all the autotuner's
/// pruning needs.
double predict_crsd_spmv_seconds(const CrsdStats& stats, index_t num_rows,
                                 int value_bytes, bool double_precision);

/// GPU-side prediction from statically derived launch counters (the
/// analysis layer's coalescing replay, analysis/analyze.hpp): feeds the
/// counters through the simulator's own timing model, so the autotuner can
/// cost a candidate on the *target device's* scale — exactly, for a launch
/// on a fresh device — without a trial launch.
double predict_crsd_spmv_seconds(const gpusim::DeviceSpec& spec,
                                 const gpusim::Counters& counters,
                                 bool double_precision);

/// Byte/flop traffic of one row segment of pattern `p` in the CRSD diagonal
/// part: the segment's value slots stream once, every diagonal rereads its
/// x window, and y is written once. Inline so header-only callers
/// (runtime/shard.hpp) can cost segments without linking crsd_perf.
inline SweepCost pattern_segment_cost(const DiagonalPattern& p, index_t mrows,
                                      int value_bytes) {
  SweepCost c;
  const size64_t slots = p.slots_per_segment(mrows);
  c.bytes = 2 * slots * static_cast<size64_t>(value_bytes) +  // values + x
            static_cast<size64_t>(mrows) * value_bytes;       // y store
  c.flops = 2 * slots;
  return c;
}

/// Byte/flop traffic of one scatter row of ELL width `w`.
inline SweepCost scatter_row_cost(index_t w, int value_bytes) {
  SweepCost c;
  c.bytes = static_cast<size64_t>(w) *
                (static_cast<size64_t>(value_bytes) + sizeof(index_t)) +
            static_cast<size64_t>(w + 1) * value_bytes;  // gathered x + y
  c.flops = 2 * static_cast<size64_t>(w);
  return c;
}

/// Single-thread roofline seconds for `cost` — the inline core of
/// cpu_spmv_seconds, usable header-only (no fork/join term).
inline double roofline_seconds(const CpuSystemSpec& spec,
                               const SweepCost& cost, int threads,
                               bool double_precision) {
  const double t_mem =
      double(cost.bytes) / (spec.bandwidth_gbps(threads) * 1e9);
  const double t_flops =
      double(cost.flops) / spec.flop_rate(threads, double_precision);
  return t_mem > t_flops ? t_mem : t_flops;
}

}  // namespace crsd::perf
