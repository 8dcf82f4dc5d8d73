// Hybrid CPU+GPU SpMV — the paper's stated future work ("we plan to divide
// the task for both GPU and CPU to implement the hybrid programming"),
// following the cooperative-partitioning line of Fukaya et al.
//
// One CRSD container is built for the whole matrix and split by row
// segments into a two-part row split (rt::run_row_split,
// runtime/multi_device.hpp): the top slice runs as a pipelined GPU shard
// (chunked x-window H2D overlapping partial launches), the bottom slice as
// a CpuCompute node on the vectorized host engine. Both parts execute
// sub-ranges of the *same* container, so the hybrid product matches the
// single-engine sweeps row for row. Timing is virtual (gpusim wall model +
// PCIe model + CPU roofline), scheduled on per-queue clocks, so the
// scheduler can discover all three regimes: pure GPU (transfers
// amortized), pure CPU (transfers dominate), and a genuine split.
#pragma once

#include <algorithm>
#include <vector>

#include "analysis/analyze.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "core/build_api.hpp"
#include "hybrid/transfer.hpp"
#include "perf/cpu_model.hpp"
#include "runtime/multi_device.hpp"

namespace crsd::hybrid {

struct HybridConfig {
  /// Model a fresh x download and y upload around every SpMV (a solver that
  /// keeps vectors resident would set this false and pay only once).
  bool transfer_vectors_each_spmv = true;
  CrsdConfig crsd;
  PcieSpec pcie = PcieSpec::pcie_gen2_x16();
};

struct HybridTiming {
  double gpu_seconds = 0.0;       ///< device kernel time (simulated)
  double cpu_seconds = 0.0;       ///< host slice time (roofline model)
  double transfer_seconds = 0.0;  ///< x-window down + y-slice up, all chunks
  /// Graph-scheduled critical path: transfers pipeline against partial
  /// launches, and the CPU branch runs concurrently.
  double makespan_seconds = 0.0;
  double total_seconds() const {
    return makespan_seconds > 0.0
               ? makespan_seconds
               : std::max(gpu_seconds + transfer_seconds, cpu_seconds);
  }
};

/// A row-split SpMV engine over one shared CRSD container: rows
/// [0, split_row) on the GPU, rows [split_row, n) on the CPU. The split is
/// snapped up to a segment boundary so work-groups stay whole.
template <Real T>
class HybridSpmv {
 public:
  HybridSpmv(const Coo<T>& a, index_t split_row, const HybridConfig& cfg = {})
      : cfg_(cfg), m_(crsd::build(a, cfg.crsd)) {
    CRSD_CHECK_MSG(split_row >= 0 && split_row <= a.num_rows(),
                   "split row out of range: " << split_row);
    split_row_ = snap_split(split_row);
  }

  index_t split_row() const { return split_row_; }
  const CrsdMatrix<T>& matrix() const { return m_; }

  /// Executes y = A*x (both branches really compute) and returns the
  /// modeled timing. `dev` hosts the GPU branch's buffers.
  HybridTiming run(gpusim::Device& dev, const T* x, T* y,
                   ThreadPool* pool = nullptr) const {
    return run_with_split(dev, x, y, split_row_, pool);
  }

  /// Same sweep at an alternative split (snapped like the constructor's) —
  /// lets choose_split probe candidates without rebuilding the container.
  HybridTiming run_with_split(gpusim::Device& dev, const T* x, T* y,
                              index_t split_row,
                              ThreadPool* pool = nullptr) const {
    const index_t split = snap_split(split_row);
    const index_t mrows = m_.mrows();
    const index_t split_seg =
        std::min((split + mrows - 1) / mrows, m_.num_segments_total());
    // The GPU part: segments [0, split_seg) and the scatter rows whose
    // target lies above the split; the CPU part: everything else.
    const rt::Shard gpu = rt::make_shard(m_, 0, split_seg);
    kernels::CrsdGpuRange rest = kernels::CrsdGpuRange::full(m_);
    rest.seg_begin = split_seg;
    rest.scatter_begin = gpu.range.scatter_end;
    rest.row_begin = gpu.range.row_end;
    const std::vector<rt::RowSplitPart<T>> parts = {
        {&m_, gpu.range, &dev, false}, {&m_, rest, nullptr, true}};

    rt::MultiDeviceOptions mopts;
    mopts.transfer_vectors = cfg_.transfer_vectors_each_spmv;
    mopts.pcie = cfg_.pcie;
    ThreadPool local_pool(1);
    const rt::RowSplitRun run = rt::run_row_split(
        parts, x, y, pool != nullptr ? *pool : local_pool, mopts);

    HybridTiming t;
    t.gpu_seconds = run.launch_seconds;
    t.cpu_seconds = run.cpu_seconds;
    t.transfer_seconds = run.h2d_seconds + run.d2h_seconds;
    t.makespan_seconds = run.stats.makespan_seconds;
    return t;
  }

  /// Picks the split minimizing modeled total time. The interior candidate
  /// is *seeded* from the perf predictors — the CPU roofline against the
  /// statically predicted GPU launch counters fed through the device timing
  /// model (perf::predict_crsd_spmv_seconds) — then *refined by
  /// measurement*: the seeded fraction and its neighbours run for real and
  /// the fastest wins.
  static index_t choose_split(const Coo<T>& a, gpusim::Device& dev,
                              const HybridConfig& cfg = {}) {
    const HybridSpmv engine(a, 0, cfg);
    const CrsdMatrix<T>& m = engine.matrix();
    const index_t n = a.num_rows();
    std::vector<T> x(static_cast<std::size_t>(a.num_cols()), T(1));
    std::vector<T> y(static_cast<std::size_t>(n));
    const bool dp = std::is_same_v<T, double>;

    // Seed: predicted whole-matrix rates on each engine.
    analysis::AnalyzeOptions aopts;
    aopts.spec = dev.spec();
    const auto report =
        analysis::predict_crsd_counters(analysis::build_launch_model(m, aopts));
    double t_gpu_pred =
        perf::predict_crsd_spmv_seconds(dev.spec(), report.counters, dp);
    if (cfg.transfer_vectors_each_spmv) {
      t_gpu_pred += transfer_seconds(
          cfg.pcie, static_cast<size64_t>(a.num_cols() + n) * sizeof(T));
    }
    const double t_cpu_pred = perf::cpu_spmv_seconds(
        perf::CpuSystemSpec::xeon_x5550_2s(),
        perf::crsd_sweep_cost(m.stats(), n, m.value_bytes()),
        rt::kCpuPartThreads, dp);
    const double f =
        (1.0 / t_gpu_pred) / (1.0 / t_gpu_pred + 1.0 / t_cpu_pred);

    auto total_for = [&](index_t split) {
      return engine.run_with_split(dev, x.data(), y.data(), split)
          .total_seconds();
    };
    const index_t seg = m.mrows();
    auto snap = [&](double frac) {
      const index_t r = static_cast<index_t>(frac * double(n)) / seg * seg;
      return std::clamp<index_t>(r, 0, n);
    };

    index_t best = 0;
    double best_time = total_for(0);
    for (index_t candidate :
         {n, snap(f), snap(f * 0.5), snap(f + (1.0 - f) * 0.5)}) {
      if (candidate == 0) continue;
      const double t = total_for(candidate);
      if (t < best_time) {
        best_time = t;
        best = candidate;
      }
    }
    return best;
  }

 private:
  /// Rounds an arbitrary row split up to a whole segment (or n): the GPU
  /// branch launches whole work-groups.
  index_t snap_split(index_t split_row) const {
    const index_t mrows = m_.mrows();
    const index_t seg = (split_row + mrows - 1) / mrows;
    const index_t snapped =
        segment_row_range(0, seg, mrows, m_.num_rows()).end;
    return split_row == 0 ? 0 : snapped;
  }

  HybridConfig cfg_;
  CrsdMatrix<T> m_;
  index_t split_row_ = 0;
};

}  // namespace crsd::hybrid
