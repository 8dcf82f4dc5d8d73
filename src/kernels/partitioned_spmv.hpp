// Partitioned SpMV: the build and the executor for core/partition.hpp's
// PartitionedMatrix.
//
//  * crsd::build_partitioned — one region, [0, num_rows), whose mrows wins
//    kernels::autotune_crsd's measured race on the caller's device. The
//    race goes through the persistent tuning cache (crsd-tune-v1), so a
//    warm build loads the winner with zero measured trials.
//  * kernels::spmv(dev, PartitionedMatrix, ...) — each region's container
//    launched with gpu_spmv_crsd, back to back on the caller's device.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "core/partition.hpp"
#include "gpusim/device.hpp"
#include "kernels/crsd_autotune.hpp"
#include "kernels/crsd_gpu.hpp"
#include "kernels/gpu_spmv.hpp"
#include "obs/trace.hpp"

namespace crsd::kernels {

/// A resolved partition plan plus the tuning cache's accounting.
struct PlannedPartition {
  PartitionPlan plan;
  bool cache_hit = false;
  /// Trial launches the mrows race measured; 0 on a cache hit.
  index_t measured_trials = 0;
  std::string cache_key;
};

/// One partitioned launch: `region_seconds` holds each region's launch.
/// The regions run back to back on one device, so `seconds` and
/// `serial_seconds` are both their sum.
struct PartitionedLaunchResult {
  double seconds = 0.0;
  double serial_seconds = 0.0;
  std::vector<double> region_seconds;
};

/// y = A*x for a partitioned container: each region's container is launched
/// with gpu_spmv_crsd on `dev`, one after another, writing its own rows of
/// y. Results are bitwise identical to PartitionedMatrix::spmv on the CPU
/// for native storage — each region accumulates exactly as its standalone
/// container would.
template <Real T>
PartitionedLaunchResult spmv(gpusim::Device& dev,
                             const PartitionedMatrix<T>& m, const T* x, T* y,
                             const SpmvOptions& opts = {},
                             ThreadPool* pool = nullptr) {
  obs::Span span("partition/spmv", "regions",
                 static_cast<std::int64_t>(m.parts().size()));
  PartitionedLaunchResult res;
  for (const auto& part : m.parts()) {
    const double seconds =
        gpu_spmv_crsd(dev, *part.crsd, x, y + part.region.row_begin,
                      opts.crsd, pool)
            .seconds;
    res.region_seconds.push_back(seconds);
    res.serial_seconds += seconds;
  }
  res.seconds = res.serial_seconds;
  return res;
}

}  // namespace crsd::kernels

namespace crsd {

/// Builds a partitioned container from canonical COO as one region,
/// [0, num_rows), stored in opts.config with the mrows that
/// kernels::autotune_crsd measures fastest on opts.device. The race runs
/// every AutotuneSpace{}.mrows candidate at the caller's
/// fill_max_gap_segments and live_min_fill with local memory on, unpruned,
/// in the caller's storage, through the tuning cache at opts.cache_dir,
/// concurrently on `pool`. The candidates are built at the builder defaults
/// for the knobs the tuner does not search (live_min_nnz,
/// extend_ragged_edges, zero_scatter_rows_in_dia), which every caller in
/// the repository uses. `planned`, when given, receives the plan and the
/// tuner's cache accounting — bench_partition's warm-run gate asserts
/// measured_trials == 0 through it. A matrix without rows builds an empty
/// container with zero trials.
template <Real T>
PartitionedMatrix<T> build_partitioned(const Coo<T>& a,
                                       const BuildOptions& opts = {},
                                       ThreadPool* pool = nullptr,
                                       kernels::PlannedPartition* planned =
                                           nullptr) {
  kernels::PlannedPartition p;
  if (a.num_rows() > 0) {
    kernels::AutotuneSpace space;
    space.fill_max_gap_segments = {opts.config.fill_max_gap_segments};
    space.live_min_fill = {opts.config.live_min_fill};
    space.use_local_memory = {true};
    kernels::AutotuneOptions tune;
    tune.prune_with_model = false;
    tune.cache_dir = opts.cache_dir;
    tune.pool = pool;
    tune.storage = opts.config.storage;
    gpusim::Device dev(opts.device);
    const kernels::AutotuneResult best =
        kernels::autotune_crsd(dev, a, space, tune);
    RowRegion region{0, a.num_rows(), opts.config};
    region.config.mrows = best.best_config.mrows;
    p.plan.regions.push_back(region);
    p.cache_hit = best.cache_hit;
    p.measured_trials = best.measured_trials;
    p.cache_key = best.cache_key;
  }
  PartitionedMatrix<T> m = PartitionedMatrix<T>::build(a, p.plan);
  if (planned != nullptr) *planned = std::move(p);
  return m;
}

}  // namespace crsd
