// Partitioned SpMV: the executor and the cached planner for
// core/partition.hpp's PartitionedMatrix.
//
//  * plan_partition_cached — the model-driven region boundaries
//    (core/partition.hpp) plus a measured refinement of each region's
//    mrows (trial launches on private simulated devices, the autotuner's
//    discipline), fed through the persistent tuning-cache directory keyed
//    by structure hash, device, precision, and policy. Warm runs load the
//    stored region list with zero measured trials.
//  * crsd::build_partitioned — BuildOptions-driven build: cached plan, then
//    per-region containers.
//  * kernels::spmv(dev, PartitionedMatrix, ...) — one row split
//    (rt::run_row_split): each region's full range of its own container,
//    with resident vectors, on a private device, so regions overlap exactly
//    like multi-device shards. The makespan comes from the graph's
//    deterministic virtual timeline.
//
// This header needs the crsd_runtime library (GraphExecutor); it is
// deliberately not part of the crsd.hpp facade, mirroring runtime/.
#pragma once

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/build_api.hpp"
#include "core/inspect.hpp"
#include "core/partition.hpp"
#include "gpusim/device.hpp"
#include "kernels/crsd_autotune.hpp"
#include "kernels/crsd_gpu.hpp"
#include "kernels/gpu_spmv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/multi_device.hpp"

namespace crsd::kernels {

/// A resolved partition plan plus its cache accounting.
struct PlannedPartition {
  PartitionPlan plan;
  bool cache_hit = false;
  /// Trial launches spent refining per-region mrows; 0 on a cache hit.
  index_t measured_trials = 0;
  std::string cache_key;
};

namespace detail {

/// Serialized planning inputs; hashing this yields the partition cache key
/// (same discipline as tune_key_string — any change to policy, planner
/// constants, device, precision, or matrix structure keys a different
/// entry).
template <Real T>
std::string part_key_string(const gpusim::DeviceSpec& spec, const Coo<T>& a,
                            const BuildOptions& opts) {
  std::ostringstream os;
  os << "crsd-part-v1|dev=" << spec.name << "|wf=" << spec.wavefront_size
     << "|fp=" << (std::is_same_v<T, double> ? "f64" : "f32")
     << "|vp=" << value_precision_name(opts.config.storage.value_precision)
     << "|ix="
     << (opts.config.storage.narrow_scatter_indices ? "narrow" : "i32")
     << "|shash=" << fnv1a64_hex(std::to_string(structure_hash(a)))
     << "|regions=" << opts.partition.overlap_regions
     << "|block=" << kPartitionBlockRows
     << "|minr=" << kPartitionMinRegionRows
     << "|fill=" << kPartitionLiveMinFill << "|mrows=";
  for (index_t v : kPartitionMrowsCandidates) os << v << ',';
  return os.str();
}

/// Reads a cached region list. Returns false — a miss — on absent, torn,
/// or unparseable entries, on entries that do not partition [0, num_rows)
/// (a matrix with the same structure hash but different row count cannot
/// happen, but a truncated file can), and on a region whose mrows is not
/// one of the device's candidates: no cold plan could have stored it, and
/// it would fail at launch or pad the region to an arbitrary height.
inline bool part_cache_load(const std::string& path, index_t num_rows,
                            index_t wavefront, const CrsdConfig& base,
                            std::vector<RowRegion>& regions) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string header;
  if (!std::getline(in, header) || header != "crsd-part-v1") return false;
  const std::vector<index_t> legal = partition_mrows_candidates(wavefront);
  regions.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag, format;
    RowRegion r;
    r.config = base;
    if (!(ls >> tag >> r.row_begin >> r.row_end >> format >> r.config.mrows) ||
        tag != "region" || format != "crsd" ||
        std::find(legal.begin(), legal.end(), r.config.mrows) == legal.end()) {
      return false;
    }
    regions.push_back(std::move(r));
  }
  return validate_partition(num_rows, regions, wavefront).empty();
}

/// Publishes a partition cache entry (write-temp + atomic rename, the tune
/// cache's discipline). Best-effort: a read-only directory degrades to
/// "always miss".
inline void part_cache_store(const std::string& dir, const std::string& path,
                             const std::vector<RowRegion>& regions) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return;
  static std::atomic<unsigned> attempt_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(attempt_counter.fetch_add(1));
  {
    std::ofstream out(tmp);
    out << "crsd-part-v1\n";
    for (const RowRegion& r : regions) {
      out << "region " << r.row_begin << ' ' << r.row_end << " crsd "
          << r.config.mrows << '\n';
    }
    out.flush();
    if (!out.good()) {
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace detail

/// Plans a row partition for `a` on `spec`, consulting the persistent cache
/// first. A miss runs the model-driven planner for boundaries, then refines
/// each region's mrows by trial launches on private devices (one per
/// candidate, concurrently on `pool`), and publishes the winning region
/// list; a hit returns the stored regions with zero measured trials.
template <Real T>
PlannedPartition plan_partition_cached(const gpusim::DeviceSpec& spec,
                                       const Coo<T>& a,
                                       const BuildOptions& opts = {},
                                       ThreadPool* pool = nullptr) {
  namespace fs = std::filesystem;
  obs::Span span("partition/plan_cached", "nnz",
                 static_cast<std::int64_t>(a.nnz()));
  static obs::Counter& hits =
      obs::Registry::global().counter("partition.cache_hit");
  static obs::Counter& misses =
      obs::Registry::global().counter("partition.cache_miss");

  AutotuneOptions cache_opts;
  cache_opts.cache_dir = opts.cache_dir;
  const std::string dir = detail::tune_cache_dir(cache_opts);

  PlannedPartition out;
  out.cache_key =
      "part_" + fnv1a64_hex(detail::part_key_string(spec, a, opts));
  const std::string path =
      (fs::path(dir) / (out.cache_key + ".txt")).string();

  std::vector<RowRegion> cached;
  if (detail::part_cache_load(path, a.num_rows(), spec.wavefront_size,
                              opts.config, cached)) {
    out.plan.regions = std::move(cached);
    out.cache_hit = true;
    hits.add(1);
    return out;
  }
  misses.add(1);

  out.plan = plan_partition(a, spec, opts.partition, opts.config);

  // Measured refinement: the model decided the region boundaries; trial
  // launches on private devices pick each region's mrows. Per region, race
  // one CRSD build per wavefront-legal candidate and keep the
  // measured-fastest. Fixed candidate order keeps tie-breaks
  // deterministic.
  const std::vector<index_t> candidates =
      partition_mrows_candidates(spec.wavefront_size);
  if (candidates.size() > 1) {
    obs::Span refine_span("partition/refine");
    for (RowRegion& region : out.plan.regions) {
      const Coo<T> slice = a.row_slice(region.row_begin, region.row_end);
      std::vector<double> seconds(candidates.size(),
                                  std::numeric_limits<double>::infinity());
      std::vector<std::function<void()>> tasks;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        tasks.push_back([&, c] {
          gpusim::Device trial_dev(spec);
          std::vector<T> x(static_cast<std::size_t>(slice.num_cols()), T(1));
          std::vector<T> y(static_cast<std::size_t>(slice.num_rows()));
          CrsdConfig cfg = region.config;
          cfg.mrows = candidates[c];
          const CrsdMatrix<T> m = crsd::detail::build_crsd_impl(slice, cfg);
          seconds[c] =
              gpu_spmv_crsd(trial_dev, m, x.data(), y.data(), {}, nullptr)
                  .seconds;
        });
      }
      detail::run_trial_tasks(pool, tasks);
      out.measured_trials += static_cast<index_t>(candidates.size());
      std::size_t best = 0;
      for (std::size_t c = 1; c < candidates.size(); ++c) {
        if (seconds[c] < seconds[best]) best = c;
      }
      region.config.mrows = candidates[best];
    }
  }

  detail::part_cache_store(dir, path, out.plan.regions);
  return out;
}

/// One partitioned launch's timeline: `seconds` is the overlapped makespan
/// on the task-graph runtime's virtual clock; `serial_seconds` is what the
/// same launches cost back to back (the no-overlap baseline).
struct PartitionedLaunchResult {
  double seconds = 0.0;
  double serial_seconds = 0.0;
  std::vector<double> region_seconds;
  rt::GraphRunStats stats;

  double overlap_speedup() const {
    return seconds > 0.0 ? serial_seconds / seconds : 1.0;
  }
};

/// y = A*x for a partitioned container: one row split whose parts are the
/// regions, each the full range of its own container on a private device
/// (same spec as `dev`) with resident vectors, so region launches overlap
/// like multi-device shards. Results are bitwise identical to
/// PartitionedMatrix::spmv on the CPU for native storage — each region
/// accumulates exactly as its standalone container would.
template <Real T>
PartitionedLaunchResult spmv(gpusim::Device& dev,
                             const PartitionedMatrix<T>& m, const T* x, T* y,
                             const SpmvOptions& opts = {},
                             ThreadPool* pool = nullptr) {
  const auto& parts = m.parts();
  obs::Span span("partition/spmv", "regions",
                 static_cast<std::int64_t>(parts.size()));

  // One private device per region: gpusim::Device carries allocation state,
  // so concurrent region launches must not share one.
  std::vector<gpusim::Device> devs;
  devs.reserve(parts.size());
  std::vector<rt::RowSplitPart<T>> split;
  for (const auto& part : parts) {
    devs.emplace_back(dev.spec());
    split.push_back({part.crsd.get(), CrsdGpuRange::full(*part.crsd),
                     part.region.row_begin, &devs.back(), false});
  }
  rt::MultiDeviceOptions resident;
  resident.transfer_vectors = false;
  rt::RowSplitRun run =
      rt::run_row_split(split, x, y,
                        pool != nullptr ? *pool : ThreadPool::global(),
                        resident, opts.crsd);

  PartitionedLaunchResult res;
  res.seconds = run.stats.makespan_seconds;
  res.region_seconds = std::move(run.part_seconds);
  for (double s : res.region_seconds) res.serial_seconds += s;
  res.stats = std::move(run.stats);
  return res;
}

}  // namespace crsd::kernels

namespace crsd {

/// Builds a partitioned container from canonical COO: the cached planner
/// (persistent cache + measured mrows refinement on a cold run) followed by
/// per-region construction. `planned`, when given, receives the plan and
/// its cache accounting — bench_partition's warm-run gate asserts
/// measured_trials == 0 through it.
template <Real T>
PartitionedMatrix<T> build_partitioned(const Coo<T>& a,
                                       const BuildOptions& opts = {},
                                       ThreadPool* pool = nullptr,
                                       kernels::PlannedPartition* planned =
                                           nullptr) {
  kernels::PlannedPartition p =
      kernels::plan_partition_cached(opts.device, a, opts, pool);
  PartitionedMatrix<T> m = PartitionedMatrix<T>::build(a, p.plan);
  if (planned != nullptr) *planned = std::move(p);
  return m;
}

}  // namespace crsd
