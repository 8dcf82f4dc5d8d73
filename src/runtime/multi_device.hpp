// Row-split SpMV on the task-graph runtime. A row split is a list of
// parts, each a contiguous range of one built CRSD container (shard.hpp)
// bound to one simulated device or to the host CPU. run_row_split is the one
// lowering of such a list onto a TaskGraph; MultiDeviceSpmv (a shard per
// device) and hybrid::HybridSpmv (a device and the CPU) call it. Parts own
// disjoint rows, so each writes its rows straight into the caller's y and
// one join barrier closes the graph; nothing is merged.
//
// A device part is a pipelined shard: only its x-window is transferred, in
// chunks that overlap partial launches, and y ships back as each launch
// completes. Because every part executes the *same built container* over a
// sub-range (kernels::gpu_spmv_crsd_range), per-row accumulation order is
// unchanged and y is bitwise-identical to the single-device launch.
//
// Pipelining detail: the scatter phase overwrites y rows anywhere in its
// shard, so per-part D2H nodes ship only non-scatter rows; the rows the
// scatter phase owns are flushed by a final D2H after the last launch.
//
// All times are virtual (gpusim wall model + PCIe transfer model + CPU
// roofline) on the scheduler's per-queue clocks: makespan, per-engine busy
// time, and overlap efficiency are deterministic, so CI can gate on them.
#pragma once

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "gpusim/device.hpp"
#include "hybrid/transfer.hpp"
#include "kernels/crsd_gpu.hpp"
#include "perf/cpu_model.hpp"
#include "runtime/shard.hpp"
#include "runtime/task_graph.hpp"

namespace crsd::rt {

/// H2D/D2H pipeline depth per shard: the shard's segment run is split into
/// up to this many launch parts, each fed by its own x chunk.
inline constexpr int kShardTransferChunks = 4;
/// Host threads a CPU part is priced with, on the
/// perf::CpuSystemSpec::xeon_x5550_2s() roofline.
inline constexpr int kCpuPartThreads = 8;

struct MultiDeviceOptions {
  /// Move x down / y up around the sweep. False models device-resident
  /// vectors (e.g. inside a solver): no transfer nodes at all.
  bool transfer_vectors = true;
  hybrid::PcieSpec pcie = hybrid::PcieSpec::pcie_gen2_x16();
};

/// The three in-order queues one device contributes to a graph.
struct DeviceLane {
  QueueId h2d = 0;
  QueueId compute = 0;
  QueueId d2h = 0;
};

namespace detail {

/// x prefix the diagonal phase of segments [seg_begin, seg_end) needs: one
/// past the highest column read (clamp of last row + most positive offset).
template <Real T>
index_t diag_x_hi(const CrsdMatrix<T>& m, index_t seg_begin, index_t seg_end,
                  index_t fallback) {
  index_t lo = m.num_cols();
  index_t hi = 0;
  widen_for_diagonals(m, seg_begin, seg_end, &lo, &hi);
  return hi > 0 ? hi : fallback;
}

/// Copies y_src rows [row_begin, row_end) (shard-local) into y_dst, skipping
/// the scatter-owned rows listed in `skip` (global row numbers, ascending),
/// and returns the bytes actually copied. The scatter flush ships `skip`.
template <Real T>
size64_t copy_rows_skipping(const T* y_src, T* y_dst, index_t row_begin,
                            index_t row_end, index_t shard_row0,
                            const index_t* skip_begin,
                            const index_t* skip_end) {
  size64_t elems = 0;
  index_t cursor = row_begin;
  for (const index_t* s = skip_begin; s != skip_end; ++s) {
    const index_t r = *s;
    if (r < cursor) continue;
    if (r >= row_end) break;
    for (index_t i = cursor; i < r; ++i) {
      y_dst[i - shard_row0] = y_src[i - shard_row0];
    }
    elems += static_cast<size64_t>(r - cursor);
    cursor = r + 1;
  }
  for (index_t i = cursor; i < row_end; ++i) {
    y_dst[i - shard_row0] = y_src[i - shard_row0];
  }
  if (row_end > cursor) elems += static_cast<size64_t>(row_end - cursor);
  return elems * sizeof(T);
}

}  // namespace detail

/// Appends one shard's pipelined execution to `g`: chunked H2D of the x
/// window, partial launches, per-part D2H of non-scatter rows, and a final
/// scatter-row flush. With opts.transfer_vectors false the launches read
/// `x` and write `y_out` directly and no transfer nodes are emitted.
/// Returns the node after which the shard's rows are in `y_out` (-1 for an
/// empty shard).
///
/// `x_stage`/`y_dev`/`y_out` must outlive the graph run. `x_stage` and
/// `y_dev` are sized here. `y_out` points at the shard's first row of the
/// caller's y: the shard owns rows [row_begin, row_end), so its D2H nodes
/// (or, resident, its launches) write them there directly.
template <Real T>
NodeId append_shard_pipeline(TaskGraph& g, const DeviceLane& lane,
                             gpusim::Device& dev, const CrsdMatrix<T>& m,
                             const Shard& shard,
                             const MultiDeviceOptions& opts,
                             const kernels::CrsdGpuOptions& launch_opts,
                             const std::string& tag, const T* x,
                             std::vector<T>& x_stage, std::vector<T>& y_dev,
                             T* y_out) {
  const auto& r = shard.range;
  const index_t seg_count = r.seg_end - r.seg_begin;
  if (seg_count == 0 && r.scatter_begin >= r.scatter_end) return -1;

  const bool transfer = opts.transfer_vectors;
  if (transfer) {
    x_stage.assign(static_cast<std::size_t>(shard.x_elems()), T(0));
    y_dev.assign(static_cast<std::size_t>(shard.y_elems()), T(0));
  }
  const T* x_window = transfer ? x_stage.data() : x + r.x_begin;
  T* y_window = transfer ? y_dev.data() : y_out;

  // Pipeline depth: parts exist to overlap transfers with launches, so a
  // resident shard (nothing to copy) runs as one launch. With transfers, a
  // launch is never split below the device's saturation point — a part
  // with fewer wavefronts than the occupancy model needs to hide latency
  // runs derated, and four derated quarter-launches cost more than the one
  // launch they replace. Small shards therefore run as a single launch;
  // chunking only kicks in once each part can still fill the device.
  const index_t waves_per_seg =
      std::max<index_t>(1, m.mrows() / dev.spec().wavefront_size);
  const index_t saturation_segs = std::max<index_t>(
      1, static_cast<index_t>(dev.spec().num_compute_units) *
             dev.spec().latency_hiding_wavefronts / waves_per_seg);
  const index_t max_parts = std::max<index_t>(1, seg_count / saturation_segs);
  const index_t parts =
      transfer ? std::min<index_t>({kShardTransferChunks, max_parts,
                                    std::max<index_t>(seg_count, 1)})
               : 1;

  const auto& srow = m.scatter_rows();
  const index_t* skip_begin = srow.data() + r.scatter_begin;
  const index_t* skip_end = srow.data() + r.scatter_end;

  index_t x_cursor = r.x_begin;
  NodeId prev_launch = -1;
  NodeId tail = -1;
  for (index_t part = 0; part < parts; ++part) {
    kernels::CrsdGpuRange pr = r;
    pr.seg_begin = r.seg_begin + part * seg_count / parts;
    pr.seg_end = r.seg_begin + (part + 1) * seg_count / parts;
    const bool last = part + 1 == parts;
    if (!last) {
      pr.scatter_begin = pr.scatter_end = 0;
    }

    NodeId h2d = -1;
    if (transfer) {
      // This part's x chunk: extend the staged prefix far enough for the
      // part's diagonals; the last chunk completes the window (scatter
      // gathers may reach anywhere in it).
      const index_t need =
          last ? r.x_end
               : std::max(x_cursor,
                          detail::diag_x_hi(m, pr.seg_begin, pr.seg_end,
                                            x_cursor));
      const index_t chunk0 = x_cursor;
      const index_t chunk1 = std::min(need, r.x_end);
      x_cursor = chunk1;
      h2d = g.add_node(
          NodeKind::kH2D, lane.h2d, tag + ".h2d." + std::to_string(part),
          [&opts, x, &x_stage, chunk0, chunk1, x0 = r.x_begin] {
            return hybrid::staged_copy(
                opts.pcie, x + chunk0, x_stage.data() + (chunk0 - x0),
                static_cast<size64_t>(chunk1 - chunk0));
          });
    }

    const NodeId launch = g.add_node(
        NodeKind::kLaunch, lane.compute,
        tag + ".launch." + std::to_string(part),
        [&dev, &m, pr, x_window, y_window, &launch_opts] {
          return kernels::gpu_spmv_crsd_range(dev, m, pr, x_window, y_window,
                                              launch_opts)
              .seconds;
        });
    if (h2d >= 0) g.add_edge(h2d, launch);
    prev_launch = launch;

    if (transfer) {
      // Ship this part's rows, minus the rows the scatter phase will
      // overwrite later.
      const RowRange part_rows =
          segment_row_range(pr.seg_begin, pr.seg_end, m.mrows(), r.row_end);
      const index_t part_r0 = part_rows.begin;
      const index_t part_r1 = part_rows.end;
      const NodeId d2h = g.add_node(
          NodeKind::kD2H, lane.d2h, tag + ".d2h." + std::to_string(part),
          [&opts, &y_dev, y_out, part_r0, part_r1, row0 = r.row_begin,
           skip_begin, skip_end] {
            const size64_t bytes = detail::copy_rows_skipping(
                y_dev.data(), y_out, part_r0, part_r1, row0, skip_begin,
                skip_end);
            return hybrid::transfer_seconds(opts.pcie, bytes);
          });
      g.add_edge(launch, d2h);
      tail = d2h;
    } else {
      tail = launch;
    }
  }

  if (transfer && r.scatter_begin < r.scatter_end) {
    // Scatter flush: the overwritten rows only settle after the last
    // launch.
    const NodeId flush = g.add_node(
        NodeKind::kD2H, lane.d2h, tag + ".d2h.scatter",
        [&opts, &y_dev, y_out, row0 = r.row_begin, skip_begin, skip_end] {
          size64_t elems = 0;
          for (const index_t* s = skip_begin; s != skip_end; ++s) {
            y_out[*s - row0] = y_dev[static_cast<std::size_t>(*s - row0)];
            ++elems;
          }
          return hybrid::transfer_seconds(opts.pcie, elems * sizeof(T));
        });
    g.add_edge(prev_launch, flush);
    tail = flush;
  }
  return tail;
}

/// One part of a row split: `range` of the built container `matrix`, bound
/// to the simulated device `device` or, with `on_cpu`, to the host CPU.
/// The container's rows are the caller's y rows.
template <Real T>
struct RowSplitPart {
  const CrsdMatrix<T>* matrix = nullptr;
  kernels::CrsdGpuRange range;
  gpusim::Device* device = nullptr;
  bool on_cpu = false;
};

/// One row split's run on the virtual timeline.
struct RowSplitRun {
  GraphRunStats stats;
  double h2d_seconds = 0.0;
  double launch_seconds = 0.0;
  double d2h_seconds = 0.0;
  double cpu_seconds = 0.0;
};

namespace detail {

/// Byte/flop traffic of a CPU part: its segments' diagonal streams plus its
/// scatter rows.
template <Real T>
perf::SweepCost cpu_part_cost(const CrsdMatrix<T>& m,
                              const kernels::CrsdGpuRange& r) {
  perf::SweepCost cost;
  const int vb = m.value_bytes();
  for (index_t g = r.seg_begin; g < r.seg_end; ++g) {
    const auto& pat =
        m.patterns()[static_cast<std::size_t>(m.pattern_of_segment(g))];
    const auto c = perf::pattern_segment_cost(pat, m.mrows(), vb);
    cost.bytes += c.bytes;
    cost.flops += c.flops;
  }
  const index_t nscatter = r.scatter_end - r.scatter_begin;
  if (nscatter > 0) {
    const auto c = perf::scatter_row_cost(m.scatter_width(), vb);
    cost.bytes += c.bytes * static_cast<size64_t>(nscatter);
    cost.flops += c.flops * static_cast<size64_t>(nscatter);
  }
  return cost;
}

}  // namespace detail

/// The row-split lowering. Each device part becomes append_shard_pipeline
/// on its own three in-order queues; each CPU part becomes one kCpuCompute
/// node on the host's in-order "cpu" queue, priced by the multicore
/// roofline at kCpuPartThreads; one join barrier closes the graph. Parts
/// must own disjoint rows (the callers' validators prove it), so each
/// writes its rows straight into `y`. `x` holds every column. Throws
/// crsd::Error for a part without a container or without exactly one
/// executor, before anything runs; a launch that throws aborts the run and
/// rethrows after every started node finished.
template <Real T>
RowSplitRun run_row_split(const std::vector<RowSplitPart<T>>& parts,
                          const T* x, T* y, ThreadPool& pool,
                          const MultiDeviceOptions& opts = {},
                          const kernels::CrsdGpuOptions& launch_opts = {}) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    CRSD_CHECK_MSG(parts[i].matrix != nullptr &&
                       parts[i].on_cpu == (parts[i].device == nullptr),
                   "row-split part " << i
                                     << " needs a container and exactly one "
                                        "executor: a device or the CPU");
  }
  TaskGraph g;
  const QueueId host = g.add_queue("host");
  QueueId cpu = -1;
  std::vector<std::vector<T>> x_stage(parts.size());
  std::vector<std::vector<T>> y_dev(parts.size());
  std::vector<NodeId> tails;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const RowSplitPart<T>& p = parts[i];
    const std::string tag = "part" + std::to_string(i);
    if (!p.on_cpu) {
      DeviceLane lane;
      lane.h2d = g.add_queue(tag + ".h2d");
      lane.compute = g.add_queue(tag + ".compute");
      lane.d2h = g.add_queue(tag + ".d2h");
      tails.push_back(append_shard_pipeline(
          g, lane, *p.device, *p.matrix, Shard{p.range}, opts, launch_opts,
          tag, x, x_stage[i], y_dev[i], y + p.range.row_begin));
    } else if (!p.range.empty()) {
      if (cpu < 0) cpu = g.add_queue("cpu");
      const double seconds = perf::cpu_spmv_seconds(
          perf::CpuSystemSpec::xeon_x5550_2s(),
          detail::cpu_part_cost(*p.matrix, p.range), kCpuPartThreads,
          std::is_same_v<T, double>);
      tails.push_back(g.add_node(
          NodeKind::kCpuCompute, cpu, tag + ".cpu",
          [&p, x, y, seconds] {
            p.matrix->spmv_segments_vec(p.range.seg_begin, p.range.seg_end, x,
                                        y);
            p.matrix->spmv_scatter(p.range.scatter_begin, p.range.scatter_end,
                                   x, y);
            return seconds;
          }));
    }
  }
  const NodeId done = g.add_node(NodeKind::kBarrier, host, "join");
  for (NodeId tail : tails) {
    if (tail >= 0) g.add_edge(tail, done);
  }

  GraphExecutor exec(pool, g);
  RowSplitRun run;
  run.stats = exec.run();
  run.h2d_seconds = run.stats.kind_seconds(g, NodeKind::kH2D);
  run.launch_seconds = run.stats.kind_seconds(g, NodeKind::kLaunch);
  run.d2h_seconds = run.stats.kind_seconds(g, NodeKind::kD2H);
  run.cpu_seconds = run.stats.kind_seconds(g, NodeKind::kCpuCompute);
  return run;
}

struct MultiDeviceResult {
  double makespan_seconds = 0.0;
  double h2d_seconds = 0.0;
  double compute_seconds = 0.0;
  double d2h_seconds = 0.0;
  /// max(per-engine busy) / makespan — 1.0 means transfers are fully
  /// hidden behind the busiest engine.
  double overlap_efficiency = 0.0;
  GraphRunStats stats;
};

/// y = A*x sharded across N simulated devices.
template <Real T>
class MultiDeviceSpmv {
 public:
  MultiDeviceSpmv(const CrsdMatrix<T>& m, int num_devices,
                  MultiDeviceOptions opts = {})
      : MultiDeviceSpmv(m, plan_shards(m, num_devices), std::move(opts)) {}

  /// Explicit shards (tests inject broken partitions): throws
  /// DiagnosticError carrying kPlanPartition when the shards do not
  /// disjointly cover the matrix.
  MultiDeviceSpmv(const CrsdMatrix<T>& m, std::vector<Shard> shards,
                  MultiDeviceOptions opts = {})
      : m_(m), opts_(std::move(opts)), shards_(std::move(shards)) {
    auto diags = validate_shard_partition(m_, shards_);
    if (check::has_errors(diags)) {
      throw check::DiagnosticError(
          "shard partition invalid:\n" + check::format_diagnostics(diags),
          std::move(diags));
    }
  }

  const std::vector<Shard>& shards() const { return shards_; }

  /// Executes the sharded sweep. `devices` must provide one non-null Device
  /// per shard; y receives the full result.
  MultiDeviceResult run(const std::vector<gpusim::Device*>& devices,
                        const T* x, T* y, ThreadPool& pool) const {
    CRSD_CHECK_MSG(devices.size() == shards_.size(),
                   "need one device per shard: " << devices.size() << " vs "
                                                 << shards_.size());
    // A null device fails run_row_split's executor check.
    std::vector<RowSplitPart<T>> parts;
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      parts.push_back({&m_, shards_[d].range, devices[d], false});
    }
    const RowSplitRun run = run_row_split(parts, x, y, pool, opts_);
    MultiDeviceResult res;
    res.makespan_seconds = run.stats.makespan_seconds;
    res.h2d_seconds = run.h2d_seconds;
    res.compute_seconds = run.launch_seconds;
    res.d2h_seconds = run.d2h_seconds;
    res.overlap_efficiency = run.stats.overlap_efficiency();
    res.stats = run.stats;
    return res;
  }

 private:
  const CrsdMatrix<T>& m_;
  MultiDeviceOptions opts_;
  std::vector<Shard> shards_;
};

}  // namespace crsd::rt
