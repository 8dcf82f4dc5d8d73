// Multi-device sharded SpMV on the task-graph runtime: each gpusim Device
// owns one contiguous shard (shard.hpp), gets only its x-window transferred
// in chunks that pipeline against partial launches, ships y back as each
// part completes, and a reduction tree merges the host partials into y in
// deterministic shard order. Because every shard executes the *same built
// container* over a sub-range (kernels::gpu_spmv_crsd_range), per-row
// accumulation order is unchanged and the merged y is bitwise-identical to
// the single-device launch.
//
// Pipelining detail: the scatter phase overwrites y rows anywhere in its
// shard, so per-part D2H nodes ship only non-scatter rows; the rows the
// scatter phase owns are flushed by a final D2H after the last launch.
//
// All times are virtual (gpusim wall model + PCIe transfer model) on the
// scheduler's per-queue clocks: makespan, per-engine busy time, and overlap
// efficiency are deterministic, so CI can gate on them.
#pragma once

#include <vector>

#include "gpusim/device.hpp"
#include "hybrid/transfer.hpp"
#include "kernels/crsd_gpu.hpp"
#include "runtime/shard.hpp"
#include "runtime/task_graph.hpp"

namespace crsd::rt {

/// H2D/D2H pipeline depth per shard: the shard's segment run is split into
/// up to this many launch parts, each fed by its own x chunk.
inline constexpr int kShardTransferChunks = 4;
/// Host-side bandwidth charged by Reduce nodes (read partial + write y).
inline constexpr double kHostCopyGbps = 18.0;

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

/// One host-visible delivery of a shard's pipeline: the D2H node that
/// landed rows of the shard partial, and which rows it carried. Reductions
/// can merge each delivery as soon as it lands instead of waiting for the
/// whole shard (`scatter_rows` marks the final flush, which carries the
/// scatter-owned rows only).
struct ShardDelivery {
  NodeId d2h = -1;
  index_t row_begin = 0;
  index_t row_end = 0;
  bool scatter_rows = false;
};

/// Node ids of one shard's pipeline; `tail` is the node a reduction (or
/// join) must depend on for the shard's host-visible y to be complete.
/// `deliveries` is empty when no transfer nodes were emitted (resident
/// vectors).
struct ShardPipeline {
  std::vector<ShardDelivery> deliveries;
  NodeId tail = -1;
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
///
/// `x_stage`/`y_dev`/`y_out` must outlive the graph run. `x_stage` and
/// `y_dev` are sized here. `y_out` is the shard's host partial (size
/// y_elems) when transferring, or `y + row_begin` semantics via `y_direct`
/// when resident.
template <Real T>
ShardPipeline append_shard_pipeline(TaskGraph& g, const DeviceLane& lane,
                                    gpusim::Device& dev,
                                    const CrsdMatrix<T>& m, const Shard& shard,
                                    const MultiDeviceOptions& opts,
                                    const std::string& tag, const T* x,
                                    std::vector<T>& x_stage,
                                    std::vector<T>& y_dev, T* y_out) {
  ShardPipeline pipe;
  const auto& r = shard.range;
  const index_t seg_count = r.seg_end - r.seg_begin;
  if (seg_count == 0 && r.scatter_begin >= r.scatter_end) return pipe;

  const bool transfer = opts.transfer_vectors;
  if (transfer) {
    x_stage.assign(static_cast<std::size_t>(shard.x_elems()), T(0));
    y_dev.assign(static_cast<std::size_t>(shard.y_elems()), T(0));
  }
  const T* x_window = transfer ? x_stage.data() : x + r.x_begin;
  T* y_window = transfer ? y_dev.data() : y_out;

  // Pipeline depth: never split a launch below the device's saturation
  // point — a part with fewer wavefronts than the occupancy model needs to
  // hide latency runs derated, and four derated quarter-launches cost more
  // than the one launch they replace. Small shards therefore run as a
  // single launch; chunking only kicks in once each part can still fill
  // the device.
  const index_t waves_per_seg =
      std::max<index_t>(1, m.mrows() / dev.spec().wavefront_size);
  const index_t saturation_segs = std::max<index_t>(
      1, static_cast<index_t>(dev.spec().num_compute_units) *
             dev.spec().latency_hiding_wavefronts / waves_per_seg);
  const index_t max_parts = std::max<index_t>(1, seg_count / saturation_segs);
  const index_t parts = std::max<index_t>(
      1, std::min<index_t>(kShardTransferChunks,
                           std::min(max_parts, std::max<index_t>(seg_count, 1))));

  const auto& srow = m.scatter_rows();
  const index_t* skip_begin = srow.data() + r.scatter_begin;
  const index_t* skip_end = srow.data() + r.scatter_end;

  index_t x_cursor = r.x_begin;
  NodeId prev_launch = -1;
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
        [&dev, &m, pr, x_window, y_window] {
          return kernels::gpu_spmv_crsd_range(dev, m, pr, x_window, y_window)
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
      pipe.deliveries.push_back({d2h, part_r0, part_r1, false});
      pipe.tail = d2h;
    } else {
      pipe.tail = launch;
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
    pipe.deliveries.push_back({flush, r.row_begin, r.row_end, true});
    pipe.tail = flush;
  }
  return pipe;
}

struct MultiDeviceResult {
  double makespan_seconds = 0.0;
  double h2d_seconds = 0.0;
  double compute_seconds = 0.0;
  double d2h_seconds = 0.0;
  double reduce_seconds = 0.0;
  /// max(per-engine busy) / makespan — 1.0 means transfers and reduction
  /// are fully hidden behind the busiest engine.
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

  /// Executes the sharded sweep. `devices` must provide one Device per
  /// shard; y receives the full result.
  MultiDeviceResult run(const std::vector<gpusim::Device*>& devices,
                        const T* x, T* y, ThreadPool& pool) const {
    CRSD_CHECK_MSG(devices.size() == shards_.size(),
                   "need one device per shard: " << devices.size() << " vs "
                                                 << shards_.size());
    const int nd = static_cast<int>(shards_.size());

    TaskGraph g;
    std::vector<DeviceLane> lanes;
    for (int d = 0; d < nd; ++d) {
      DeviceLane lane;
      lane.h2d = g.add_queue("dev" + std::to_string(d) + ".h2d");
      lane.compute = g.add_queue("dev" + std::to_string(d) + ".compute");
      lane.d2h = g.add_queue("dev" + std::to_string(d) + ".d2h");
      lanes.push_back(lane);
    }
    const QueueId host = g.add_queue("host.reduce");

    std::vector<std::vector<T>> x_stage(static_cast<std::size_t>(nd));
    std::vector<std::vector<T>> y_dev(static_cast<std::size_t>(nd));
    std::vector<std::vector<T>> y_host(static_cast<std::size_t>(nd));

    // Leaf Reduce nodes merge each shard's host partial into y. They are
    // submitted in shard order on one in-order host queue, so the merge
    // order is deterministic regardless of which shard finishes first; a
    // binary join tree above them gives the graph a single completion root.
    std::vector<NodeId> level;
    for (int d = 0; d < nd; ++d) {
      const Shard& shard = shards_[static_cast<std::size_t>(d)];
      y_host[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(shard.y_elems()), T(0));
      const ShardPipeline pipe = append_shard_pipeline(
          g, lanes[static_cast<std::size_t>(d)], *devices[static_cast<std::size_t>(d)], m_,
          shard, opts_, "shard" + std::to_string(d), x,
          x_stage[static_cast<std::size_t>(d)],
          y_dev[static_cast<std::size_t>(d)],
          y_host[static_cast<std::size_t>(d)].data());

      const T* part_base = y_host[static_cast<std::size_t>(d)].data();
      const index_t row0 = shard.range.row_begin;
      const auto& srow = m_.scatter_rows();
      const index_t* skip_begin = srow.data() + shard.range.scatter_begin;
      const index_t* skip_end = srow.data() + shard.range.scatter_end;

      NodeId last_reduce = -1;
      if (pipe.deliveries.empty()) {
        // Resident vectors (or an empty shard): one merge of the whole
        // shard partial after its compute tail.
        last_reduce = g.add_node(
            NodeKind::kReduce, host, "reduce." + std::to_string(d),
            [y, part_base, row0, elems = shard.y_elems()] {
              for (index_t i = 0; i < elems; ++i) {
                y[row0 + i] = part_base[static_cast<std::size_t>(i)];
              }
              const double bytes = 2.0 * double(elems) * sizeof(T);
              return bytes / (kHostCopyGbps * 1e9);
            });
        if (pipe.tail >= 0) g.add_edge(pipe.tail, last_reduce);
      } else {
        // Merge each delivery as it lands, so only the last part's merge
        // sits on the critical path. Leaves stay in shard-major,
        // part-minor submission order on the one in-order host queue, so
        // the merge order is deterministic regardless of completion order.
        for (std::size_t p = 0; p < pipe.deliveries.size(); ++p) {
          const ShardDelivery& del = pipe.deliveries[p];
          NodeId reduce;
          if (del.scatter_rows) {
            reduce = g.add_node(
                NodeKind::kReduce, host,
                "reduce." + std::to_string(d) + ".scatter",
                [y, part_base, row0, skip_begin, skip_end] {
                  size64_t elems = 0;
                  for (const index_t* s = skip_begin; s != skip_end; ++s) {
                    y[*s] = part_base[static_cast<std::size_t>(*s - row0)];
                    ++elems;
                  }
                  const double bytes = 2.0 * double(elems) * sizeof(T);
                  return bytes / (kHostCopyGbps * 1e9);
                });
          } else {
            reduce = g.add_node(
                NodeKind::kReduce, host,
                "reduce." + std::to_string(d) + "." + std::to_string(p),
                [y, part_base, row0, r0 = del.row_begin,
                 r1 = del.row_end, skip_begin, skip_end] {
                  const size64_t bytes = detail::copy_rows_skipping(
                      part_base, y + row0, r0, r1, row0, skip_begin,
                      skip_end);
                  return 2.0 * double(bytes) / (kHostCopyGbps * 1e9);
                });
          }
          g.add_edge(del.d2h, reduce);
          last_reduce = reduce;
        }
      }
      level.push_back(last_reduce);
    }
    while (level.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        if (i + 1 == level.size()) {
          next.push_back(level[i]);
          break;
        }
        const NodeId join = g.add_node(
            NodeKind::kReduce, host,
            "reduce.join." + std::to_string(next.size()));
        g.add_edge(level[i], join);
        g.add_edge(level[i + 1], join);
        next.push_back(join);
      }
      level = std::move(next);
    }
    if (!level.empty()) {
      const NodeId done = g.add_node(NodeKind::kBarrier, host, "done");
      g.add_edge(level.front(), done);
    }

    GraphExecutor exec(pool, g);
    MultiDeviceResult res;
    res.stats = exec.run();
    res.makespan_seconds = res.stats.makespan_seconds;
    res.h2d_seconds = res.stats.kind_seconds(g, NodeKind::kH2D);
    res.compute_seconds = res.stats.kind_seconds(g, NodeKind::kLaunch);
    res.d2h_seconds = res.stats.kind_seconds(g, NodeKind::kD2H);
    res.reduce_seconds = res.stats.kind_seconds(g, NodeKind::kReduce);
    res.overlap_efficiency = res.stats.overlap_efficiency();
    return res;
  }

 private:
  const CrsdMatrix<T>& m_;
  MultiDeviceOptions opts_;
  std::vector<Shard> shards_;
};

}  // namespace crsd::rt
