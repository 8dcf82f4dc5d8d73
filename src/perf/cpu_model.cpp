#include "perf/cpu_model.hpp"

#include <algorithm>

#include "gpusim/executor.hpp"

namespace crsd::perf {

CpuSystemSpec CpuSystemSpec::xeon_x5550_2s() {
  CpuSystemSpec spec;
  spec.name = "2x Intel Xeon X5550 (modeled)";
  // Nehalem-EP: 2 sockets x 4 cores at 2.67 GHz, triple-channel DDR3-1333
  // per socket (~32 GB/s raw each; ~38 GB/s sustained node-wide for
  // streaming reads), a single thread sustains ~5.5 GB/s.
  return spec;
}

namespace {
constexpr size64_t kIndexBytes = sizeof(index_t);

size64_t vector_traffic(const StructureStats& s, int value_bytes) {
  // One pass of x (cache-resident reuse within the sweep) plus the y write.
  return (static_cast<size64_t>(s.num_cols) +
          static_cast<size64_t>(s.num_rows)) *
         static_cast<size64_t>(value_bytes);
}
}  // namespace

SweepCost csr_sweep_cost(const StructureStats& s, int value_bytes) {
  SweepCost c;
  c.bytes = s.nnz * (static_cast<size64_t>(value_bytes) + kIndexBytes) +
            (static_cast<size64_t>(s.num_rows) + 1) * kIndexBytes +
            vector_traffic(s, value_bytes);
  c.flops = 2 * s.nnz;
  return c;
}

SweepCost dia_sweep_cost(const StructureStats& s, int value_bytes) {
  SweepCost c;
  c.bytes = s.dia_padded_elements() * static_cast<size64_t>(value_bytes) +
            s.num_diagonals() * kIndexBytes + vector_traffic(s, value_bytes);
  // Padded slots are multiplied too — they are flops the machine executes,
  // though the GFLOPS metric elsewhere only credits 2*nnz.
  c.flops = 2 * s.dia_padded_elements();
  return c;
}

SweepCost ell_sweep_cost(const StructureStats& s, int value_bytes) {
  SweepCost c;
  c.bytes = s.ell_padded_elements() *
                (static_cast<size64_t>(value_bytes) + kIndexBytes) +
            vector_traffic(s, value_bytes);
  c.flops = 2 * s.ell_padded_elements();
  return c;
}

SweepCost crsd_sweep_cost(const CrsdStats& s, index_t num_rows,
                          int value_bytes) {
  SweepCost c;
  const size64_t scatter_slots =
      static_cast<size64_t>(s.num_scatter_rows) * s.scatter_width;
  // Stats built from a container carry the actual stream widths (a compact
  // build stores f32 values or u16 scatter columns);
  // zero means hand-assembled stats, which fall back to the historical
  // uniform assumption: `value_bytes` values and 4-byte indices.
  const size64_t vb =
      s.value_bytes > 0 ? s.value_bytes : static_cast<size64_t>(value_bytes);
  const size64_t scatter_index_bytes = s.scatter_index_bytes > 0
                                           ? s.scatter_index_bytes
                                           : scatter_slots * kIndexBytes;
  c.bytes = s.dia_slots * vb + scatter_slots * vb + scatter_index_bytes +
            // x + y stay native-width; the diagonal index metadata is baked
            // into the codelet.
            2 * static_cast<size64_t>(num_rows) *
                static_cast<size64_t>(value_bytes);
  c.flops = 2 * (s.dia_slots + scatter_slots);
  return c;
}

double cpu_spmv_seconds(const CpuSystemSpec& spec, const SweepCost& cost,
                        int threads, bool double_precision) {
  // Static-partition fork/join overhead per sweep.
  const double t_sync = threads > 1 ? 2e-6 : 0.0;
  return roofline_seconds(spec, cost, threads, double_precision) + t_sync;
}

double predict_crsd_spmv_seconds(const CrsdStats& stats, index_t num_rows,
                                 int value_bytes, bool double_precision) {
  return roofline_seconds(CpuSystemSpec{},
                          crsd_sweep_cost(stats, num_rows, value_bytes),
                          /*threads=*/1, double_precision);
}

double predict_crsd_spmv_seconds(const gpusim::DeviceSpec& spec,
                                 const gpusim::Counters& counters,
                                 bool double_precision) {
  // gpu_spmv_crsd models the fused diag+scatter kernel as one launch; only
  // `launches` and `double_precision` of the config enter the formula.
  gpusim::LaunchConfig cfg;
  cfg.launches = 1;
  cfg.double_precision = double_precision;
  return gpusim::estimate_seconds(spec, counters, cfg);
}

}  // namespace crsd::perf
