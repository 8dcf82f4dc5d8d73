// Task-graph runtime benchmark: multi-device sharded SpMV scaling and
// transfer/compute overlap on the paper suite, all on the simulator's
// deterministic virtual timeline (gpusim wall model + PCIe transfer model),
// so the reported makespans and the CI gates are noise-free.
//
// Per matrix: the sharded sweep runs on 1, 2, and 4 simulated C2050s, its
// y is asserted bitwise-identical to the single-device launch (the
// determinism contract of runtime/multi_device.hpp), and the JSON records
// makespan, per-engine busy time, scaling, and overlap efficiency.
//
// Suite rows at --scale are informational: at reduced size most matrices
// cannot fill even one device, so splitting them further has nothing to
// win (the occupancy model derates every shard). The *gate* family is the
// nemeth dense-band trio regenerated at 8x published rows — enough
// segments that two devices stay saturated — where the binary asserts
// 2-device scaling >= 1.5x and 1-device overlap efficiency >= 0.70, and
// exits non-zero otherwise (CI perf-smoke runs this as an assertion).
//
// Writes BENCH_taskgraph.json (path overridable via CRSD_BENCH_OUT).
//
// Usage: bench_taskgraph [--scale S] [--mrows M] [--matrix ID]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "runtime/multi_device.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

constexpr double kGateMinScaling2 = 1.5;
constexpr double kGateMinOverlap = 0.70;

struct TaskGraphRow {
  int id = 0;  ///< paper-suite id; -1 for the synthetic gate rows
  std::string name;
  bool gate_row = false;
  index_t rows = 0;
  size64_t nnz = 0;
  double t1 = 0.0, t2 = 0.0, t4 = 0.0;  ///< makespan by device count
  double overlap1 = 0.0;                ///< 1-device overlap efficiency
  double h2d = 0.0, compute = 0.0, d2h = 0.0;  ///< 1-device
  bool bitwise_ok = true;

  double scaling2() const { return t2 > 0.0 ? t1 / t2 : 0.0; }
  double scaling4() const { return t4 > 0.0 ? t1 / t4 : 0.0; }
};

/// Runs one matrix through 1/2/4 devices and fills a row. `y_ref` is the
/// single-device full-range launch the sharded sweeps must reproduce
/// bit for bit.
TaskGraphRow run_matrix(const Coo<double>& a, int id, const std::string& name,
                        bool gate_row, index_t mrows, ThreadPool& pool) {
  TaskGraphRow r;
  r.id = id;
  r.name = name;
  r.gate_row = gate_row;
  r.rows = a.num_rows();
  r.nnz = a.nnz();

  CrsdConfig cfg;
  cfg.mrows = mrows;
  const auto m = build(a, cfg);

  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * double(i % 97);
  }
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));
  gpusim::Device ref_dev(gpusim::DeviceSpec::tesla_c2050());
  kernels::gpu_spmv_crsd(ref_dev, m, x.data(), y_ref.data());

  for (int nd : {1, 2, 4}) {
    std::vector<gpusim::Device> devs(
        static_cast<std::size_t>(nd),
        gpusim::Device(gpusim::DeviceSpec::tesla_c2050()));
    std::vector<gpusim::Device*> dev_ptrs;
    for (auto& d : devs) dev_ptrs.push_back(&d);

    const rt::MultiDeviceSpmv<double> engine(m, nd);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows()), -1.0);
    const rt::MultiDeviceResult res =
        engine.run(dev_ptrs, x.data(), y.data(), pool);

    for (std::size_t i = 0; i < y.size(); ++i) {
      if (y[i] != y_ref[i]) {
        r.bitwise_ok = false;
        break;
      }
    }
    if (nd == 1) {
      r.t1 = res.makespan_seconds;
      r.overlap1 = res.overlap_efficiency;
      r.h2d = res.h2d_seconds;
      r.compute = res.compute_seconds;
      r.d2h = res.d2h_seconds;
    } else if (nd == 2) {
      r.t2 = res.makespan_seconds;
    } else {
      r.t4 = res.makespan_seconds;
    }
  }
  return r;
}

void write_json(const std::vector<TaskGraphRow>& rows,
                const SuiteOptions& opts, double min_scaling2,
                double min_overlap, bool all_bitwise, bool gate_pass,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"taskgraph\",\n  \"precision\": \"double\",\n"
      << "  \"scale\": " << opts.scale << ",\n  \"mrows\": " << opts.mrows
      << ",\n  \"device\": \"tesla_c2050 (simulated)\",\n"
      << "  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"id\": %d, \"name\": \"%s\", \"gate_row\": %s, "
        "\"rows\": %lld, \"nnz\": %llu, \"t1\": %.4e, \"t2\": %.4e, "
        "\"t4\": %.4e, \"scaling_2\": %.3f, \"scaling_4\": %.3f, "
        "\"overlap_1dev\": %.3f, \"h2d\": %.4e, \"compute\": %.4e, "
        "\"d2h\": %.4e, \"bitwise_ok\": %s}%s\n",
        r.id, r.name.c_str(), r.gate_row ? "true" : "false",
        static_cast<long long>(r.rows),
        static_cast<unsigned long long>(r.nnz), r.t1, r.t2, r.t4,
        r.scaling2(), r.scaling4(), r.overlap1, r.h2d, r.compute, r.d2h,
        r.bitwise_ok ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"summary\": {\"gate_family\": \"dense band @ 8x\", "
                "\"min_scaling_2\": %.3f, \"gate_min_scaling_2\": %.2f, "
                "\"min_overlap_1dev\": %.3f, \"gate_min_overlap\": %.2f, "
                "\"all_bitwise\": %s, \"gate_pass\": %s}\n}\n",
                min_scaling2, kGateMinScaling2, min_overlap, kGateMinOverlap,
                all_bitwise ? "true" : "false", gate_pass ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  const auto opts = SuiteOptions::parse(argc, argv);

  std::printf("== Task-graph runtime: multi-device sharded SpMV scaling and "
              "overlap (virtual timeline) ==\n");
  std::printf("scale %.3f, mrows %d\n\n", opts.scale, opts.mrows);
  std::printf("%3s %-16s %9s %11s | %9s %7s %7s %8s  (* = bitwise FAIL)\n",
              "id", "matrix", "rows", "nnz", "t1[s]", "x2dev", "x4dev",
              "overlap");

  ThreadPool pool(4);
  std::vector<TaskGraphRow> rows;

  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const auto a = spec.generate(opts.scale);
    rows.push_back(
        run_matrix(a, spec.id, spec.name, false, opts.mrows, pool));
  }

  // Gate family: the nemeth dense-band trio at 8x published rows, large
  // enough that every shard of a 2-way split still saturates the device.
  struct GateSpec {
    const char* name;
    index_t rows;
    index_t half_bandwidth;
  };
  const std::vector<GateSpec> gate_specs = {
      {"nemeth15@8x", 76048, 31},
      {"nemeth16@8x", 76048, 36},
      {"nemeth17@8x", 76048, 40},
  };
  if (!opts.only_matrix) {
    for (const auto& gs : gate_specs) {
      const auto a = dense_band(gs.rows, gs.half_bandwidth);
      rows.push_back(run_matrix(a, -1, gs.name, true, opts.mrows, pool));
    }
  }

  bool all_bitwise = true;
  double min_scaling2 = 0.0, min_overlap = 0.0;
  bool have_gate = false;
  for (const auto& r : rows) {
    std::printf("%3d %-16s %9lld %11llu | %9.3e %6.2fx %6.2fx %7.1f%%%s\n",
                r.id, r.name.c_str(), static_cast<long long>(r.rows),
                static_cast<unsigned long long>(r.nnz), r.t1, r.scaling2(),
                r.scaling4(), r.overlap1 * 100.0, r.bitwise_ok ? "" : " *");
    all_bitwise = all_bitwise && r.bitwise_ok;
    if (r.gate_row) {
      min_scaling2 =
          have_gate ? std::min(min_scaling2, r.scaling2()) : r.scaling2();
      min_overlap =
          have_gate ? std::min(min_overlap, r.overlap1) : r.overlap1;
      have_gate = true;
    }
  }

  const bool gate_pass =
      all_bitwise && (!have_gate || (min_scaling2 >= kGateMinScaling2 &&
                                     min_overlap >= kGateMinOverlap));
  if (have_gate) {
    std::printf("\ndense-band gate family (8x rows): min 2-device scaling "
                "%.2fx (gate >= %.2fx), min 1-device overlap %.1f%% "
                "(gate >= %.0f%%)\n",
                min_scaling2, kGateMinScaling2, min_overlap * 100.0,
                kGateMinOverlap * 100.0);
  }

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path = out_env != nullptr && *out_env != '\0'
                                   ? out_env
                                   : "BENCH_taskgraph.json";
  write_json(rows, opts, min_scaling2, min_overlap, all_bitwise, gate_pass,
             out_path);
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_bitwise) {
    std::printf("FAIL: a sharded sweep diverged bitwise from the "
                "single-device launch\n");
    return 1;
  }
  if (!gate_pass) {
    std::printf("FAIL: multi-device scaling or overlap gate violated\n");
    return 1;
  }
  return 0;
}
