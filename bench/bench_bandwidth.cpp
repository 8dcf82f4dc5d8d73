// Bandwidth-diet benchmark: how many bytes does one CRSD SpMV sweep stream
// per nonzero under each storage mode (core/storage_mode.hpp), and do the
// smaller streams actually translate into fewer simulated-DRAM transactions
// and a faster CPU sweep? SpMV is bandwidth-bound (the paper's premise), so
// bytes/nnz is the figure of merit: fp32 value streams halve the dominant
// term, u16 scatter columns shrink the index side.
//
// Every compact mode is parity-gated against the fp64 build with the
// storage-derived tolerance (check::storage_parity_bound) before its numbers
// are reported; a violation marks the row and fails the binary.
//
// Writes BENCH_bandwidth.json (path overridable via CRSD_BENCH_OUT). The
// summary gates the headline claim: on the dense-band (nemeth) family the
// fp32+narrow-index build must stream >= 25% fewer bytes/nnz than the fp64
// baseline, with simulated DRAM transactions also reduced — the binary exits
// non-zero otherwise, so CI's perf-smoke job runs this as an assertion.
//
// Usage: bench_bandwidth [--scale S] [--mrows M] [--matrix ID]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "check/close.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/build_api.hpp"
#include "gpusim/executor.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/paper_suite.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

struct Mode {
  const char* name;
  StorageOptions storage;
};

const std::vector<Mode>& modes() {
  static const std::vector<Mode> m = {
      {"fp64", {}},
      {"fp64+i16", {ValuePrecision::kNative, true}},
      {"fp32+i16", {ValuePrecision::kFloat32, true}},
  };
  return m;
}

/// Index of the headline mode (fp32 values + narrow scatter indices) and
/// the baseline in modes().
constexpr std::size_t kBaseline = 0;
constexpr std::size_t kHeadline = 2;

struct ModeCell {
  double bytes_per_nnz = 0.0;   ///< container footprint / nnz
  size64_t dram_transactions = 0;  ///< simulated load+store transactions
  double t_gpu = 0.0;           ///< simulated sweep seconds
  double t_cpu = 0.0;           ///< measured CPU sweep seconds/rep
  bool parity_ok = true;        ///< tolerance-gated match vs the fp64 sweep
};

struct BandwidthRow {
  int id = 0;
  std::string name;
  bool dense_band = false;
  size64_t nnz = 0;
  std::vector<ModeCell> cells;  ///< indexed like modes()

  double bytes_reduction(std::size_t m) const {
    const double base = cells[kBaseline].bytes_per_nnz;
    return base > 0.0 ? 1.0 - cells[m].bytes_per_nnz / base : 0.0;
  }
};

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

void write_json(const std::vector<BandwidthRow>& rows,
                const SuiteOptions& opts, double gate_reduction,
                double gate_dram_ratio, double gate_cpu_speedup,
                bool gate_pass, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bandwidth\",\n"
      << "  \"precision\": \"double\",\n"
      << "  \"scale\": " << opts.scale << ",\n"
      << "  \"mrows\": " << opts.mrows << ",\n  \"modes\": [";
  for (std::size_t m = 0; m < modes().size(); ++m) {
    out << (m ? ", " : "") << '"' << modes()[m].name << '"';
  }
  out << "],\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"id\": " << r.id << ", \"name\": \"" << r.name
        << "\", \"nnz\": " << r.nnz
        << ", \"dense_band\": " << (r.dense_band ? "true" : "false")
        << ", \"modes\": [\n";
    for (std::size_t m = 0; m < r.cells.size(); ++m) {
      const auto& c = r.cells[m];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "      {\"mode\": \"%s\", \"bytes_per_nnz\": %.3f, "
                    "\"dram_transactions\": %llu, \"t_gpu\": %.3e, "
                    "\"t_cpu_spmv\": %.3e, \"parity_ok\": %s}%s\n",
                    modes()[m].name, c.bytes_per_nnz,
                    static_cast<unsigned long long>(c.dram_transactions),
                    c.t_gpu, c.t_cpu, c.parity_ok ? "true" : "false",
                    m + 1 < r.cells.size() ? "," : "");
      out << buf;
    }
    out << "    ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "  ],\n  \"summary\": {\"headline_mode\": \"%s\", "
      "\"dense_band_bytes_reduction\": %.3f, "
      "\"dense_band_dram_ratio\": %.3f, "
      "\"dense_band_cpu_speedup\": %.3f, "
      "\"gate_min_bytes_reduction\": 0.25, \"gate_pass\": %s}\n}\n",
      modes()[kHeadline].name, gate_reduction, gate_dram_ratio,
      gate_cpu_speedup, gate_pass ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  const auto opts = SuiteOptions::parse(argc, argv);

  std::printf("== CRSD bandwidth diet: bytes/nnz, simulated DRAM "
              "transactions, CPU sweep by storage mode ==\n");
  std::printf("scale %.3f, mrows %d\n\n", opts.scale, opts.mrows);
  std::printf("%3s %-14s %11s |", "id", "matrix", "nnz");
  for (const auto& m : modes()) std::printf(" %10s", m.name);
  std::printf("  (bytes/nnz; * = parity FAIL)\n");

  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());

  std::vector<BandwidthRow> rows;
  bool all_parity_ok = true;
  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;

    BandwidthRow r;
    r.id = spec.id;
    r.name = spec.name;
    r.dense_band = spec.family.find("dense band") != std::string::npos;
    // The gate family runs at published size regardless of --scale: the
    // nemeth matrices are small (<= 768k nnz), and at reduced scale their
    // value stream fits L2, where the CPU sweep is compute-bound and the
    // bandwidth diet cannot show up in wall clock.
    const auto a = spec.generate(r.dense_band ? 1.0 : opts.scale);
    r.nnz = a.nnz();

    // Worst-case accumulation length for the parity bound.
    std::vector<size64_t> row_nnz(static_cast<std::size_t>(a.num_rows()), 0);
    for (size64_t k = 0; k < a.nnz(); ++k) {
      ++row_nnz[static_cast<std::size_t>(a.row_indices()[k])];
    }
    const size64_t max_terms =
        row_nnz.empty() ? 0 : *std::max_element(row_nnz.begin(), row_nnz.end());

    Rng rng(2026);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));

    std::printf("%3d %-14s %11llu |", r.id, r.name.c_str(),
                static_cast<unsigned long long>(r.nnz));
    for (std::size_t mi = 0; mi < modes().size(); ++mi) {
      CrsdConfig cfg;
      cfg.mrows = opts.mrows;
      cfg.storage = modes()[mi].storage;
      const auto m = build(a, cfg);

      ModeCell c;
      c.bytes_per_nnz =
          r.nnz > 0 ? double(m.footprint_bytes()) / double(r.nnz) : 0.0;

      const auto launch = kernels::gpu_spmv_crsd(dev, m, x.data(), y.data());
      c.dram_transactions = launch.counters.global_load_transactions +
                            launch.counters.global_store_transactions;
      c.t_gpu = launch.seconds;

      m.spmv(x.data(), y.data());
      if (mi == kBaseline) {
        y_ref = y;
      } else {
        double ref_scale = 0.0;
        for (double v : y_ref) ref_scale = std::max(ref_scale, std::abs(v));
        const auto bound = check::storage_parity_bound<double>(
            m.value_precision(), max_terms, ref_scale);
        c.parity_ok = check::all_close(y.data(), y_ref.data(),
                                       y_ref.size(), bound)
                          .ok;
      }
      all_parity_ok = all_parity_ok && c.parity_ok;

      c.t_cpu = time_per_rep([&] { m.spmv(x.data(), y.data()); });
      std::printf(" %9.2f%s", c.bytes_per_nnz, c.parity_ok ? " " : "*");
      r.cells.push_back(c);
    }
    std::printf("\n");
    rows.push_back(std::move(r));
  }

  // Headline gate over the dense-band family: fp32+i16 vs fp64.
  std::vector<double> reductions, dram_ratios, cpu_speedups;
  for (const auto& r : rows) {
    if (!r.dense_band) continue;
    reductions.push_back(r.bytes_reduction(kHeadline));
    const auto& base = r.cells[kBaseline];
    const auto& head = r.cells[kHeadline];
    if (base.dram_transactions > 0) {
      dram_ratios.push_back(double(head.dram_transactions) /
                            double(base.dram_transactions));
    }
    if (head.t_cpu > 0.0) cpu_speedups.push_back(base.t_cpu / head.t_cpu);
  }
  const double gate_reduction =
      reductions.empty()
          ? 0.0
          : *std::min_element(reductions.begin(), reductions.end());
  const double gate_dram_ratio = geomean(dram_ratios);
  const double gate_cpu_speedup = geomean(cpu_speedups);
  const bool family_present = !reductions.empty() || opts.only_matrix;
  const bool gate_pass =
      all_parity_ok &&
      (!family_present || reductions.empty() || gate_reduction >= 0.25);

  std::printf("\ndense-band family, %s vs fp64: min bytes/nnz reduction "
              "%.1f%%, DRAM transactions x%.3f, CPU sweep speedup %.2fx\n",
              modes()[kHeadline].name, gate_reduction * 100.0,
              gate_dram_ratio, gate_cpu_speedup);

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path = out_env != nullptr && *out_env != '\0'
                                   ? out_env
                                   : "BENCH_bandwidth.json";
  write_json(rows, opts, gate_reduction, gate_dram_ratio, gate_cpu_speedup,
             gate_pass, out_path);
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_parity_ok) {
    std::printf("FAIL: a compact-storage sweep violated its parity bound\n");
    return 1;
  }
  if (!gate_pass) {
    std::printf("FAIL: %s streams fewer than 25%% fewer bytes/nnz than fp64 "
                "on the dense-band family\n",
                modes()[kHeadline].name);
    return 1;
  }
  return 0;
}
