// crsd_analyze — static kernel-access analyzer over the paper suite.
//
// For every Table V matrix and every storage mode (fp64, fp64+i16,
// fp32+i16) the tool builds the CRSD
// container, runs the static analyzer (analysis/analyze.hpp) on the launch
// it would issue, and prints any finding as a check::Diagnostic. With
// cross-validation on (the default) it also executes the launch on a fresh
// simulated device and compares the statically predicted DRAM transactions
// against the measured counters — the prediction must stay within 10%
// relative error (it is exact by construction; the gate catches model
// drift).
//
// Exit status: 0 when every launch is proven safe and every prediction is
// inside the gate; 1 otherwise — so CI can run this binary as a gate.
//
// Usage: crsd_analyze [--scale S] [--mrows M] [--matrix ID] [--mode NAME]
//                     [--no-measure] [--no-local-memory] [--interpreted]
//                     [--json PATH]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "check/diagnostics.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "gpusim/device.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/paper_suite.hpp"

namespace {

using namespace crsd;

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

struct Options {
  double scale = 0.05;
  index_t mrows = 64;
  std::optional<int> only_matrix;
  std::optional<std::string> only_mode;
  bool measure = true;
  bool use_local_memory = true;
  bool jit_codelet = true;
  std::string json_path;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      CRSD_CHECK_MSG(i + 1 < argc, "missing value after " << a);
      return argv[++i];
    };
    if (a == "--scale") {
      o.scale = std::stod(next());
    } else if (a == "--mrows") {
      o.mrows = static_cast<index_t>(std::stol(next()));
    } else if (a == "--matrix") {
      o.only_matrix = std::stoi(next());
    } else if (a == "--mode") {
      o.only_mode = next();
    } else if (a == "--no-measure") {
      o.measure = false;
    } else if (a == "--no-local-memory") {
      o.use_local_memory = false;
    } else if (a == "--interpreted") {
      o.jit_codelet = false;
    } else if (a == "--json") {
      o.json_path = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      std::exit(2);
    }
  }
  return o;
}

struct Cell {
  int id = 0;
  std::string matrix;
  std::string mode;
  std::size_t findings = 0;
  size64_t static_transactions = 0;
  size64_t measured_transactions = 0;
  double rel_error = 0.0;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;
  double worst_tpw = 0.0;  ///< worst per-pattern transactions/wavefront
};

void write_json(const std::vector<Cell>& cells, const Options& o,
                bool pass) {
  std::ofstream out(o.json_path);
  out << "{\n  \"tool\": \"crsd_analyze\",\n  \"scale\": " << o.scale
      << ",\n  \"mrows\": " << o.mrows << ",\n  \"gate_rel_error\": 0.10,\n"
      << "  \"launches\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"id\": %d, \"matrix\": \"%s\", \"mode\": \"%s\", "
        "\"findings\": %zu, \"static_dram_transactions\": %llu, "
        "\"measured_dram_transactions\": %llu, \"rel_error\": %.6f, "
        "\"predicted_seconds\": %.6e, \"measured_seconds\": %.6e, "
        "\"worst_transactions_per_wavefront\": %.3f}%s\n",
        c.id, c.matrix.c_str(), c.mode.c_str(), c.findings,
        static_cast<unsigned long long>(c.static_transactions),
        static_cast<unsigned long long>(c.measured_transactions), c.rel_error,
        c.predicted_seconds, c.measured_seconds, c.worst_tpw,
        i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);

  std::printf("== crsd_analyze: static bounds/race/coalescing proof over the "
              "paper suite ==\n");
  std::printf("scale %.3f, mrows %d, local memory %s, %s kernel%s\n\n",
              opts.scale, opts.mrows, opts.use_local_memory ? "on" : "off",
              opts.jit_codelet ? "jit" : "interpreted",
              opts.measure ? ", cross-validating vs gpusim" : "");
  std::printf("%3s %-14s %-10s %8s %12s %12s %8s\n", "id", "matrix", "mode",
              "findings", "txn(static)", "txn(meas)", "relerr");

  std::vector<Cell> cells;
  std::size_t total_findings = 0;
  double worst_rel_error = 0.0;
  bool gate_ok = true;

  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const Coo<double> a = spec.generate(opts.scale);

    for (const auto& mode : modes()) {
      if (opts.only_mode && *opts.only_mode != mode.name) continue;
      CrsdConfig cfg;
      cfg.mrows = opts.mrows;
      cfg.storage = mode.storage;
      const CrsdMatrix<double> m = build(a, cfg);

      analysis::AnalyzeOptions aopts;
      aopts.use_local_memory = opts.use_local_memory;
      aopts.jit_codelet = opts.jit_codelet;
      const analysis::AnalysisReport rep = analysis::analyze_crsd_launch(m, aopts);

      Cell c;
      c.id = spec.id;
      c.matrix = spec.name;
      c.mode = mode.name;
      c.findings = rep.diagnostics.size();
      c.static_transactions = rep.coalescing.counters.global_load_transactions +
                              rep.coalescing.counters.global_store_transactions;
      c.predicted_seconds = rep.coalescing.predicted_seconds;
      for (const auto& pt : rep.coalescing.per_pattern) {
        c.worst_tpw = std::max(c.worst_tpw, pt.transactions_per_wavefront());
      }
      total_findings += c.findings;
      if (!rep.diagnostics.empty()) {
        std::printf("%3d %-14s %-10s UNSAFE:\n%s", spec.id, spec.name.c_str(),
                    mode.name, check::format_diagnostics(rep.diagnostics).c_str());
      }

      if (opts.measure) {
        // A fresh device per launch: the analyzer models the allocator of an
        // unused device, and buffer base addresses feed the cache set
        // mapping, so reusing one device would shift the measured counters.
        gpusim::Device dev(aopts.spec);
        Rng rng(2026);
        std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
        for (auto& v : x) v = rng.next_double(-1.0, 1.0);
        std::vector<double> y(static_cast<std::size_t>(m.num_rows()));
        kernels::CrsdGpuOptions gopts;
        gopts.use_local_memory = opts.use_local_memory;
        gopts.jit_codelet = opts.jit_codelet;
        const gpusim::LaunchResult launch =
            kernels::gpu_spmv_crsd(dev, m, x.data(), y.data(), gopts);
        c.measured_transactions = launch.counters.global_load_transactions +
                                  launch.counters.global_store_transactions;
        c.measured_seconds = launch.seconds;
        const double denom = std::max<double>(1.0, double(c.measured_transactions));
        c.rel_error =
            std::abs(double(c.static_transactions) -
                     double(c.measured_transactions)) / denom;
        worst_rel_error = std::max(worst_rel_error, c.rel_error);
        if (c.rel_error > 0.10) gate_ok = false;
      }

      std::printf("%3d %-14s %-10s %8zu %12llu %12llu %7.4f%%\n", spec.id,
                  spec.name.c_str(), mode.name, c.findings,
                  static_cast<unsigned long long>(c.static_transactions),
                  static_cast<unsigned long long>(c.measured_transactions),
                  100.0 * c.rel_error);
      cells.push_back(std::move(c));
    }
  }

  const bool pass = total_findings == 0 && gate_ok;
  std::printf("\n%zu launches analyzed, %zu findings, worst DRAM-transaction "
              "rel error %.4f%% (gate 10%%): %s\n",
              cells.size(), total_findings, 100.0 * worst_rel_error,
              pass ? "PASS" : "FAIL");
  if (!opts.json_path.empty()) write_json(cells, opts, pass);
  return pass ? 0 : 1;
}
